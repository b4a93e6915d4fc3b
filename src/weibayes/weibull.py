"""Two-parameter Weibull lifetime model in shape/scale and reliable-life form.

The reliable-life parameterization fixes a reliability level R in (0, 1)
and describes the distribution through the quantile x_R at which survival
equals R, together with the shape beta:

    Sf(x) = exp(-K * (x / x_R)**beta),      K = ln(1/R).

It maps onto the classical shape/scale form through alpha = x_R * K**(-1/beta).
Technological prior knowledge is naturally expressed in (x_R, beta), which is
why this form is primary everywhere in the package.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeScaleWeibull",
    "ReliableLifeWeibull",
    "reliability",
    "density",
    "quantile",
    "from_shape_scale",
    "to_shape_scale",
    "sample",
]


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_count(name: str, value: int, least: int | None) -> None:
    """The one test of a count or seed: an integer (numpy's too, not a bool), and at
    least ``least`` unless that is None, where the caller checks the range itself."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be " + (f"at least {least}" if least else "a nonnegative integer"))


def _log_inverse(R: float) -> float:
    """K = ln(1/R) of a reliability level R strictly inside (0, 1).  For R below about
    5.6e-309, 1/R overflows, and -ln R (at most 744.5) takes its place."""
    if not (0.0 < R < 1.0):
        raise ValueError(f"R must lie strictly inside (0, 1), got {R!r}")
    K = math.log(1.0 / R)
    return K if K < math.inf else -math.log(R)


@dataclass(frozen=True)
class ShapeScaleWeibull:
    """Classical (alpha, beta) parameter pair; alpha carries the time units."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _require_positive("alpha", self.alpha)
        _require_positive("beta", self.beta)


@dataclass(frozen=True)
class ReliableLifeWeibull:
    """Reliable-life pair (x_R, beta) at reliability level R.

    K is always derived from R rather than stored, so (x_R, R, K) can never
    drift out of sync.
    """

    x_R: float
    beta: float
    R: float

    def __post_init__(self) -> None:
        _require_positive("x_R", self.x_R)
        _require_positive("beta", self.beta)
        _log_inverse(self.R)

    @property
    def K(self) -> float:
        """ln(1/R), the survival exponent at x = x_R."""
        return _log_inverse(self.R)


def reliability(x: float, p: ReliableLifeWeibull) -> float:
    """Survival probability at time x >= 0."""
    if x < 0.0:
        raise ValueError("lifetimes are nonnegative")
    return math.exp(-p.K * (x / p.x_R) ** p.beta)


def density(x: float, p: ReliableLifeWeibull) -> float:
    """Probability density at time x.

    At x = 0 the limit is 0 for beta > 1 and K/x_R for beta = 1; for beta < 1
    the density diverges there, which is reported as an error.
    """
    if x < 0.0:
        raise ValueError("lifetimes are nonnegative")
    if x == 0.0:
        if p.beta > 1.0:
            return 0.0
        if p.beta == 1.0:
            return p.K / p.x_R
        raise ValueError("density is singular at x = 0 for shape beta < 1")
    z = x / p.x_R
    return (p.K * p.beta / p.x_R) * z ** (p.beta - 1.0) * math.exp(-p.K * z**p.beta)


def quantile(q: float, p: ReliableLifeWeibull) -> float:
    """Time at which the survival probability equals q; inverse of reliability."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"survival probability must lie in (0, 1), got {q!r}")
    return p.x_R * (math.log(1.0 / q) / p.K) ** (1.0 / p.beta)


def from_shape_scale(p: ShapeScaleWeibull, R: float) -> ReliableLifeWeibull:
    """Re-express a shape/scale pair through its reliable life at level R."""
    return ReliableLifeWeibull(x_R=p.alpha * _log_inverse(R) ** (1.0 / p.beta), beta=p.beta, R=R)


def to_shape_scale(p: ReliableLifeWeibull) -> ShapeScaleWeibull:
    """Inverse of :func:`from_shape_scale`."""
    return ShapeScaleWeibull(alpha=p.x_R * p.K ** (-1.0 / p.beta), beta=p.beta)


def sample(p: ReliableLifeWeibull, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. lifetimes by inverse transform on the supplied generator.

    Exactly one block of n uniforms is consumed, so the result is a pure
    function of the generator state, and scaling x_R rescales the draws
    without touching the stream.
    """
    _require_count("n", n, 1)
    return _inverse_transform(p, rng.random(n))


def _inverse_transform(p: ReliableLifeWeibull, u: np.ndarray) -> np.ndarray:
    """Lifetimes with survival probabilities u, uniforms in [0, 1) of any shape;
    u == 0, the only value below 2**-53, is read as the smallest normal double."""
    u = np.maximum(u, sys.float_info.min)
    return p.x_R * (np.log(1.0 / u) / p.K) ** (1.0 / p.beta)
