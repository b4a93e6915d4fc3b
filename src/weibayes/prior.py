"""Joint prior construction from technologist-facing inputs.

The joint prior is uniform on a shape interval [beta1, beta2] times an
Inverted Generalized Gamma (IGG) conditional density for the reliable life
given the shape:

    pdf(x_R | beta) = beta * a**(beta*w) / Gamma(w)
                      * x_R**(-(beta*w + 1)) * exp(-(x_R/a)**(-beta)).

The scale hyperparameter a is never asked of the user; it is derived from an
anticipated reliable life xbar_R through

    a = xbar_R * Gamma(w) / Gamma(w - 1/beta),        w > 1/beta,

which makes the conditional prior mean equal xbar_R for every shape value.
The weight w acts as a virtual failure count: combining the IGG prior with a
censored-sample likelihood just replaces (w, a**beta) with
(w + r, a**beta + K*S(beta)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .censoring import CensoredSample
from .errors import ElicitationConstraintError, InputValidationError

__all__ = [
    "BetaInterval",
    "WRule",
    "PriorSpec",
    "VirtualSample",
    "beta_prior_pdf",
    "hyper_a",
    "igg_pdf",
    "conditional_prior",
    "posterior_conditional_params",
    "prior_from_virtual_sample",
    "prior_spec_from_dict",
    "load_prior_spec",
]

CONST_OVER_BETA = "const_over_beta"
FIXED = "fixed"
UNIT = "unit"
PIECEWISE96 = "piecewise96"
_W_RULE_KINDS = (CONST_OVER_BETA, FIXED, UNIT, PIECEWISE96)


@dataclass(frozen=True)
class BetaInterval:
    """Anticipated shape interval, 0 < beta1 < beta2."""

    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta1) and math.isfinite(self.beta2)):
            raise ValueError("interval bounds must be finite")
        if not 0.0 < self.beta1 < self.beta2:
            raise ValueError(f"need 0 < beta1 < beta2, got [{self.beta1!r}, {self.beta2!r}]")

    @property
    def width(self) -> float:
        return self.beta2 - self.beta1

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.beta1 + self.beta2)


@dataclass(frozen=True)
class WRule:
    """Weight rule w(beta) for the IGG conditional prior.

    Variants:
      * const_over_beta(c):  w = c / beta
      * fixed(v):            w = v   (covers the 1/beta1 + 0.1 setting)
      * unit():              w = 1
      * piecewise96():       w = 1 for beta >= 1, else 1/beta**2
    """

    kind: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _W_RULE_KINDS:
            raise ValueError(f"unknown weight rule kind {self.kind!r}")
        if self.kind in (CONST_OVER_BETA, FIXED):
            if self.value is None or not (self.value > 0.0 and math.isfinite(self.value)):
                raise ValueError(f"rule {self.kind!r} needs a positive value, got {self.value!r}")
        elif self.value is not None:
            raise ValueError(f"rule {self.kind!r} takes no value")

    def __call__(self, beta):
        """Evaluate w at a scalar or array of shape values."""
        b = np.asarray(beta, dtype=float)
        if self.kind == CONST_OVER_BETA:
            w = self.value / b
        elif self.kind == FIXED:
            w = np.full_like(b, self.value)
        elif self.kind == UNIT:
            w = np.ones_like(b)
        else:
            w = np.where(b >= 1.0, 1.0, b**-2.0)
        return w if np.ndim(beta) else float(w)

    @classmethod
    def const_over_beta(cls, c: float) -> "WRule":
        return cls(CONST_OVER_BETA, float(c))

    @classmethod
    def fixed(cls, v: float) -> "WRule":
        return cls(FIXED, float(v))

    @classmethod
    def unit(cls) -> "WRule":
        return cls(UNIT)

    @classmethod
    def piecewise96(cls) -> "WRule":
        return cls(PIECEWISE96)


def _check_rule_admissible(rule: WRule, interval: BetaInterval) -> None:
    """Reject rules with w(beta) <= 1/beta anywhere on the interval.

    For every supported rule the margin w(beta) - 1/beta is <= 0 somewhere
    on [beta1, beta2] exactly when it is <= 0 at beta1 or at 1 clamped into
    the interval: const_over_beta has the sign of c - 1 throughout, fixed and
    unit margins increase with beta, and the piecewise96 margin is positive
    off beta = 1 and zero there.
    """
    lo, hi = interval.beta1, interval.beta2
    b = min((lo, min(max(1.0, lo), hi)), key=lambda beta: rule(beta) - 1.0 / beta)
    if rule(b) - 1.0 / b <= 0.0:
        raise ElicitationConstraintError(
            f"weight rule violates the constraint w > 1/beta at beta = {b:.6g} "
            f"(w = {rule(b):.6g}, 1/beta = {1.0 / b:.6g}); deriving the scale "
            "hyperparameter from an anticipated reliable life requires w(beta) > 1/beta "
            "on the whole shape interval"
        )


@dataclass(frozen=True)
class PriorSpec:
    """Everything needed to build the joint prior: shape interval, anticipated
    reliable life, reliability level, and a weight rule."""

    interval: BetaInterval
    xbar_R: float
    R: float
    w_rule: WRule

    def __post_init__(self) -> None:
        if not (self.xbar_R > 0.0 and math.isfinite(self.xbar_R)):
            raise ValueError(f"xbar_R must be positive and finite, got {self.xbar_R!r}")
        if not (0.0 < self.R < 1.0):
            raise ValueError(f"R must lie strictly inside (0, 1), got {self.R!r}")
        _check_rule_admissible(self.w_rule, self.interval)

    @property
    def K(self) -> float:
        return math.log(1.0 / self.R)


@dataclass(frozen=True)
class VirtualSample:
    """Fictitious complete sample standing in for the prior information."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        for t in self.times:
            if not (t > 0.0 and math.isfinite(t)):
                raise ValueError(f"virtual times must be positive and finite, got {t!r}")

    @property
    def r_prime(self) -> int:
        return len(self.times)


def beta_prior_pdf(beta: float, interval: BetaInterval) -> float:
    """Uniform shape prior: 1/(beta2 - beta1) inside the interval, else 0."""
    if interval.beta1 <= beta <= interval.beta2:
        return 1.0 / interval.width
    return 0.0


def hyper_a(xbar_R: float, w: float, beta: float) -> float:
    """Scale hyperparameter giving the IGG conditional mean xbar_R.

    a = xbar_R * Gamma(w) / Gamma(w - 1/beta); evaluated through a log-gamma
    difference so values survive w arbitrarily close to the 1/beta boundary.
    """
    if not (xbar_R > 0.0 and math.isfinite(xbar_R)):
        raise ValueError(f"xbar_R must be positive and finite, got {xbar_R!r}")
    if not (beta > 0.0 and 0.0 < w < math.inf):
        raise ValueError("w must be positive and finite, and beta positive")
    if w <= 1.0 / beta:
        raise ElicitationConstraintError(
            f"the anticipated-reliable-life conversion requires w > 1/beta; "
            f"got w = {w:.6g} <= 1/beta = {1.0 / beta:.6g} at beta = {beta:.6g}"
        )
    return xbar_R * math.exp(gammaln(w) - gammaln(w - 1.0 / beta))


def igg_pdf(x_R: float, a: float, w: float, beta: float) -> float:
    """Inverted Generalized Gamma density at x_R > 0."""
    for name, v in (("x_R", x_R), ("a", a), ("w", w), ("beta", beta)):
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")
    log_pdf = (
        math.log(beta)
        + beta * w * math.log(a)
        - gammaln(w)
        - (beta * w + 1.0) * math.log(x_R)
        - math.exp(-beta * (math.log(x_R) - math.log(a)))
    )
    return math.exp(log_pdf)


def conditional_prior(spec: PriorSpec, beta: float) -> tuple[float, float]:
    """Hyperparameters (w, a) of the conditional prior at a given shape."""
    if not spec.interval.beta1 <= beta <= spec.interval.beta2:
        raise ValueError(
            f"beta = {beta!r} lies outside the prior interval "
            f"[{spec.interval.beta1!r}, {spec.interval.beta2!r}]"
        )
    w = spec.w_rule(beta)
    return w, hyper_a(spec.xbar_R, w, beta)


def posterior_conditional_params(
    w: float, a: float, sample: CensoredSample, beta: float, R: float
) -> tuple[float, float]:
    """Conjugate update: (w, a**beta) -> (w + r, a**beta + K*S(beta)).

    The second element is the updated value of a**beta (call it A), not a
    itself; the updated scale is A**(1/beta).
    """
    K = math.log(1.0 / R)
    return w + sample.r, a**beta + K * sample.stats.pow_sum(beta)


def prior_from_virtual_sample(v: VirtualSample, R: float, beta: float) -> tuple[float, float]:
    """Hyperparameters (w, a) equivalent to observing the virtual sample.

    w equals the virtual failure count and a**beta = K * S'(beta), i.e. the
    prior is what a flat 1/x_R starting point becomes after absorbing the
    virtual data.
    """
    if v.r_prime == 0:
        raise ValueError("virtual sample must contain at least one time")
    K = math.log(1.0 / R)
    s_prime = sum(t**beta for t in sorted(v.times))
    return float(v.r_prime), (K * s_prime) ** (1.0 / beta)


def read_json(path):
    """Parse a JSON file; malformed JSON raises InputValidationError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputValidationError(f"{path}: invalid JSON ({exc})") from None


def check_fields(d, what: str, required: set, optional: set = frozenset()) -> None:
    """Reject anything but a JSON object with every required field and no unknown one."""
    if not isinstance(d, dict):
        raise InputValidationError(f"{what} must be a JSON object")
    missing = required - set(d)
    if missing:
        raise InputValidationError(f"{what} is missing fields: {sorted(missing)}")
    unknown = set(d) - required - optional
    if unknown:
        raise InputValidationError(f"{what} has unknown fields: {sorted(unknown)}")


def _w_rule_from_dict(d) -> WRule:
    check_fields(d, "w_rule", {"kind"}, {"value"})
    try:
        return WRule(d["kind"], d.get("value"))
    except ValueError as exc:
        raise InputValidationError(str(exc)) from None


def prior_spec_from_dict(d) -> PriorSpec:
    """Build a PriorSpec from its JSON object form.

    The object carries beta1, beta2, xbar_R, R and a w_rule object
    {"kind": ..., "value": ...}.  Structural problems raise
    InputValidationError; a rule that breaks w > 1/beta on the interval
    raises ElicitationConstraintError.
    """
    check_fields(d, "prior specification", {"beta1", "beta2", "xbar_R", "R", "w_rule"})
    rule = _w_rule_from_dict(d["w_rule"])
    try:
        interval = BetaInterval(float(d["beta1"]), float(d["beta2"]))
        return PriorSpec(interval=interval, xbar_R=float(d["xbar_R"]), R=float(d["R"]), w_rule=rule)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputValidationError(str(exc)) from None


def load_prior_spec(path) -> PriorSpec:
    """Read a PriorSpec from a JSON file."""
    return prior_spec_from_dict(read_json(path))
