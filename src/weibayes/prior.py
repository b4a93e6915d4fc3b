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
(w + r, a**beta + K*S(beta)).  That update is written once, in
``posterior_conditional_params``, and so is the IGG density: ``_log_igg``
serves ``igg_pdf`` and the conditional factor of the joint posterior.

This module owns the package's one log-gamma, ``_lgamma``, written in numpy
alone: it lifts arguments below 12 by Gamma(x + 12) = x (x + 1) ... (x + 11)
Gamma(x) and sums the Stirling series there.  It is all the gamma function
the package needs, so no path loads scipy.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .censoring import CensoredSample
from .errors import ElicitationConstraintError, InputValidationError
from .weibull import _log_inverse

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
            if not (isinstance(self.value, numbers.Real) and 0.0 < self.value < math.inf):
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
        _log_inverse(self.R)
        _check_rule_admissible(self.w_rule, self.interval)

    @property
    def K(self) -> float:
        return _log_inverse(self.R)


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


# Arguments below _LIFT_TO are lifted into the Stirling range by the 12
# factors x + j; past the x**-9 term the series' next term, 691 / (360360 x**11),
# is below 3e-15 there.  The result is good to about 1e-14, absolute where
# |ln Gamma| <= 1 and relative elsewhere.
_LIFT_TO = 12.0
_LIFT = np.arange(_LIFT_TO)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# Denominator argument from which _log_gamma_ratio switches to its Stirling
# form.  Below it the plain log-gamma difference is kept bit for bit; that
# difference loses about eps * w * ln(w) to cancellation, which stays under
# 1e-13 below the cutoff but reaches 2e-3 at w = 1e12.
_STIRLING_FROM = 100.0


def _lgamma(x):
    """ln Gamma(x) for x > 0, elementwise."""
    x = np.asarray(x, dtype=float)
    lift = x < _LIFT_TO
    factors = np.where(lift, x, 1.0) + _LIFT.reshape((-1,) + (1,) * x.ndim)
    y = x + _LIFT_TO * lift
    t = 1.0 / y
    t2 = t * t
    series = t * (1.0 / 12 - t2 * (1.0 / 360 - t2 * (1.0 / 1260 - t2 * (1.0 / 1680 - t2 / 1188))))
    stirling = (y - 0.5) * np.log(y) - y + _HALF_LN_2PI + series
    return stirling - lift * np.log(np.multiply.reduce(factors))


def _log_gamma_ratio(w, d, plain=None):
    """ln(Gamma(w) / Gamma(w - d)) for w > d > 0, elementwise.

    ``plain`` is ln Gamma(w) - ln Gamma(w - d) when the caller has already
    evaluated both.  Once w - d >= _STIRLING_FROM both log-gammas take their
    Stirling series, whose difference d ln w - (w - d - 1/2) log1p(-d/w) - d
    + ... keeps the small terms apart instead of subtracting two numbers of
    size w ln w.
    """
    z = w - d
    if plain is None:
        lg = _lgamma(np.array((w, z)))
        plain = lg[0] - lg[1]
    big = np.asarray(z >= _STIRLING_FROM)
    if not big.any():
        return plain
    stirling = (
        d * np.log(w) - (z - 0.5) * np.log1p(-d / w) - d
        + (1.0 / w - 1.0 / z) / 12.0 - (1.0 / w**3 - 1.0 / z**3) / 360.0
    )
    return np.where(big, stirling, plain)


def _exp_in_range(log_value: float, what: str, **at: float) -> float:
    """exp(log_value), or a ValueError naming ``what`` and ``at`` where that is
    beyond the double range: an infinite value, or nan from terms that overflowed."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not value < math.inf:
        where = ", ".join(f"{name} = {v:.6g}" for name, v in at.items())
        verb = "exceeds" if value == math.inf else "has terms that exceed"
        raise ValueError(f"{what} {verb} the double range at {where}")
    return value


def hyper_a(xbar_R: float, w: float, beta: float) -> float:
    """Scale hyperparameter giving the IGG conditional mean xbar_R.

    a = xbar_R * Gamma(w) / Gamma(w - 1/beta); evaluated as the exponential of
    ln xbar_R plus a log-gamma ratio, so values survive w arbitrarily close to
    the 1/beta boundary, and w so large that Gamma(w) / Gamma(w - 1/beta)
    alone would overflow.
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
    return _exp_in_range(math.log(xbar_R) + float(_log_gamma_ratio(w, 1.0 / beta)),
                         "a = xbar_R * Gamma(w) / Gamma(w - 1/beta)", xbar_R=xbar_R, w=w, beta=beta)


def _log_igg(log_x, beta, w, log_a_beta, lgamma_w):
    """ln of the IGG density at ln x_R given ln(a**beta) and ln Gamma(w), elementwise;
    -inf, silently, where (x_R/a)**-beta is beyond the double range."""
    with np.errstate(over="ignore"):
        tail = np.exp(log_a_beta - beta * log_x)
        return np.log(beta) + w * log_a_beta - lgamma_w - (beta * w + 1.0) * log_x - tail


def igg_pdf(x_R: float, a: float, w: float, beta: float) -> float:
    """Inverted Generalized Gamma density at x_R > 0."""
    for name, v in (("x_R", x_R), ("a", a), ("w", w), ("beta", beta)):
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")
    # x_R / a at unit scale, then over a: the tail (x_R/a)**-beta comes from one log
    # difference; beta ln a - beta ln x_R loses up to 2.5e-12 relative far left
    log_a = math.log(a)
    with np.errstate(over="ignore", invalid="ignore"):  # the nan or inf is reported below
        log_pdf = float(_log_igg(math.log(x_R) - log_a, beta, w, 0.0, _lgamma(w))) - log_a
    return _exp_in_range(log_pdf, "the IGG density", x_R=x_R, a=a, w=w, beta=beta)


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
    return w + sample.r, a**beta + _log_inverse(R) * sample.stats.pow_sum(beta)


def prior_from_virtual_sample(v: VirtualSample, R: float, beta: float) -> tuple[float, float]:
    """Hyperparameters (w, a) equivalent to observing the virtual sample.

    The conjugate update of :func:`posterior_conditional_params` from the
    flat start w = 0, a = 0 (the density 1/x_R) by the virtual sample taken
    as complete data: w is the virtual failure count and a**beta = K * S'(beta).
    """
    if v.r_prime == 0:
        raise ValueError("virtual sample must contain at least one time")
    w, A = posterior_conditional_params(0.0, 0.0, CensoredSample.complete(v.times), beta, R)
    return w, A ** (1.0 / beta)


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


def prior_spec_from_dict(d) -> PriorSpec:
    """Build a PriorSpec from its JSON object form.

    The object carries beta1, beta2, xbar_R, R and a w_rule object
    {"kind": ..., "value": ...}.  Structural problems raise
    InputValidationError; a rule that breaks w > 1/beta on the interval
    raises ElicitationConstraintError.
    """
    check_fields(d, "prior specification", {"beta1", "beta2", "xbar_R", "R", "w_rule"})
    rule = d["w_rule"]
    check_fields(rule, "w_rule", {"kind"}, {"value"})
    try:
        interval = BetaInterval(float(d["beta1"]), float(d["beta2"]))
        return PriorSpec(interval=interval, xbar_R=float(d["xbar_R"]), R=float(d["R"]),
                         w_rule=WRule(rule["kind"], rule.get("value")))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputValidationError(str(exc)) from None


def load_prior_spec(path) -> PriorSpec:
    """Read a PriorSpec from a JSON file."""
    return prior_spec_from_dict(read_json(path))
