"""Posterior-mean estimation of (x_R, beta) by quadrature over the shape.

For a censored sample the reliable life integrates out of the joint posterior
in closed form, leaving three one-dimensional integrals over the shape
interval:

    I_h = integral over [beta1, beta2] of
          beta**r_h * a**(beta*w) * P**beta * A**(-(r + w - m_h))
          * Gamma(r + w - m_h) / Gamma(w)  d beta,

with A = a**beta + K*S(beta), r_0 = r_1 = r, r_2 = r + 1, m_0 = m_2 = 0 and
m_1 = 1/beta.  The posterior means are then x_R ~ I_1/I_0 and beta ~ I_2/I_0.
The A exponent is negative: that is the only sign under which the h = 0
integral normalizes the joint posterior and the no-data case collapses to the
prior mean and prior midpoint (both covered by tests).

Both w and a are functions of beta (the weight rule is evaluated at the
integration variable), so they are recomputed at every node, with one
log-gamma pass over w, w - 1/beta, w + r and w + r - 1/beta that serves both
a = xbar_R Gamma(w) / Gamma(w - 1/beta) and the Gamma ratios above; its cost
does not grow with the failure count r.  Everything is evaluated in log space
by one kernel, ``_log_integrands``, which takes a stack of m samples with the
same failure count (ln times of shape (m, n), ln P of shape (m,)) and returns
the three log integrands at every node for every sample.  The nodes may be
shared by the stack or differ per sample; shared nodes get w, the log-gammas
and ln a, which depend on beta and the prior alone, once for the whole stack.
The kernel does not test w > 1/beta: building the PriorSpec proved it on the
shape interval, which holds every node; :func:`log_integrand` checks its beta.

Each integral is a sum of Gauss-Kronrod (G10/K21) panels taken in log space
with the node maximum factored out.  A sample starts with one 21-node panel
over the whole interval and bisects its worst panel, in QUADPACK QAG style,
until the estimated relative error of each log integral, the summed
|K - G| of its panels over the Kronrod total, is below ``rel_tol``, or until
it reaches the panel cap.  The decision is per sample: a sample that has
converged leaves the stack, so it stops with the same panels, and the same
node count, as it would alone.  Samples that bisect the same panel, as all do
in the first bisection, share its nodes and their prior-side terms.
One private core runs a stack of samples and returns per-sample arrays:
the simulation harness masks them for all replications of a cell at once,
:func:`estimate_many` turns each row into a :class:`PosteriorEstimate`, and
:func:`estimate` is the same core on a one-row stack.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .censoring import CensoredSample, log_pow_sums, logsumexp
from .errors import ElicitationConstraintError, PriorDominanceWarning, QuadratureConvergenceWarning
from .prior import PriorSpec, _lgamma, _log_gamma_ratio, _log_igg

__all__ = [
    "QuadratureSettings",
    "PosteriorEstimate",
    "log_integrand",
    "integrate_Ih",
    "estimate",
    "estimate_many",
    "joint_posterior_pdf",
]

# Gauss-Kronrod pair on [-1, 1] (QUADPACK qk21, Piessens et al. 1983): the
# Kronrod nodes from 1 down to the centre with their 21-point weights, and the
# 10-point Gauss weights of the nodes at odd positions, which are the Gauss
# nodes.  Both rules share every evaluation.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077734318030685, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _gk21() -> tuple[np.ndarray, np.ndarray]:
    """The 21 nodes, ascending, and weights (2, 21): Kronrod, Kronrod minus Gauss."""
    half_gauss = np.zeros(11)
    half_gauss[1::2] = _WG
    nodes = np.concatenate([-np.array(_XGK), _XGK[-2::-1]])
    kronrod = np.concatenate([_WGK, _WGK[-2::-1]])
    gauss = np.concatenate([half_gauss, half_gauss[-2::-1]])
    return nodes, np.stack([kronrod, kronrod - gauss])


_GK_NODES, _GK_WEIGHTS = _gk21()
# directions from a bisected panel's centre to the centres of its halves
_SIDES = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class QuadratureSettings:
    """Error target and panel cap of the adaptive shape integrals.

    ``rel_tol`` bounds the estimated relative error of each log integral;
    a sample that has not met it with ``max_panels`` panels is reported as
    not converged.  The default cap allows at most 4,179 nodes per sample.
    """

    rel_tol: float = 1e-8
    max_panels: int = 100

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")
        if self.max_panels < 1:
            raise ValueError("max_panels must be at least 1")


@dataclass(frozen=True)
class PosteriorEstimate:
    """Point estimates plus the log-integral diagnostics that produced them.

    ``error_estimate`` is the largest, over the three integrals, of the
    summed |Kronrod - Gauss| differences relative to the Kronrod total.
    """

    x_R_tilde: float
    beta_tilde: float
    log_I: tuple[float, float, float]
    node_count: int
    error_estimate: float
    converged: bool


def _sample_rows(sample: CensoredSample) -> tuple[np.ndarray, np.ndarray, int]:
    """One sample as a one-row stack: (ln times (1, n), ln P (1,), r)."""
    st = sample.stats
    return st.log_times[None, :], np.array([st.log_P]), st.r


def _log_a_and_A(
    betas: np.ndarray, spec: PriorSpec, log_times: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """w, ln Gamma, ln a at the nodes, and ln A per sample, shape (m, k).

    ``betas`` holds k nodes shared by every sample, shape (k,), or k nodes
    per sample, shape (m, k); w and ln a take its shape.  ln Gamma, shape
    (4,) + w.shape, is one pass over w, w - 1/beta, w + r and
    w + r - 1/beta, so its cost does not grow with the failure count r.
    The nodes must keep w > 1/beta, as every node in ``spec.interval`` does.
    """
    w = np.asarray(spec.w_rule(betas), dtype=float)
    inv_beta = 1.0 / betas
    c0 = w + r
    lg = _lgamma(np.array((w, w - inv_beta, c0, c0 - inv_beta)))
    log_a = math.log(spec.xbar_R) + _log_gamma_ratio(w, inv_beta, lg[0] - lg[1])
    log_A = np.logaddexp(betas * log_a, math.log(spec.K) + log_pow_sums(log_times, betas))
    return w, lg, log_a, log_A


def _log_integrands(
    betas: np.ndarray, spec: PriorSpec, log_times: np.ndarray, log_P: np.ndarray, r: int
) -> np.ndarray:
    """Log integrands of I_0, I_1, I_2, shape (3, m, k).

    ``betas`` holds k shape nodes, shape (k,) or (m, k); ``log_times``
    (m, n) and ``log_P`` (m,) describe m samples that all have r failures.
    """
    w, lg, log_a, log_A = _log_a_and_A(betas, spec, log_times, r)
    log_beta = np.log(betas)
    c0 = w + r
    c1 = c0 - 1.0 / betas  # positive because w > 1/beta
    base = (r * log_beta + betas * w * log_a - lg[0]) + log_P[:, None] * betas
    out = np.empty((3,) + log_A.shape, dtype=float)
    out[0] = base - c0 * log_A + lg[2]
    out[1] = base - c1 * log_A + lg[3]
    out[2] = out[0] + log_beta
    return out


def log_integrand(beta: float, h: int, spec: PriorSpec, sample: CensoredSample) -> float:
    """Log integrand of I_h at a single shape value, where w(beta) > 1/beta."""
    if h not in (0, 1, 2):
        raise ValueError(f"h must be 0, 1 or 2, got {h!r}")
    b = np.float64(beta)
    if spec.w_rule(b) - 1.0 / b <= 0.0:
        raise ElicitationConstraintError(
            f"weight rule violates w > 1/beta at beta = {b:.6g} inside the integrand"
        )
    return float(_log_integrands(np.array([b]), spec, *_sample_rows(sample))[h, 0, 0])


def _panel_log_sums(logf: np.ndarray, half: np.ndarray) -> np.ndarray:
    """ln K and ln |K - G| of GK21 panels, shape (2,) + logf.shape[:-1].

    ``logf`` holds the log integrand at the 21 nodes of each panel on its
    last axis; ``half`` is the panels' half-width, broadcast against
    logf.shape[:-1].
    """
    peak = logf.max(axis=-1)
    peak[~np.isfinite(peak)] = 0.0
    # an explicit sum over the last axis, not a matmul: a row's sums do not depend on the stack size
    weights = _GK_WEIGHTS.reshape((2,) + (1,) * (logf.ndim - 1) + (21,))
    sums = (np.exp(logf - peak[..., None]) * weights).sum(axis=-1)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(sums)) + (peak + np.log(half))


def _integrate(
    spec: PriorSpec, log_times: np.ndarray, log_P: np.ndarray, r: int, settings: QuadratureSettings
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log integrals (3, m), node counts (m,) and error estimates (m,).

    Every sample starts with one GK21 panel over the shape interval.  Its
    error estimate is the largest over h of sum |K_p - G_p| / sum K_p over
    its panels.  A sample leaves the stack once that is below ``rel_tol`` or
    it has ``max_panels`` panels; otherwise it bisects the panel with the
    largest |K_p - G_p| relative to its total.  All samples still on the
    stack have the same panel count, so each step evaluates 2 x 21 nodes per
    sample and the state is two rectangular tables: ``sums`` (2, 3, rows,
    panels) of ln K_p and ln |K_p - G_p|, whose one log-sum-exp per round
    gives both totals, and ``panel`` (2, rows, panels) of centres and
    half-widths.  When every sample bisects the same panel, the step passes
    those 42 nodes once, shape (42,), so the kernel's prior-side terms are
    computed once for the stack.
    """
    iv = spec.interval
    m = log_times.shape[0]
    panel = np.full((2, m, 1), [[[iv.midpoint]], [[0.5 * iv.width]]])
    logf = _log_integrands(iv.midpoint + 0.5 * iv.width * _GK_NODES, spec, log_times, log_P, r)
    sums = _panel_log_sums(logf[:, :, None, :], panel[1])
    del logf  # no kernel call below holds the node values of an earlier round
    log_I = np.empty((3, m))
    node_count = np.empty(m, dtype=int)
    error = np.empty(m)
    rows = np.arange(m)
    for panels in range(1, settings.max_panels + 1):
        total, log_err = logsumexp(sums, axis=-1)
        err = np.exp((log_err - total).max(axis=0))
        done = (err < settings.rel_tol) | (panels == settings.max_panels)
        if done.any():
            log_I[:, rows[done]] = total[:, done]
            node_count[rows[done]] = 21 * (2 * panels - 1)
            error[rows[done]] = err[done]
            if done.all():
                break
            go = ~done
            rows, panel, sums, total = rows[go], panel[:, go], sums[:, :, go], total[:, go]
        worst = (sums[1] - total[:, :, None]).max(axis=0).argmax(axis=-1)
        at = np.arange(rows.size)
        mid, half = panel[:, at, worst]
        quarter = 0.5 * half
        centers = mid[:, None] + quarter[:, None] * _SIDES
        betas = (centers[:, :, None] + quarter[:, None, None] * _GK_NODES).reshape(rows.size, 42)
        if rows.size > 1 and (quarter == quarter[0]).all() and (centers == centers[0]).all():
            betas = betas[0]  # one panel for all rows: its prior-side terms are computed once
        logf = _log_integrands(betas, spec, log_times[rows], log_P[rows], r)
        halves = _panel_log_sums(logf.reshape(3, rows.size, 2, 21), quarter[:, None])
        del logf
        panel[:, at, worst] = centers[:, 0], quarter
        sums[:, :, at, worst] = halves[..., 0]
        panel = np.concatenate([panel, np.array([centers[:, 1:], quarter[:, None]])], axis=-1)
        sums = np.concatenate([sums, halves[..., 1:]], axis=-1)
    return log_I, node_count, error


def _warn_if_prior_dominant(spec: PriorSpec, r: int) -> None:
    if r == 0:
        return
    # every supported weight rule is nonincreasing in beta, so w peaks at beta1
    w_max = spec.w_rule(spec.interval.beta1)
    if w_max >= r:
        warnings.warn(
            f"prior weight w reaches {w_max:.3g} >= r = {r} failures; "
            "the prior may dominate what the sample can contribute",
            PriorDominanceWarning,
            stacklevel=4,  # past the core and the public function to their caller
        )


def _sample_log_I(
    spec: PriorSpec, sample: CensoredSample, settings: QuadratureSettings, what: str
) -> np.ndarray:
    """Log integrals (3,) of one sample; warns, naming ``what``, if they missed ``rel_tol``."""
    log_I, _, error = _integrate(spec, *_sample_rows(sample), settings)
    if not error[0] < settings.rel_tol:
        warnings.warn(
            f"{what} reached an estimated relative error of {error[0]:.3g}, not "
            f"rel_tol = {settings.rel_tol:g}, with the cap of {settings.max_panels} panels",
            QuadratureConvergenceWarning,
            stacklevel=3,
        )
    return log_I[:, 0]


def integrate_Ih(
    h: int, spec: PriorSpec, sample: CensoredSample, settings: QuadratureSettings | None = None
) -> float:
    """Log of I_h over the shape interval; warns if it missed the tolerance."""
    if h not in (0, 1, 2):
        raise ValueError(f"h must be 0, 1 or 2, got {h!r}")
    return float(_sample_log_I(spec, sample, settings or QuadratureSettings(), f"integral I_{h}")[h])


def _posterior_stack(
    spec: PriorSpec, log_times: np.ndarray, log_P: np.ndarray, r: int, settings: QuadratureSettings | None
) -> tuple[np.ndarray, ...]:
    """The posterior core on a stack of m samples with r failures: arrays
    (x_R_tilde, beta_tilde, log_I (3, m), node_count, error_estimate, converged)."""
    settings = settings or QuadratureSettings()
    _warn_if_prior_dominant(spec, r)
    log_I, node_count, error = _integrate(spec, log_times, log_P, r, settings)
    x_R, beta = np.exp(log_I[1:] - log_I[0])
    return x_R, beta, log_I, node_count, error, error < settings.rel_tol


def _records(x_R, beta, log_I, node_count, error, converged) -> list[PosteriorEstimate]:
    """The core's arrays as one PosteriorEstimate of built-in numbers per sample."""
    rows = zip(x_R.tolist(), beta.tolist(), map(tuple, log_I.T.tolist()),
               node_count.tolist(), error.tolist(), converged.tolist())
    return [PosteriorEstimate(*row) for row in rows]


def estimate_many(
    spec: PriorSpec,
    log_times: np.ndarray,
    log_P: np.ndarray,
    r: int,
    settings: QuadratureSettings | None = None,
) -> list[PosteriorEstimate]:
    """Posterior estimates for a stack of samples that all have r failures.

    Row i of ``log_times`` (m, n) holds sample i's ln times (failed and
    censored) and ``log_P[i]`` the sum of its ln failure times.  With rows
    sorted ascending, as ``CensoredSample.stats`` keeps them, entry i equals
    what :func:`estimate` returns for that sample alone.
    """
    log_times = np.asarray(log_times, dtype=float)
    log_P = np.asarray(log_P, dtype=float)
    if log_times.ndim != 2 or log_P.shape != log_times.shape[:1]:
        raise ValueError(
            f"need log_times of shape (m, n) and log_P of shape (m,), got "
            f"{log_times.shape} and {log_P.shape}"
        )
    return _records(*_posterior_stack(spec, log_times, log_P, r, settings))


def estimate(
    spec: PriorSpec, sample: CensoredSample, settings: QuadratureSettings | None = None
) -> PosteriorEstimate:
    """Posterior means of the reliable life and the shape, with diagnostics."""
    return _records(*_posterior_stack(spec, *_sample_rows(sample), settings))[0]


def joint_posterior_pdf(
    x_R, beta, spec: PriorSpec, sample: CensoredSample, settings: QuadratureSettings | None = None
):
    """Joint posterior density at (x_R, beta); zero outside the shape interval.

    The shape marginal f_0(beta) / I_0, where f_0 is the integrand of I_0,
    times the conditional density of x_R given beta: the IGG density with
    the updated (w + r, A = a**beta + K*S(beta)).  Accepts scalars or
    broadcastable arrays; the normalizing integral is computed once per call.
    """
    settings = settings or QuadratureSettings()
    scalar = np.ndim(x_R) == 0 and np.ndim(beta) == 0
    x = np.asarray(x_R, dtype=float)
    b = np.asarray(beta, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("x_R must be positive")
    x, b = np.broadcast_arrays(x, b)
    iv = spec.interval
    inside = (b >= iv.beta1) & (b <= iv.beta2)
    out = np.zeros(b.shape, dtype=float)
    if np.any(inside):
        bi = b[inside]
        log_times, log_P, r = _sample_rows(sample)
        w, lg, _, log_A = _log_a_and_A(bi, spec, log_times, r)
        log_f0 = _log_integrands(bi, spec, log_times, log_P, r)[0, 0]
        log_I0 = _sample_log_I(spec, sample, settings, "posterior normalization")[0]
        out[inside] = np.exp(log_f0 - log_I0 + _log_igg(np.log(x[inside]), bi, w + r, log_A[0], lg[2]))
    return float(out[()]) if scalar else out
