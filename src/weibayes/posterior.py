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
integration variable), so they are recomputed at every node.  Everything is
evaluated in log space by one kernel, ``_log_integrands``, which takes a
stack of m samples with the same failure count (ln times of shape (m, n),
ln P of shape (m,)) and returns the three log integrands at every node for
every sample.  Each integral is a composite Gauss-Legendre sum taken as a
log-sum-exp with the node maximum factored out, refined by panel doubling
until two successive estimates agree to the requested tolerance.  Refinement
is decided per sample: a sample that has converged leaves the stack, so it
stops at the same level, with the same node count, as it would alone.
:func:`estimate` is the one-sample case of :func:`estimate_many`, through
which the simulation harness passes all replications of a cell at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln

from .censoring import CensoredSample, logsumexp
from .errors import ElicitationConstraintError, PriorDominanceWarning, QuadratureConvergenceWarning
from .prior import PriorSpec

__all__ = [
    "QuadratureSettings",
    "PosteriorEstimate",
    "log_integrand",
    "integrate_Ih",
    "estimate",
    "estimate_many",
    "joint_posterior_pdf",
]

# Upper bound on the (samples, nodes, items) power-sum array built per kernel
# call; stacks are split into row blocks under it so that peak memory stays
# bounded when many samples refine to the finest panel layouts.
_KERNEL_BLOCK = 1 << 19


@dataclass(frozen=True)
class QuadratureSettings:
    """Panel layout and refinement policy for the shape integrals."""

    panels: int = 16
    nodes_per_panel: int = 10
    rel_tol: float = 1e-8
    max_refinements: int = 8

    def __post_init__(self) -> None:
        if self.panels < 1 or self.nodes_per_panel < 1 or self.max_refinements < 0:
            raise ValueError("panel counts and refinement limit must be positive")
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class PosteriorEstimate:
    """Point estimates plus the log-integral diagnostics that produced them."""

    x_R_tilde: float
    beta_tilde: float
    log_I: tuple[float, float, float]
    node_count: int
    converged: bool


_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    if count not in _leggauss_cache:
        _leggauss_cache[count] = leggauss(count)
    return _leggauss_cache[count]


def _sample_rows(sample: CensoredSample) -> tuple[np.ndarray, np.ndarray, int]:
    """One sample as a one-row stack: (ln times (1, n), ln P (1,), r)."""
    st = sample.stats
    return st.log_times[None, :], np.array([st.log_P]), st.r


def _log_a_and_A(
    betas: np.ndarray, spec: PriorSpec, log_times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w and ln a at the nodes, shape (k,), and ln A per sample, shape (m, k).

    Rejects nodes where the weight rule breaks w > 1/beta.
    """
    w = np.asarray(spec.w_rule(betas), dtype=float)
    margin = w - 1.0 / betas
    if np.any(margin <= 0.0):
        bad = float(betas[np.argmin(margin)])
        raise ElicitationConstraintError(
            f"weight rule violates w > 1/beta at beta = {bad:.6g} inside the integrand"
        )
    log_a = math.log(spec.xbar_R) + gammaln(w) - gammaln(w - 1.0 / betas)
    prior_part = betas * log_a
    if log_times.shape[1]:
        # ln S(beta) per sample; items on the leading axis keep the reduction elementwise
        log_S = logsumexp(log_times.T[:, :, None] * betas, axis=0)
        log_A = np.logaddexp(prior_part, math.log(spec.K) + log_S)
    else:
        log_A = np.broadcast_to(prior_part, (log_times.shape[0], betas.size))
    return w, log_a, log_A


def _log_integrands(
    betas: np.ndarray, spec: PriorSpec, log_times: np.ndarray, log_P: np.ndarray, r: int
) -> np.ndarray:
    """Log integrands of I_0, I_1, I_2, shape (3, m, k).

    ``betas`` holds k shape nodes; ``log_times`` (m, n) and ``log_P`` (m,)
    describe m samples that all have r failures.
    """
    w, log_a, log_A = _log_a_and_A(betas, spec, log_times)
    log_beta = np.log(betas)
    c0 = w + r
    c1 = c0 - 1.0 / betas  # positive because w > 1/beta
    base = (r * log_beta + betas * w * log_a - gammaln(w)) + log_P[:, None] * betas
    out = np.empty((3,) + log_A.shape, dtype=float)
    out[0] = base - c0 * log_A + gammaln(c0)
    out[1] = base - c1 * log_A + gammaln(c1)
    out[2] = out[0] + log_beta
    return out


def log_integrand(beta: float, h: int, spec: PriorSpec, sample: CensoredSample) -> float:
    """Log integrand of I_h at a single shape value."""
    if h not in (0, 1, 2):
        raise ValueError(f"h must be 0, 1 or 2, got {h!r}")
    return float(_log_integrands(np.array([float(beta)]), spec, *_sample_rows(sample))[h, 0, 0])


def _composite_log_integrals(
    spec: PriorSpec,
    log_times: np.ndarray,
    log_P: np.ndarray,
    r: int,
    panels: int,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Log composite Gauss-Legendre sums of I_0, I_1, I_2 per sample, shape (3, m)."""
    iv = spec.interval
    edges = np.linspace(iv.beta1, iv.beta2, panels + 1)
    half = 0.5 * (iv.beta2 - iv.beta1) / panels
    centers = 0.5 * (edges[:-1] + edges[1:])
    betas = (centers[:, None] + half * nodes[None, :]).ravel()
    log_w = np.tile(np.log(weights * half), panels)
    m, n = log_times.shape
    rows = max(1, _KERNEL_BLOCK // (betas.size * max(n, 1)))
    out = np.empty((3, m), dtype=float)
    for start in range(0, m, rows):
        block = slice(start, start + rows)
        logf = _log_integrands(betas, spec, log_times[block], log_P[block], r)
        out[:, block] = logsumexp(logf + log_w, axis=-1)
    return out


def _integrate_all(
    spec: PriorSpec, log_times: np.ndarray, log_P: np.ndarray, r: int, settings: QuadratureSettings
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log integrals (3, m), node counts (m,) and convergence flags (m,).

    Every sample refines until two successive panel layouts agree to
    ``rel_tol``; converged samples leave the active set.
    """
    nodes, weights = _gauss_nodes(settings.nodes_per_panel)
    panels = settings.panels
    current = _composite_log_integrals(spec, log_times, log_P, r, panels, nodes, weights)
    m = log_times.shape[0]
    node_count = np.full(m, panels * settings.nodes_per_panel)
    converged = np.zeros(m, dtype=bool)
    active = np.arange(m)
    for _ in range(settings.max_refinements):
        if active.size == 0:
            break
        panels *= 2
        refined = _composite_log_integrals(
            spec, log_times[active], log_P[active], r, panels, nodes, weights
        )
        node_count[active] += panels * settings.nodes_per_panel
        # log-value differences are relative differences of the integrals
        done = np.max(np.abs(refined - current[:, active]), axis=0) < settings.rel_tol
        current[:, active] = refined
        converged[active[done]] = True
        active = active[~done]
    return current, node_count, converged


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
            stacklevel=3,
        )


def integrate_Ih(
    h: int, spec: PriorSpec, sample: CensoredSample, settings: QuadratureSettings | None = None
) -> float:
    """Log of I_h over the shape interval; warns if refinement did not converge."""
    if h not in (0, 1, 2):
        raise ValueError(f"h must be 0, 1 or 2, got {h!r}")
    settings = settings or QuadratureSettings()
    log_I, _, converged = _integrate_all(spec, *_sample_rows(sample), settings)
    if not converged[0]:
        warnings.warn(
            f"integral I_{h} did not reach rel_tol = {settings.rel_tol:g} within "
            f"{settings.max_refinements} refinements",
            QuadratureConvergenceWarning,
            stacklevel=2,
        )
    return float(log_I[h, 0])


def _estimates(
    spec: PriorSpec, log_times: np.ndarray, log_P: np.ndarray, r: int, settings: QuadratureSettings
) -> list[PosteriorEstimate]:
    log_I, node_count, converged = _integrate_all(spec, log_times, log_P, r, settings)
    x_R = np.exp(log_I[1] - log_I[0])
    beta = np.exp(log_I[2] - log_I[0])
    return [
        PosteriorEstimate(
            x_R_tilde=float(x_R[i]),
            beta_tilde=float(beta[i]),
            log_I=(float(log_I[0, i]), float(log_I[1, i]), float(log_I[2, i])),
            node_count=int(node_count[i]),
            converged=bool(converged[i]),
        )
        for i in range(log_times.shape[0])
    ]


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
    settings = settings or QuadratureSettings()
    _warn_if_prior_dominant(spec, r)
    return _estimates(spec, log_times, log_P, r, settings)


def estimate(
    spec: PriorSpec, sample: CensoredSample, settings: QuadratureSettings | None = None
) -> PosteriorEstimate:
    """Posterior means of the reliable life and the shape, with diagnostics."""
    settings = settings or QuadratureSettings()
    _warn_if_prior_dominant(spec, sample.r)
    return _estimates(spec, *_sample_rows(sample), settings)[0]


def joint_posterior_pdf(
    x_R, beta, spec: PriorSpec, sample: CensoredSample, settings: QuadratureSettings | None = None
):
    """Joint posterior density at (x_R, beta); zero outside the shape interval.

    Accepts scalars or broadcastable arrays; the normalizing integral is
    computed once per call.
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
        w, log_a, log_A = _log_a_and_A(bi, spec, log_times)
        log_x = np.log(x[inside])
        with np.errstate(over="ignore"):
            log_num = (
                (r + 1.0) * np.log(bi)
                + bi * w * log_a
                - ((r + w) * bi + 1.0) * log_x
                + bi * log_P[0]
                - np.exp(log_A[0] - bi * log_x)
                - gammaln(w)
            )
        log_I, _, converged = _integrate_all(spec, log_times, log_P, r, settings)
        if not converged[0]:
            warnings.warn(
                "posterior normalization did not converge to the requested tolerance",
                QuadratureConvergenceWarning,
                stacklevel=2,
            )
        out[inside] = np.exp(log_num - log_I[0, 0])
    return float(out[()]) if scalar else out
