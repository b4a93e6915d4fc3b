"""Censored-data maximum likelihood for the Weibull model, plus the
shape-unbiasing factor.

The shape estimate solves the profile score

    g(beta) = mean of ln x over failures + 1/beta
              - sum(x_i**beta * ln x_i) / sum(x_i**beta)      (sums over all items)

which is strictly decreasing with a unique root whenever there are at least
two failures with some spread.  The scale follows as alpha = (S(beta)/r)**(1/beta)
and the reliable life as x_R = alpha * K**(1/beta).

Because the distribution of beta_hat/beta does not depend on the true
parameters, the multiplicative unbiasing factor B with E[B*beta_hat] = beta
depends only on (n, r); it is calibrated by Monte Carlo on the unit
exponential and can be cached on disk keyed by (n, r, replications, seed).
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .censoring import CensoredSample, type2_log_times
from .errors import NoFiniteMleError

__all__ = [
    "CACHE_FIELDS",
    "MleResult",
    "UnbiasingEntry",
    "profile_equation",
    "fit",
    "fit_many",
    "calibrate_B",
    "unbiased_beta",
    "read_calibration_cache",
    "append_calibration_cache",
]

# |g(beta_hat)| below this counts as converged
G_TOL = 1e-10
_BISECT_STEPS = 45
_NEWTON_STEPS = 5
_BRACKET_LO = 1e-3
_BRACKET_HI = 1e2
_BRACKET_LO_MIN = 1e-6
_BRACKET_HI_MAX = 1e6


@dataclass(frozen=True)
class MleResult:
    alpha_hat: float
    beta_hat: float
    x_R_hat: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class UnbiasingEntry:
    """Calibrated unbiasing factor B for the shape MLE at a given (n, r)."""

    n: int
    r: int
    B: float
    replications: int
    std_error: float
    seed: int


def _score_terms(betas: np.ndarray, log_times: np.ndarray):
    """Stable power-weighted averages of ln x; betas (N,), log_times (N, n)."""
    t = betas[:, None] * log_times
    t -= t.max(axis=1, keepdims=True)
    e = np.exp(t)
    denom = e.sum(axis=1)
    ratio = (e * log_times).sum(axis=1) / denom
    ratio2 = (e * log_times * log_times).sum(axis=1) / denom
    return ratio, ratio2


def _g_many(betas: np.ndarray, log_times: np.ndarray, mean_log_fail: np.ndarray) -> np.ndarray:
    ratio, _ = _score_terms(betas, log_times)
    return mean_log_fail + 1.0 / betas - ratio


def _fit_shape_many(log_times: np.ndarray, mean_log_fail: np.ndarray):
    """Vectorized profile-score root solve.

    Returns (beta_hat, g_at_root, iterations, has_root).  Rows without a sign
    change after bracket expansion are flagged instead of clamped.
    """
    count = log_times.shape[0]
    lo = np.full(count, _BRACKET_LO)
    hi = np.full(count, _BRACKET_HI)
    g_lo = _g_many(lo, log_times, mean_log_fail)
    g_hi = _g_many(hi, log_times, mean_log_fail)
    for _ in range(4):  # 1e2 -> 1e6
        grow = (g_hi >= 0.0) & (hi < _BRACKET_HI_MAX)
        if not grow.any():
            break
        hi[grow] *= 10.0
        g_hi[grow] = _g_many(hi[grow], log_times[grow], mean_log_fail[grow])
    for _ in range(3):  # 1e-3 -> 1e-6
        shrink = (g_lo <= 0.0) & (lo > _BRACKET_LO_MIN)
        if not shrink.any():
            break
        lo[shrink] /= 10.0
        g_lo[shrink] = _g_many(lo[shrink], log_times[shrink], mean_log_fail[shrink])
    has_root = (g_lo > 0.0) & (g_hi < 0.0)

    # bisection on ln(beta) down to ~1e-13 relative width
    llo = np.log(lo)
    lhi = np.log(hi)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (llo + lhi)
        positive = _g_many(np.exp(mid), log_times, mean_log_fail) > 0.0
        llo = np.where(positive, mid, llo)
        lhi = np.where(positive, lhi, mid)
    beta = np.exp(0.5 * (llo + lhi))

    iterations = _BISECT_STEPS
    g = _g_many(beta, log_times, mean_log_fail)
    for _ in range(_NEWTON_STEPS):
        active = np.abs(g) > 1e-13
        if not active.any():
            break
        ratio, ratio2 = _score_terms(beta, log_times)
        g_prime = -1.0 / beta**2 - (ratio2 - ratio * ratio)
        step = np.where(active, g / g_prime, 0.0)
        candidate = beta - step
        beta = np.where(candidate > 0.0, candidate, beta)
        g = _g_many(beta, log_times, mean_log_fail)
        iterations += 1
    return beta, g, iterations, has_root


def _validate_admissible(sample: CensoredSample) -> None:
    fails = sample.failure_times
    if len(fails) < 2:
        raise NoFiniteMleError(
            f"no finite maximum-likelihood estimate: need at least 2 failures, got {len(fails)}"
        )
    if max(fails) <= min(fails):
        raise NoFiniteMleError(
            "no finite maximum-likelihood estimate: all failure times coincide"
        )


def profile_equation(beta: float, sample: CensoredSample) -> float:
    """Profile score g(beta); strictly decreasing with a unique root."""
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    _validate_admissible(sample)
    log_times = np.log(np.asarray(sample.times, dtype=float))[None, :]
    mlf = np.array([float(np.mean([math.log(t) for t in sample.failure_times]))])
    return float(_g_many(np.array([beta]), log_times, mlf)[0])


def fit(sample: CensoredSample, R: float) -> MleResult:
    """Maximum-likelihood fit of (alpha, beta) and the implied reliable life."""
    if not (0.0 < R < 1.0):
        raise ValueError(f"R must lie strictly inside (0, 1), got {R!r}")
    _validate_admissible(sample)
    log_times = np.log(np.asarray(sample.times, dtype=float))[None, :]
    mlf = np.array([float(np.mean([math.log(t) for t in sample.failure_times]))])
    beta, g, iterations, has_root = _fit_shape_many(log_times, mlf)
    if not bool(has_root[0]):
        raise NoFiniteMleError(
            "no finite maximum-likelihood estimate: profile score has no sign change "
            f"on [{_BRACKET_LO_MIN:g}, {_BRACKET_HI_MAX:g}]"
        )
    beta_hat = float(beta[0])
    st = sample.stats
    log_alpha = (st.log_pow_sum(beta_hat) - math.log(st.r)) / beta_hat
    log_x_R = log_alpha + math.log(math.log(1.0 / R)) / beta_hat
    try:
        alpha_hat, x_R_hat = math.exp(log_alpha), math.exp(log_x_R)
    except OverflowError:
        raise NoFiniteMleError(
            f"no finite maximum-likelihood estimate: at beta_hat = {beta_hat:.6g} the scale "
            f"estimate exp({max(log_alpha, log_x_R):.6g}) exceeds the double range"
        ) from None
    return MleResult(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        x_R_hat=x_R_hat,
        iterations=iterations,
        converged=bool(abs(g[0]) <= G_TOL),
    )


def fit_many(sorted_times: np.ndarray, r: int, R: float):
    """Vectorized fit on rows of sorted complete samples censored at r.

    Returns (beta_hat, x_R_hat, ok) where ok marks rows with a finite,
    converged estimate; a row whose x_R_hat overflows is not ok.  Used by the
    calibration and the simulation harness; row i is computed exactly as
    ``fit`` would compute it alone.
    """
    sorted_times = np.asarray(sorted_times, dtype=float)
    n = sorted_times.shape[1]
    if not 2 <= r <= n:
        raise ValueError(f"need 2 <= r <= n = {n}, got r = {r}")
    log_times = type2_log_times(sorted_times, r)
    mlf = np.log(sorted_times[:, :r]).mean(axis=1)
    spread = sorted_times[:, r - 1] > sorted_times[:, 0]
    beta, g, _, has_root = _fit_shape_many(log_times, mlf)
    ok = spread & has_root & (np.abs(g) <= G_TOL)
    t = beta[:, None] * log_times
    m = t.max(axis=1)
    log_S = m + np.log(np.exp(t - m[:, None]).sum(axis=1))
    log_alpha = (log_S - math.log(r)) / beta
    K = math.log(1.0 / R)
    with np.errstate(over="ignore"):
        x_R_hat = np.exp(log_alpha + math.log(K) / beta)
    return beta, x_R_hat, ok & np.isfinite(x_R_hat)


def calibrate_B(
    n: int, r: int, replications: int, seed: int, cache_path=None
) -> UnbiasingEntry:
    """Monte Carlo calibration of the unbiasing factor B = 1/E[beta_hat/beta].

    Samples come from the unit exponential (Weibull with shape 1, scale 1);
    by pivotality of beta_hat/beta the result holds for every generating
    parameter pair.  The standard error is the delta-method propagation of
    the Monte Carlo error of the mean.  When ``cache_path`` is given, a row
    keyed by (n, r, replications, seed) is reused if present and appended
    otherwise.
    """
    if r < 2:
        raise ValueError("calibration needs r >= 2")
    if r > n:
        raise ValueError(f"need r <= n, got r = {r}, n = {n}")
    if replications < 10**4:
        raise ValueError("calibration needs at least 1e4 replications")
    seed = int(seed)
    if cache_path is not None and os.path.exists(cache_path):
        cached = read_calibration_cache(cache_path).get((n, r, int(replications), seed))
        if cached is not None:
            return cached
    rng = np.random.default_rng([seed, n, r])
    draws = np.sort(rng.standard_exponential((int(replications), n)), axis=1)
    beta_hat, _, ok = fit_many(draws, r, R=0.5)  # R is irrelevant to beta_hat
    if not ok.all():
        warnings.warn(
            f"excluded {int((~ok).sum())} degenerate replications from the calibration mean",
            stacklevel=2,
        )
        beta_hat = beta_hat[ok]
    mean = float(beta_hat.mean())
    std_error = float(beta_hat.std(ddof=1) / (math.sqrt(beta_hat.size) * mean**2))
    entry = UnbiasingEntry(
        n=int(n), r=int(r), B=1.0 / mean, replications=int(replications),
        std_error=std_error, seed=seed,
    )
    if cache_path is not None:
        append_calibration_cache(cache_path, entry)
    return entry


def unbiased_beta(
    beta_hat: float, entry: UnbiasingEntry, *, n: int | None = None, r: int | None = None
) -> float:
    """B * beta_hat; optionally checks the entry against the sample's (n, r)."""
    if n is not None and n != entry.n:
        raise ValueError(f"unbiasing entry is for n = {entry.n}, sample has n = {n}")
    if r is not None and r != entry.r:
        raise ValueError(f"unbiasing entry is for r = {entry.r}, sample has r = {r}")
    return entry.B * beta_hat


CACHE_FIELDS = ("n", "r", "B", "replications", "std_error", "seed")


def read_calibration_cache(path) -> dict[tuple[int, int, int, int], UnbiasingEntry]:
    entries: dict[tuple[int, int, int, int], UnbiasingEntry] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            entry = UnbiasingEntry(
                n=int(row["n"]),
                r=int(row["r"]),
                B=float(row["B"]),
                replications=int(row["replications"]),
                std_error=float(row["std_error"]),
                seed=int(row["seed"]),
            )
            entries[(entry.n, entry.r, entry.replications, entry.seed)] = entry
    return entries


def append_calibration_cache(path, entry: UnbiasingEntry) -> None:
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(CACHE_FIELDS)
        writer.writerow(
            [entry.n, entry.r, repr(entry.B), entry.replications, repr(entry.std_error), entry.seed]
        )
