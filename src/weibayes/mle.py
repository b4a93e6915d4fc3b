"""Censored-data maximum likelihood for the Weibull model, plus the
shape-unbiasing factor.

The shape estimate solves the profile score

    g(beta) = mean of ln x over failures + 1/beta
              - sum(x_i**beta * ln x_i) / sum(x_i**beta)      (sums over all items)

which is strictly decreasing with a unique root whenever there are at least
two failures with some spread.  The scale follows as alpha = (S(beta)/r)**(1/beta)
and the reliable life as x_R = alpha * K**(1/beta).

One core solves rows of (ln x, mean ln x over failures, r): ``fit_many``
passes type-II rows, ``fit`` one row of any right-censored sample.  Each row
is scored once at each end of the fixed bracket [1e-6, 1e6]; because g is
decreasing, a row without a sign change there has no finite estimate.  Other
rows start at the log-moment estimate pi/(sqrt(6)*sd(ln x)) (Menon, 1963) and
take Newton steps in ln beta, bisecting when a step leaves the sign bracket or
shrinks too slowly, until the step is at rounding level.

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
    "calibration_row",
    "read_calibration_cache",
    "append_calibration_cache",
]

# |g(beta_hat)| below this counts as converged
G_TOL = 1e-10
# cap on score evaluations after the bracket ends; bisection alone would need ~55
_MAX_ITERATIONS = 100
# a Newton step in ln(beta) below this, times max(1, |ln beta|), ends a row's solve
_STEP_TOL = 4.0 * np.finfo(float).eps
# shape values outside this bracket count as no finite estimate
_BRACKET_LO = 1e-6
_BRACKET_HI = 1e6


@dataclass(frozen=True)
class MleResult:
    """An MLE fit.  ``iterations`` counts Newton or bisection score evaluations
    after the two at the bracket ends; ``converged`` means |g(beta_hat)| <= G_TOL."""

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


def _score(betas: np.ndarray, below: np.ndarray, offset: np.ndarray, slope: bool = False):
    """Profile score at betas (N,) for rows of ln x minus the row maximum (N, n) and
    ``offset``, their mean ln x over failures minus it; ``slope`` adds dg/d(ln beta)."""
    e = np.exp(betas[:, None] * below)
    denom = e.sum(axis=1)
    e *= below
    mean = e.sum(axis=1) / denom
    g = offset + 1.0 / betas - mean
    if not slope:
        return g
    var = (e * below).sum(axis=1) / denom - mean * mean
    return g, -1.0 / betas - betas * var


def _fit_rows(log_times: np.ndarray, mean_log_fail: np.ndarray, r: int, R: float):
    """The MLE core on rows of ln x (N, n) with their mean ln x over r failures (N,):
    (beta_hat, ln alpha_hat, ln x_R_hat, g(beta_hat), iterations, has_root).  A
    row without a root reports the bracket end its score points to."""
    top = log_times.max(axis=1)
    below = log_times - top[:, None]
    offset = mean_log_fail - top
    count = below.shape[0]
    g_lo = _score(np.full(count, _BRACKET_LO), below, offset)
    g_hi = _score(np.full(count, _BRACKET_HI), below, offset)
    has_root = (g_lo > 0.0) & (g_hi < 0.0)
    u_lo, u_hi = math.log(_BRACKET_LO), math.log(_BRACKET_HI)
    u = np.where(g_hi >= 0.0, u_hi, u_lo)
    g = np.where(g_hi >= 0.0, g_hi, g_lo)
    iterations = np.zeros(count, dtype=int)

    # Newton in u = ln(beta) from the log-moment estimate, bisecting whenever
    # a step would leave the sign bracket or shrinks by less than half
    rows = np.flatnonzero(has_root)
    x, off = below[rows], offset[rows]
    with np.errstate(divide="ignore"):
        at = np.clip(np.log(np.pi / (np.sqrt(6.0) * x.std(axis=1))), u_lo, u_hi)
    last_step = u_hi - u_lo
    for _ in range(_MAX_ITERATIONS):
        if rows.size == 0:
            break
        g_at, slope = _score(np.exp(at), x, off, slope=True)
        u[rows], g[rows] = at, g_at
        iterations[rows] += 1
        positive = g_at > 0.0
        u_lo, u_hi = np.where(positive, at, u_lo), np.where(positive, u_hi, at)
        step = -g_at / slope
        tol = _STEP_TOL * np.maximum(1.0, np.abs(at))
        going = (np.abs(step) > tol) & (u_hi - u_lo > tol)
        newton = at + step
        bisect = ~((u_lo < newton) & (newton < u_hi)) | (2.0 * np.abs(step) > np.abs(last_step))
        nxt = np.where(bisect, 0.5 * (u_lo + u_hi), newton)
        at, last_step = nxt, nxt - at
        if not going.all():
            rows, x, off, at, u_lo, u_hi, last_step = (
                a[going] for a in (rows, x, off, at, u_lo, u_hi, last_step)
            )
    beta = np.exp(u)
    log_S = beta * top + np.log(np.exp(beta[:, None] * below).sum(axis=1))
    log_alpha = (log_S - math.log(r)) / beta
    log_x_R = log_alpha + math.log(math.log(1.0 / R)) / beta
    return beta, log_alpha, log_x_R, g, iterations, has_root


def _validate_admissible(sample: CensoredSample) -> None:
    fails = sample.failure_times
    if len(fails) < 2:
        raise NoFiniteMleError(
            f"no finite maximum-likelihood estimate: need at least 2 failures, got {len(fails)}"
        )
    if max(fails) <= min(fails):
        raise NoFiniteMleError("no finite maximum-likelihood estimate: all failure times coincide")


def profile_equation(beta: float, sample: CensoredSample) -> float:
    """Profile score g(beta); strictly decreasing with a unique root."""
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    _validate_admissible(sample)
    st = sample.stats
    top = st.log_times[-1]
    return float(_score(np.array([beta]), st.log_times[None, :] - top, st.log_P / st.r - top)[0])


def fit(sample: CensoredSample, R: float) -> MleResult:
    """Maximum-likelihood fit of (alpha, beta) and the implied reliable life."""
    if not (0.0 < R < 1.0):
        raise ValueError(f"R must lie strictly inside (0, 1), got {R!r}")
    _validate_admissible(sample)
    st = sample.stats
    beta_hat, log_alpha, log_x_R, g, iterations, has_root = (
        v[0].item() for v in _fit_rows(st.log_times[None, :], np.array([st.log_P / st.r]), st.r, R)
    )
    if not has_root:
        raise NoFiniteMleError(
            "no finite maximum-likelihood estimate: profile score has no sign change "
            f"on [{_BRACKET_LO:g}, {_BRACKET_HI:g}]"
        )
    with np.errstate(over="ignore"):
        scale = np.exp([log_alpha, log_x_R])
    if not np.isfinite(scale).all():
        raise NoFiniteMleError(
            f"no finite maximum-likelihood estimate: at beta_hat = {beta_hat:.6g} the scale "
            f"estimate exp({max(log_alpha, log_x_R):.6g}) exceeds the double range"
        )
    alpha_hat, x_R_hat = scale.tolist()
    return MleResult(alpha_hat, beta_hat, x_R_hat, iterations, abs(g) <= G_TOL)


def fit_many(sorted_times: np.ndarray, r: int, R: float):
    """Vectorized fit on rows of sorted complete samples censored at r.

    Returns (beta_hat, x_R_hat, ok): ok marks rows with a finite, converged
    estimate, and row i equals ``fit`` on ``type2_censor(sorted_times[i], r)``.
    """
    sorted_times = np.asarray(sorted_times, dtype=float)
    n = sorted_times.shape[1]
    if not 2 <= r <= n:
        raise ValueError(f"need 2 <= r <= n = {n}, got r = {r}")
    log_times = type2_log_times(sorted_times, r)
    spread = sorted_times[:, r - 1] > sorted_times[:, 0]
    beta, _, log_x_R, g, _, has_root = _fit_rows(log_times, log_times[:, :r].sum(axis=1) / r, r, R)
    with np.errstate(over="ignore"):
        x_R_hat = np.exp(log_x_R)
    return beta, x_R_hat, spread & has_root & (np.abs(g) <= G_TOL) & np.isfinite(x_R_hat)


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
    if not 2 <= r <= n:
        raise ValueError(f"calibration needs 2 <= r <= n, got r = {r}, n = {n}")
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
    entry = UnbiasingEntry(int(n), int(r), 1.0 / mean, int(replications), std_error, seed)
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


def calibration_row(entry: UnbiasingEntry) -> str:
    """An entry as one CSV row in CACHE_FIELDS order, floats by repr so they read back exactly."""
    return f"{entry.n},{entry.r},{entry.B!r},{entry.replications},{entry.std_error!r},{entry.seed}"


def read_calibration_cache(path) -> dict[tuple[int, int, int, int], UnbiasingEntry]:
    entries: dict[tuple[int, int, int, int], UnbiasingEntry] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            entry = UnbiasingEntry(
                int(row["n"]), int(row["r"]), float(row["B"]),
                int(row["replications"]), float(row["std_error"]), int(row["seed"]),
            )
            entries[(entry.n, entry.r, entry.replications, entry.seed)] = entry
    return entries


def append_calibration_cache(path, entry: UnbiasingEntry) -> None:
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="", encoding="utf-8") as fh:
        if fresh:
            fh.write(",".join(CACHE_FIELDS) + "\n")
        fh.write(calibration_row(entry) + "\n")
