"""Censored-data maximum likelihood for the Weibull model, plus the
shape-unbiasing factor.

The shape estimate solves the profile score

    g(beta) = mean of ln x over failures + 1/beta
              - sum(x_i**beta * ln x_i) / sum(x_i**beta)      (sums over all items)

which is strictly decreasing with a unique root whenever there are at least
two failures with some spread.  The scale follows as alpha = (S(beta)/r)**(1/beta)
and the reliable life as x_R = alpha * K**(1/beta).

One core solves rows of (ln x, mean ln x over failures, r): ``fit_many`` passes
type-II rows, ``fit`` one row of any right-censored sample.  The fixed bracket
is [1e-6, 1e6]; g is positive at its lower end for every sample of positive
finite times, so each row is scored once, at the upper end, and because g is
decreasing a row whose score is not negative there has no finite estimate.  That
covers a type-II row whose failures coincide: its ln x are all equal, so g(1e6)
is 1e-6 plus the rounding of its mean ln x.  Other rows start at the log-moment
estimate pi/(sqrt(6)*sd(ln x)) (Menon, 1963) and take Newton steps in ln beta,
bisecting when a step leaves the sign bracket or shrinks too slowly, until the
step is at rounding level.  The sum S(beta_hat) behind the scale comes from the
last score's denominator.  The core imports nothing beyond numpy.

Because the distribution of beta_hat/beta does not depend on the true
parameters, the multiplicative unbiasing factor B with E[B*beta_hat] = beta
depends only on (n, r); it is calibrated by Monte Carlo on the unit
exponential and can be cached on disk keyed by (n, r, replications, seed).
The calibration fits its rows in contiguous blocks of at least 5,000, one
thread per CPU the process may run on; rows are fitted independently, so the
entry does not depend on the CPU count.
"""

from __future__ import annotations

import contextvars
import csv
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .censoring import CensoredSample, _open_utf8, type2_log_times
from .errors import InputValidationError, NoFiniteMleError
from .weibull import _log_inverse, _require_positive

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
# fewest calibration rows per thread: with two threads, _fit_rows ran 0.28-0.94x as
# fast on 500-2,000 rows (per-iteration bookkeeping holds the GIL), 1.09-1.52x on
# 5,000 and 1.51-1.63x on 10,000
_MIN_BLOCK_ROWS = 5000


@dataclass(frozen=True)
class MleResult:
    """An MLE fit.  ``iterations`` counts Newton or bisection score evaluations
    after the one at the upper bracket end; ``converged`` means |g(beta_hat)| <= G_TOL."""

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


def _score(betas: np.ndarray, below: np.ndarray, offset: np.ndarray, slope: bool = False, out=None):
    """Profile score at betas (N,) for rows of ln x minus the row maximum (N, n) and
    ``offset``, their mean ln x over failures minus it: (g, S), or (g, dg/d(ln beta), S)
    with ``slope``, where S = sum(exp(beta * below)) per row.  ``out`` is an optional
    (N, n) work buffer."""
    e = np.multiply(betas[:, None], below, out=out)
    np.exp(e, out=e)
    denom = e.sum(axis=1)
    e *= below
    mean = e.sum(axis=1) / denom
    g = offset + 1.0 / betas - mean
    if not slope:
        return g, denom
    e *= below
    var = e.sum(axis=1) / denom - mean * mean
    return g, -1.0 / betas - betas * var, denom


def _fit_rows(log_times: np.ndarray, mean_log_fail: np.ndarray, r: int, R: float):
    """The MLE core on rows of ln x (N, n) with their mean ln x over r failures (N,):
    (beta_hat, ln alpha_hat, ln x_R_hat, g(beta_hat), iterations, has_root).  A
    row without a root reports the bracket end its score points to."""
    log_K = math.log(_log_inverse(R))
    top = log_times.max(axis=1)
    below = log_times - top[:, None]
    offset = mean_log_fail - top
    count = below.shape[0]
    work = np.empty_like(below)
    # Only the upper end is scored.  |ln x| < 745 for every positive double, so
    # below and offset are > -1455 and the weighted mean of below is <= 0:
    # g(1e-6) >= 1e6 - 1455 > 0 on every row of positive finite times, and a
    # row with a zero or infinite time scores nan at both ends.  So g(1e-6) > 0
    # and g(1e6) < 0 holds exactly when g(1e6) < 0.
    g, denom = _score(np.full(count, _BRACKET_HI), below, offset, out=work)
    has_root = g < 0.0
    u_lo, u_hi = math.log(_BRACKET_LO), math.log(_BRACKET_HI)
    u = np.where(g >= 0.0, u_hi, u_lo)
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
        g_at, slope, denom[rows] = _score(np.exp(at), x, off, slope=True, out=work[: rows.size])
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
    # a row with a root was last scored at its beta_hat; one without a root ends at
    # exp(ln 1e-6) or exp(ln 1e6), a bit off the bracket end, so its S is summed afresh
    ends = ~has_root
    denom[ends] = np.exp(beta[ends, None] * below[ends]).sum(axis=1)
    log_S = beta * top + np.log(denom)
    log_alpha = (log_S - math.log(r)) / beta
    log_x_R = log_alpha + log_K / beta
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
    _require_positive("beta", beta)
    _validate_admissible(sample)
    st = sample.stats
    top = st.log_times[-1]
    return float(_score(np.array([beta]), st.log_times[None, :] - top, st.log_P / st.r - top)[0][0])


def fit(sample: CensoredSample, R: float) -> MleResult:
    """Maximum-likelihood fit of (alpha, beta) and the implied reliable life."""
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
    beta, _, log_x_R, g, _, has_root = _fit_rows(log_times, log_times[:, :r].sum(axis=1) / r, r, R)
    with np.errstate(over="ignore"):
        x_R_hat = np.exp(log_x_R)
    return beta, x_R_hat, has_root & (np.abs(g) <= G_TOL) & np.isfinite(x_R_hat)


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
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if cache_path is not None and os.path.exists(cache_path):
        cached = read_calibration_cache(cache_path).get((n, r, int(replications), seed))
        if cached is not None:
            return cached
    rng = np.random.default_rng([seed, n, r])
    draws = rng.standard_exponential((int(replications), n))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blocks = np.array_split(draws, max(1, min(cpus or 1, len(draws) // _MIN_BLOCK_ROWS)))
    # rows are fitted independently, so any split gives the same bits; R is irrelevant to beta_hat
    fits = _in_threads(lambda block: fit_many(np.sort(block, axis=1), r, R=0.5)[::2], blocks)
    beta_hat, ok = map(np.concatenate, zip(*fits))
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


def _in_threads(func, blocks: list) -> list:
    """func on each block: the first in the calling thread, each other in a thread of
    its own, every one in a copy of the caller's context (numpy's errstate lives there).
    After every join, the first exception in block order is raised here."""
    results = [None] * len(blocks)

    def run(i):
        try:
            results[i] = func(blocks[i])
        except BaseException as exc:
            results[i] = exc

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, i)) for i in range(1, len(blocks))
    ]
    for thread in threads:
        thread.start()
    contextvars.copy_context().run(run, 0)
    for thread in threads:
        thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


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
    """Entries of a calibration cache keyed by (n, r, replications, seed); an empty
    file has none.  Text that is not UTF-8, a missing column, a row of the wrong length
    or a malformed value raises InputValidationError naming the file and, for a row,
    its line."""
    entries: dict[tuple[int, int, int, int], UnbiasingEntry] = {}
    with _open_utf8(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return entries
        missing = [field for field in CACHE_FIELDS if field not in reader.fieldnames]
        if missing:
            raise InputValidationError(f"{path}: not a calibration cache, missing columns {missing}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if None in row or None in row.values():
                raise InputValidationError(f"{where}: expected {len(reader.fieldnames)} fields")
            try:
                entry = UnbiasingEntry(
                    int(row["n"]), int(row["r"]), float(row["B"]),
                    int(row["replications"]), float(row["std_error"]), int(row["seed"]),
                )
            except ValueError as exc:
                raise InputValidationError(f"{where}: {exc}") from None
            entries[(entry.n, entry.r, entry.replications, entry.seed)] = entry
    return entries


def append_calibration_cache(path, entry: UnbiasingEntry) -> None:
    """Append one row: a new or empty file gets the header first, and a last row
    that lacks its line break gets one, so the row never joins the one before."""
    with open(path, "a+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            fh.write((",".join(CACHE_FIELDS) + "\n").encode())
        else:
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
        fh.write((calibration_row(entry) + "\n").encode())
