"""Right-censored lifetime samples and their likelihood statistics.

A sample is a parallel list of times and failed/censored marks.  The
likelihood of any right-censored sample depends on the data only through the
power sum S(beta) over all items, the log product of the failure times, and
the failure count r, so those statistics are precomputed and cached.  The
type-II constructor (run n items until the r-th failure) is a convenience on
top of the general representation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InputValidationError
from .weibull import ReliableLifeWeibull

__all__ = [
    "FAILED",
    "CENSORED",
    "CensoredSample",
    "SampleStats",
    "type2_censor",
    "type2_log_times",
    "s_of_beta",
    "log_likelihood",
    "load_sample_csv",
    "logsumexp",
]

FAILED = "failed"
CENSORED = "censored"


def logsumexp(a, axis=-1):
    """ln(sum(exp(a))) along a nonempty axis, with the maximum factored out.

    A slice whose maximum is not finite is summed unshifted, so all -inf
    gives -inf and any +inf gives +inf.
    """
    a = np.asarray(a, dtype=float)
    peak = a.max(axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)


@dataclass(frozen=True)
class SampleStats:
    """Likelihood statistics of a censored sample.

    ``log_times`` holds ln(time) for every item, sorted ascending so the
    power sums accumulate small terms first; ``log_P`` is the log product of
    the failure times only, summed as numpy sums a ``type2_log_times`` row.
    """

    log_times: np.ndarray
    log_P: float
    n: int
    r: int

    def pow_sum(self, beta: float) -> float:
        """S(beta): sum of time**beta over all n items, failed and censored."""
        if self.n == 0:
            return 0.0
        return float(np.exp(beta * self.log_times).sum())

    def log_pow_sum(self, betas):
        """ln S(beta), stable for large beta; accepts a scalar or an array."""
        if self.n == 0:
            return np.full(np.shape(betas), -np.inf) if np.ndim(betas) else -math.inf
        t = np.multiply.outer(np.asarray(betas, dtype=float), self.log_times)
        out = logsumexp(t, axis=-1)
        return out if np.ndim(betas) else float(out)


@dataclass(frozen=True)
class CensoredSample:
    """Lifetimes with failed/censored status; immutable once constructed.

    Arbitrary right-censoring patterns are accepted so real datasets can be
    ingested directly; canonical type-II samples come from
    :func:`type2_censor`.
    """

    times: tuple[float, ...]
    status: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.status):
            raise ValueError("times and status must have the same length")
        for t in self.times:
            if not (t > 0.0 and math.isfinite(t)):
                raise ValueError(f"all times must be positive and finite, got {t!r}")
        for s in self.status:
            if s not in (FAILED, CENSORED):
                raise ValueError(f"status must be {FAILED!r} or {CENSORED!r}, got {s!r}")

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def r(self) -> int:
        return sum(1 for s in self.status if s == FAILED)

    @property
    def failure_times(self) -> tuple[float, ...]:
        return tuple(t for t, s in zip(self.times, self.status) if s == FAILED)

    @cached_property
    def stats(self) -> SampleStats:
        log_all = np.sort(np.log(np.asarray(self.times, dtype=float))) if self.n else np.empty(0)
        log_P = float(np.sort(np.log(np.asarray(self.failure_times, dtype=float))).sum())
        return SampleStats(log_times=log_all, log_P=log_P, n=self.n, r=self.r)

    @classmethod
    def complete(cls, times: Iterable[float]) -> "CensoredSample":
        """All-failures sample, times kept in sorted order."""
        ts = tuple(sorted(float(t) for t in times))
        return cls(times=ts, status=(FAILED,) * len(ts))


def type2_censor(times: Sequence[float], r: int) -> CensoredSample:
    """Censor a complete sample at its r-th order statistic.

    The r smallest values become failures; the remaining n - r items are
    recorded as censored at the largest failure time.
    """
    ordered = CensoredSample.complete(times).times  # checks every time, censored ones too
    n = len(ordered)
    if n == 0:
        raise ValueError("cannot censor an empty sample")
    if not 1 <= int(r) <= n:
        raise ValueError(f"r must satisfy 1 <= r <= n = {n}, got {r}")
    r = int(r)
    cutoff = ordered[r - 1]
    return CensoredSample(
        times=tuple(ordered[:r]) + (cutoff,) * (n - r),
        status=(FAILED,) * r + (CENSORED,) * (n - r),
    )


def type2_log_times(sorted_times, r: int) -> np.ndarray:
    """ln times of rows of sorted complete samples, each censored at its r-th
    order statistic: the row-wise counterpart of :func:`type2_censor`."""
    lx = np.log(sorted_times)
    n = lx.shape[1]
    if r == n:
        return lx
    return np.concatenate([lx[:, :r], np.repeat(lx[:, r - 1 : r], n - r, axis=1)], axis=1)


def s_of_beta(sample: CensoredSample, beta: float) -> float:
    """S(beta) = sum over all items of time**beta."""
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    return sample.stats.pow_sum(beta)


def log_likelihood(sample: CensoredSample, p: ReliableLifeWeibull) -> float:
    """Log of the censored-sample likelihood, constant factors included.

    Equals r*ln(K*beta/x_R**beta) + (beta - 1)*ln P - K*S(beta)/x_R**beta,
    which is exactly the sum of per-item log densities (failures) and log
    survivals (censored items).
    """
    st = sample.stats
    K = p.K
    value = 0.0
    if st.n:
        # -K * S(beta) / x_R**beta, assembled in logs to dodge pow overflow
        value -= math.exp(math.log(K) + st.log_pow_sum(p.beta) - p.beta * math.log(p.x_R))
    if st.r:
        value += st.r * (math.log(K * p.beta) - p.beta * math.log(p.x_R))
        value += (p.beta - 1.0) * st.log_P
    return value


def load_sample_csv(path) -> CensoredSample:
    """Read a sample from CSV with required header columns time,status.

    Rejects nonpositive or malformed times and unknown status values with an
    error naming the offending line.  A header-only file yields the empty
    sample (n = 0).
    """
    times: list[float] = []
    status: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InputValidationError(f"{path}: empty file, expected a time,status header")
        fields = [f.strip().lstrip("﻿") for f in reader.fieldnames]
        reader.fieldnames = fields
        for required in ("time", "status"):
            if required not in fields:
                raise InputValidationError(f"{path}: missing required column {required!r}")
        for row in reader:
            line = reader.line_num
            raw_time = (row.get("time") or "").strip()
            raw_status = (row.get("status") or "").strip()
            try:
                t = float(raw_time)
            except ValueError:
                raise InputValidationError(f"{path}: line {line}: malformed time {raw_time!r}") from None
            if not (t > 0.0 and math.isfinite(t)):
                raise InputValidationError(f"{path}: line {line}: time must be positive, got {raw_time!r}")
            if raw_status not in (FAILED, CENSORED):
                raise InputValidationError(
                    f"{path}: line {line}: unknown status {raw_status!r} (expected {FAILED!r} or {CENSORED!r})"
                )
            times.append(t)
            status.append(raw_status)
    return CensoredSample(times=tuple(times), status=tuple(status))
