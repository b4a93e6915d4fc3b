"""Host speed, measured between operations, to take host drift out of timings.

On the shared 2-vCPU host the benchmark was written on, the same code ran up
to twice as fast or slow from one second, or one minute, to the next; CPU
time equals wall time there, so this is the host's speed, not scheduling.
Over ten 30-second runs per workload, the raw rates spread by 0.07-0.31
(interquartile range over median), and the medians of two such sets moved
by up to 50%.

A fixed numpy kernel (exp, log and two sums over 20,000 doubles, about
120 us) is timed between operations.  Of the kernels tried (a pure-Python
loop, numpy on 480-element arrays, this one) it is the one whose speed
followed the workloads' speed: scaling each operation's time by
``NOMINAL_S`` over the median kernel time around it brought the spread of
the rates to 0.03-0.09 in the same runs.  It follows code that streams
arrays much larger than its own less well (the 1e5-draw calibrations of
mle-ladder).  Normalised times read as on a host where the kernel takes
``NOMINAL_S``; a change to the program moves them exactly as it moves the
raw times, since the kernel does not call the program.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 120e-6  # median kernel time on the host the benchmark was written on
EVERY_S = 0.01  # at most one sample per 10 ms of operations, so short operations pay little
PER_S = 0.05  # after a longer operation, one sample per 50 ms of it, up to 60 (under 1% of its time)
WINDOW_S = 0.25  # samples this close to an operation set its scale
REPS = 3  # kernel timings per sample; their median is the sample

# Cold starts are scaled by a reference cold start instead: a fresh interpreter
# that imports what weibayes imports from outside the standard library.  The
# kernel above does not follow the cost of starting an interpreter and loading
# numpy and scipy, which is most of a cold start.
COLD_NOMINAL_S = 0.55  # median reference cold start on the host the benchmark was written on
_COLD_REFERENCE = ("-c", "import numpy, scipy.special")

_X = np.linspace(0.1, 3.0, 20_000)


def kernel_s() -> float:
    """Seconds one run of the fixed kernel takes."""
    t0 = time.perf_counter()
    y = np.exp(-_X)
    float(np.log(_X).sum()) + float(y.sum())
    return time.perf_counter() - t0


def sample_s() -> float:
    return statistics.median(kernel_s() for _ in range(REPS))


def cold_start_s() -> float:
    """Seconds one reference cold start takes."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *_COLD_REFERENCE], capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples taken between operations, and the scale they give."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self, op_s: float = 0.0, force: bool = False) -> None:
        """Sample after an operation of ``op_s`` seconds: once per ``PER_S``
        of it, and at least once unless a sample is less than ``EVERY_S`` old."""
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= EVERY_S:
            for _ in range(max(1, min(round(op_s / PER_S), 60))):
                self.values.append(sample_s())
                self.times.append(time.perf_counter())

    def scale(self, t0: float, t1: float) -> float:
        """``NOMINAL_S`` over the median sample near the interval [t0, t1]:
        within ``WINDOW_S`` of it, or within its own length for a longer
        operation, and at least the nearest samples on either side."""
        reach = max(WINDOW_S, t1 - t0)
        lo = bisect.bisect_left(self.times, t0 - reach)
        hi = bisect.bisect_right(self.times, t1 + reach)
        before = bisect.bisect_left(self.times, t0)
        lo, hi = min(lo, max(before - 1, 0)), max(hi, min(before + 1, len(self.times)))
        return NOMINAL_S / statistics.median(self.values[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.values)
