"""Per-layer tracing from outside the package.

The tracer wraps the public functions of each ``weibayes`` module while it
is installed and restores them afterwards; nothing under ``src/`` changes.
A function imported by name into another module (``type2_censor`` in
``simulate``, ``fit_many`` in ``mle``) is replaced in every module that
holds it, so calls from inside the package are seen too.  Methods and
constructors are wrapped on their class.

Each call records a span (operation id, span id, parent span id, name,
start and end in ns).  Spans stay in memory until ``write_spans``.  A
layer's self time is its span's duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time

from weibayes import censoring, mle, posterior, prior, simulate, weibull

# (owner, attribute, span name); a class owner wraps a method or __init__.
TRACED = (
    (simulate, "run_cell", "simulate.run_cell"),
    (simulate, "run_mle_row", "simulate.run_mle_row"),
    (simulate, "replication_rng", "simulate.replication_rng"),
    (simulate, "metrics", "simulate.metrics"),
    (weibull, "sample", "weibull.sample"),
    (censoring, "type2_censor", "censoring.type2_censor"),
    (censoring.SampleStats, "log_pow_sum", "censoring.SampleStats.log_pow_sum"),
    (prior.PriorSpec, "__init__", "prior.PriorSpec"),
    (posterior, "estimate", "posterior.estimate"),
    (mle, "fit", "mle.fit"),
    (mle, "fit_many", "mle.fit_many"),
    (mle, "calibrate_B", "mle.calibrate_B"),
)
NAMES = tuple(name for _, _, name in TRACED)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.totals = {name: [0, 0, 0] for name in NAMES}  # calls, busy ns, self ns
        self.nodes: list[int] = []
        self.nonconverged = 0
        self.iterations: list[int] = []
        self.fit_many_rows = 0
        self.fit_many_not_ok = 0
        self.op = -1
        self._stack: list[list[int]] = []  # [span id, ns covered by children]

    def _observe(self, name: str, result) -> None:
        if name == "posterior.estimate":
            self.nodes.append(result.node_count)
            self.nonconverged += not result.converged
        elif name == "mle.fit":
            self.iterations.append(result.iterations)
        elif name == "mle.fit_many":
            ok = result[2]
            self.fit_many_rows += int(ok.size)
            self.fit_many_not_ok += int(ok.size - ok.sum())

    def _wrap(self, name: str, fn):
        spans, stack, totals = self.spans, self._stack, self.totals[name]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((self.op, span, parent, name, start, end))
            self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made inside the block; ``op`` tags the spans."""
        patches = []
        modules = [m for key, m in sys.modules.items() if key == "weibayes" or key.startswith("weibayes.")]
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            for holder in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        try:
            yield
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, as totals per traced pass."""
        out = {}
        for name in NAMES:
            calls, busy, own = self.totals[name]
            out[f"{name}.calls"] = (calls / passes, "count")
            out[f"{name}.busy_s"] = (busy / passes / 1e9, "s")
            out[f"{name}.self_s"] = (own / passes / 1e9, "s")
        nodes_total = sum(self.nodes)
        est_busy_us = self.totals["posterior.estimate"][1] / 1e3
        fit_many_us = self.totals["mle.fit_many"][1] / 1e3
        out["posterior.estimate.nodes_p50"] = (statistics.median(self.nodes) if self.nodes else 0, "count")
        out["posterior.estimate.nodes_max"] = (max(self.nodes, default=0), "count")
        out["posterior.estimate.nodes_total"] = (nodes_total / passes, "count")
        out["posterior.estimate.nonconverged"] = (self.nonconverged / passes, "count")
        out["posterior.estimate.us_per_node"] = (est_busy_us / nodes_total if nodes_total else 0.0, "us")
        out["mle.fit.iterations_p50"] = (statistics.median(self.iterations) if self.iterations else 0, "count")
        out["mle.fit_many.rows"] = (self.fit_many_rows / passes, "count")
        out["mle.fit_many.us_per_row"] = (fit_many_us / self.fit_many_rows if self.fit_many_rows else 0.0, "us")
        out["mle.fit_many.not_ok"] = (self.fit_many_not_ok / passes, "count")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for row in sorted(self.spans, key=lambda s: s[1]):
                fh.write(",".join(map(str, row)) + "\n")
