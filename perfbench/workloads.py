"""Inputs, operations and output checks of the three benchmark workloads.

Everything here is derived from the run seed on one thread.  The program
only receives generated inputs, or a seed through its own public ``seed``
parameters.  A run is a sequence of passes; every pass has the same
structure (the same cells, ladder rows, calibrations and request mix) but
fresh data, drawn from ``pass_seed(seed, k)``, so no pass repeats the work
of another.

Each operation returns a flat dict of outputs.  ``invariants`` checks the
properties that hold for every seed; the default-seed reference in
``gate.py`` pins the values themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from weibayes import censoring, mle, posterior, prior, simulate, weibull
from weibayes.errors import WeibayesError

# Sizes of one pass.  "full" is what the benchmark measures; "smoke" is a
# tiny version of the same structure for the harness's own test.
PROFILES = {
    "full": {
        "bayes_cells": 36,
        "bayes_reps": 50,
        "ladder_rows": 14,
        "ladder_reps": 1000,
        "calibrations": ((3, 3), (10, 4), (20, 8)),
        "calib_draws": 100_000,
        "request_blocks": 4,
    },
    "smoke": {
        "bayes_cells": 3,
        "bayes_reps": 4,
        "ladder_rows": 2,
        "ladder_reps": 20,
        "calibrations": ((3, 3),),
        "calib_draws": 10_000,
        "request_blocks": 1,
    },
}

# Interactive mix per block of 50 requests: 90% typical, 8% wide, 2% extreme.
# A fixed count per block (shuffled) keeps the hardest mode at exactly 2%, so
# p99 sits inside that mode on every seed.
REQUEST_BLOCK = ("typical",) * 45 + ("wide",) * 4 + ("extreme",)

# Table-like shape intervals as multiples of the true shape: the centred and
# biased intervals of the Bayes tables for shapes 2 and 1.
_TYPICAL_INTERVALS = ((0.5, 1.5), (1.0, 2.0), (0.25, 1.0), (0.7, 1.3), (1.0, 1.3), (0.7, 1.0))
_RELIABILITIES = (0.9, 0.95, 0.98, 0.99)


def pass_seed(seed: int, k: int) -> int:
    """Seed handed to the program's own seed parameters in pass k."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass
class Op:
    """One timed call into the public API.

    ``kind`` groups operations for the metrics, ``key`` names the operation
    within its pass (the reference is keyed by it), ``reps`` is the work it
    counts toward ``work_per_s`` and ``call`` performs it and returns its
    outputs.
    """

    kind: str
    key: str
    reps: int
    call: Callable[[], dict]


def _performance(m) -> dict:
    return {"rmse": m.rmse, "bias": m.bias, "sd": m.std_dev, "count": m.count, "failures": m.failures}


# --------------------------------------------------------------- bayes-grid

class BayesGrid:
    """``simulate.run_cell`` over a seed-chosen set of Bayes-table cells.

    The 36 (prior case, weight rule) pairs are dealt out six to each of the
    six Bayes tables, so every pass covers all tables 3-8, all cases I-IX
    and all four rules, on complete (n = r = 3) and censored (n = 5, r = 3)
    samples.
    """

    name = "bayes-grid"

    def __init__(self, seed: int, profile: dict):
        rng = np.random.default_rng([seed, 1])
        pairs = [(c, w) for c in range(9) for w in range(4)]
        order = rng.permutation(len(pairs))
        tables = sorted(simulate._BAYES_TABLES)
        self.cells = []
        for slot, idx in enumerate(order[: profile["bayes_cells"]]):
            case_index, rule_index = pairs[idx]
            self.cells.append((tables[slot % 6], simulate.CASE_LABELS[case_index], rule_index))
        self.reps = profile["bayes_reps"]
        self.seed = seed

    def sizes(self) -> dict:
        return {"cells": len(self.cells), "replications_per_cell": self.reps}

    def ops(self, k: int) -> list[Op]:
        return [self._cell_op(cell, pass_seed(self.seed, k), self.reps) for cell in self.cells]

    def first_unit(self) -> Op:
        return self._cell_op(self.cells[0], pass_seed(self.seed, 0), 1)

    def _cell_op(self, cell, cfg_seed: int, reps: int) -> Op:
        table, label, rule_index = cell
        true_beta, n, r = simulate._BAYES_TABLES[table]
        cfg = simulate.ExperimentConfig(true_beta=true_beta, n=n, r=r, seed=cfg_seed, replications=reps)
        case = simulate.build_case(label, true_beta)
        rule = simulate.resolve_w_rule(simulate.STANDARD_W_LABELS[rule_index], case.interval)

        def call() -> dict:
            m_x, m_beta = simulate.run_cell(cfg, case, rule, rule_index)
            return {"x": _performance(m_x), "beta": _performance(m_beta)}

        return Op("cell", f"T{table}/{label}/{simulate.STANDARD_W_LABELS[rule_index]}", reps, call)

    @staticmethod
    def fail_count(out: dict) -> int:
        """Replications whose quadrature did not converge (``bayes_fail_ratio``)."""
        return out["x"]["failures"]

    @staticmethod
    def invariants(op: Op, out: dict) -> list[str]:
        problems = []
        for part in ("x", "beta"):
            m = out[part]
            if not all(math.isfinite(m[f]) for f in ("rmse", "bias", "sd")):
                problems.append(f"{op.key}: non-finite {part} metrics")
            elif not math.isclose(m["rmse"] ** 2, m["sd"] ** 2 + m["bias"] ** 2, rel_tol=1e-12):
                problems.append(f"{op.key}: rmse^2 != sd^2 + bias^2 for {part}")
            if m["count"] + m["failures"] != op.reps:
                problems.append(f"{op.key}: {part} counts do not add up to {op.reps}")
        return problems

    @staticmethod
    def reference_view(out: dict) -> dict:
        return {"rmse_x": out["x"]["rmse"], "rmse_beta": out["beta"]["rmse"], "failures": out["x"]["failures"]}


# --------------------------------------------------------------- mle-ladder

class MleLadder:
    """``simulate.run_mle_row`` over ladder rows, then ``mle.calibrate_B``.

    Every pass runs the seven complete designs (n = r = 3..30) and the seven
    censored designs (n up to 40), each taken from a seed-chosen ladder of
    its kind (3b-5b or 6b-8b), followed by fresh B(n, r) calibrations with
    ``cache_path=None`` so that no cached row hides the work.
    """

    name = "mle-ladder"

    def __init__(self, seed: int, profile: dict):
        rng = np.random.default_rng([seed, 2])
        complete = [("3b", "4b", "5b")[int(rng.integers(3))] for _ in simulate._MLE_COMPLETE_ROWS]
        censored = [("6b", "7b", "8b")[int(rng.integers(3))] for _ in simulate._MLE_CENSORED_ROWS]
        rows = [(t, n, r) for t, (n, r) in zip(complete, simulate._MLE_COMPLETE_ROWS)]
        rows += [(t, n, r) for t, (n, r) in zip(censored, simulate._MLE_CENSORED_ROWS)]
        # alternate complete and censored rows so a short profile keeps both kinds
        self.rows = [row for pair in zip(rows[:7], rows[7:]) for row in pair][: profile["ladder_rows"]]
        self.reps = profile["ladder_reps"]
        self.calibrations = profile["calibrations"]
        self.draws = profile["calib_draws"]
        self.seed = seed

    def sizes(self) -> dict:
        return {
            "rows": [f"{t}/n{n}r{r}" for t, n, r in self.rows],
            "replications_per_row": self.reps,
            "calibrations": [f"n{n}r{r}" for n, r in self.calibrations],
            "draws_per_calibration": self.draws,
        }

    def ops(self, k: int) -> list[Op]:
        s = pass_seed(self.seed, k)
        rows = [self._row_op(row, s, self.reps) for row in self.rows]
        calibs = [self._calib_op(n, r, s) for n, r in self.calibrations]
        # each calibration follows its share of the rows, so that host-speed samples
        # (hostspeed.py) are taken close to it on both sides
        share = math.ceil(len(rows) / len(calibs))
        return [op for i, c in enumerate(calibs) for op in rows[i * share:(i + 1) * share] + [c]]

    def first_unit(self) -> Op:
        return self._row_op(self.rows[0], pass_seed(self.seed, 0), 10)

    @staticmethod
    def _row_op(row, seed: int, reps: int) -> Op:
        table, n, r = row
        true_beta = simulate._MLE_TABLES[table][0]

        def call() -> dict:
            m_x, m_beta, ds_bar = simulate.run_mle_row(true_beta, n, r, 0.98, reps, seed, cache_path=None)
            return {"x": _performance(m_x), "beta": _performance(m_beta), "ds_beta_bar": ds_bar}

        return Op("row", f"{table}/n{n}r{r}", reps, call)

    def _calib_op(self, n: int, r: int, seed: int) -> Op:
        draws = self.draws

        def call() -> dict:
            entry = mle.calibrate_B(n, r, draws, seed, cache_path=None)
            return {"B": entry.B, "std_error": entry.std_error}

        return Op("calib", f"B/n{n}r{r}", 0, call)

    @staticmethod
    def fail_count(out: dict) -> int:
        """Replications with ``ok=False`` from ``fit_many`` (``mle_fail_ratio``)."""
        return out["x"]["failures"] if "x" in out else 0

    @staticmethod
    def invariants(op: Op, out: dict) -> list[str]:
        if op.kind == "calib":
            ok = math.isfinite(out["B"]) and out["B"] > 0.0 and math.isfinite(out["std_error"])
            return [] if ok else [f"{op.key}: B = {out['B']!r} is not positive and finite"]
        problems = BayesGrid.invariants(op, out)
        if not (math.isfinite(out["ds_beta_bar"]) and out["ds_beta_bar"] >= 0.0):
            problems.append(f"{op.key}: ds_beta_bar = {out['ds_beta_bar']!r}")
        return problems

    @staticmethod
    def reference_view(out: dict) -> dict:
        if "B" in out:
            return {"B": out["B"]}
        return {
            "rq_xR": out["x"]["rmse"],
            "rq_beta": out["beta"]["rmse"],
            "ds_beta_bar": out["ds_beta_bar"],
            "failures": out["x"]["failures"],
        }


# -------------------------------------------------------------- interactive

def _typical(rng, n: int):
    beta = float(rng.uniform(0.5, 2.5))
    lo, hi = _TYPICAL_INTERVALS[int(rng.integers(len(_TYPICAL_INTERVALS)))]
    x_R = float(10.0 ** rng.uniform(1.0, 4.0))
    R = float(rng.choice(_RELIABILITIES))
    times = weibull.sample(weibull.ReliableLifeWeibull(x_R=x_R, beta=beta, R=R), n, rng)
    xbar_R = x_R * float(10.0 ** rng.uniform(-1.0, 1.0))
    return (beta * lo, beta * hi), times, xbar_R, R


def _wide(rng, n: int):
    interval = (float(rng.uniform(0.1, 0.3)), float(rng.uniform(10.0, 20.0)))
    times = 10.0 ** rng.uniform(-6.0, 6.0, n)
    return interval, times, float(10.0 ** rng.uniform(-2.0, 2.0)), float(rng.choice(_RELIABILITIES))


def _extreme(rng, n: int):
    exponents = rng.uniform(-200.0, 200.0, n)
    exponents[:2] = (-200.0, 200.0)
    rng.shuffle(exponents)
    return (0.1, 20.0), 10.0**exponents, 1.0, float(rng.choice(_RELIABILITIES))


_MAKERS = {"typical": _typical, "wide": _wide, "extreme": _extreme}


def _status(rng, times: np.ndarray, p_censor: float) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """An arbitrary right-censoring pattern with at least two distinct failures.

    Each item is censored with probability ``p_censor`` at a uniform fraction
    of its lifetime; failures keep their time.  The two smallest times (distinct,
    as they are continuous draws) are always failures, so the MLE is defined.
    """
    times = np.asarray(times, dtype=float)
    status = [censoring.FAILED] * times.size
    out = times.copy()
    keep = set(np.argsort(times)[:2].tolist())
    for i in range(times.size):
        if i not in keep and rng.random() < p_censor:
            out[i] = max(times[i] * float(rng.uniform(0.2, 1.0)), float(times.min()))
            status[i] = censoring.CENSORED
    return tuple(float(t) for t in out), tuple(status)


def _rule(rng, kind: str, interval) -> prior.WRule:
    """One of the four table weight rules.  Wide and extreme requests skip
    the fixed 1/beta1 + 0.1 rule: with beta1 near 0.1 it gives w near 10, a
    prior-dominated posterior and up to 40x the nodes of the other rules."""
    pick = int(rng.integers(4 if kind == "typical" else 3))
    if pick < 3:
        return prior.WRule.const_over_beta((1.1, 1.4, 1.8)[pick])
    return prior.WRule.fixed(1.0 / interval[0] + 0.1)


class Interactive:
    """One caller in a closed loop: a fresh ``PriorSpec``, then ``estimate``
    and ``fit`` on a fresh sample, per request."""

    name = "interactive"

    def __init__(self, seed: int, profile: dict):
        self.blocks = profile["request_blocks"]
        self.seed = seed
        self.drawn = {"typical": 0, "wide": 0, "extreme": 0}

    def sizes(self) -> dict:
        return {"requests_per_pass": self.blocks * len(REQUEST_BLOCK), "mix_per_block": {
            kind: REQUEST_BLOCK.count(kind) for kind in _MAKERS}}

    def requests(self, k: int) -> list[tuple[str, dict]]:
        rng = np.random.default_rng(pass_seed(self.seed, k))
        out = []
        for _ in range(self.blocks):
            for kind in map(str, rng.permutation(REQUEST_BLOCK)):
                n = int(rng.integers(3, 9))
                interval, times, xbar_R, R = _MAKERS[kind](rng, n)
                # Extreme-range samples stay complete: with censored items above two tiny
                # failures, the MLE scale exceeds the largest double and mle.fit raises
                # OverflowError (alpha_hat = exp(log_alpha) in mle.py).
                times, status = _status(rng, times, 0.0 if kind == "extreme" else 0.3)
                out.append((kind, {"interval": interval, "times": times, "status": status,
                                   "xbar_R": xbar_R, "R": R, "rule": _rule(rng, kind, interval)}))
        return out

    def ops(self, k: int) -> list[Op]:
        ops = []
        for i, (kind, req) in enumerate(self.requests(k)):
            self.drawn[kind] += 1
            ops.append(Op("request", f"q{i}/{kind}", 1, _request_call(req)))
        return ops

    def first_unit(self) -> Op:
        """The first typical request, so that the set-up time does not depend on
        whether the seed happens to put a wide or extreme request first."""
        req = next(req for kind, req in self.requests(0) if kind == "typical")
        return Op("request", "q0", 1, _request_call(req))

    @staticmethod
    def fail_count(out: dict) -> int:
        """Requests that raised or returned ``converged=False`` from
        ``estimate`` or ``fit`` (``request_fail_ratio``)."""
        return int("error" in out or not (out["converged"] and out["fit_converged"]))

    @staticmethod
    def invariants(op: Op, out: dict) -> list[str]:
        if "error" in out:
            return []  # counted as a failed request, not as a wrong answer
        problems = []
        values = ("x_R_tilde", "beta_tilde", "beta_hat", "x_R_hat")
        # x_R_hat may underflow to 0 on the extreme requests (beta_hat ~ 3e-3)
        if not all(math.isfinite(out[f]) and out[f] >= 0.0 for f in values):
            problems.append(f"{op.key}: non-finite or negative output {[out[f] for f in values]}")
        lo, hi = out["interval"]
        if not lo <= out["beta_tilde"] <= hi:
            problems.append(f"{op.key}: beta_tilde = {out['beta_tilde']!r} outside [{lo}, {hi}]")
        if out["node_count"] <= 0:
            problems.append(f"{op.key}: node_count = {out['node_count']}")
        return problems

    @staticmethod
    def reference_view(out: dict) -> dict:
        if "error" in out:
            return {"error": out["error"]}
        return {f: out[f] for f in ("x_R_tilde", "beta_tilde", "beta_hat", "converged")}


def _request_call(req: dict) -> Callable[[], dict]:
    def call() -> dict:
        try:
            spec = prior.PriorSpec(interval=prior.BetaInterval(*req["interval"]), xbar_R=req["xbar_R"],
                                   R=req["R"], w_rule=req["rule"])
            sample = censoring.CensoredSample(times=req["times"], status=req["status"])
            est = posterior.estimate(spec, sample)
            fit = mle.fit(sample, req["R"])
        except (WeibayesError, ValueError, ArithmeticError) as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "x_R_tilde": est.x_R_tilde, "beta_tilde": est.beta_tilde, "node_count": est.node_count,
            "converged": est.converged, "beta_hat": fit.beta_hat, "x_R_hat": fit.x_R_hat,
            "fit_converged": fit.converged, "interval": req["interval"],
        }

    return call


WORKLOADS = {w.name: w for w in (BayesGrid, MleLadder, Interactive)}
