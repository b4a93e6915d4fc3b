#!/usr/bin/env python3
"""Benchmark of the weibayes package: three workloads against its public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bayes-grid --seed 0 --seconds 30 --trace 0

Workloads: bayes-grid, mle-ladder, interactive (see workloads.py and
README.md).  The run imports ``weibayes`` from ``src/`` of the checkout,
executes passes of the workload until ``--seconds`` of measurement have
elapsed, checks every output, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics, with operation times scaled to a
nominal host speed measured between operations (hostspeed.py); the times
as measured are printed and kept in the report.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics, the tracing overhead, and
writes the spans to perfbench/out/.  Exit status: 0 when every check
passes, 1 when an output is wrong, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("bayes-grid", "mle-ladder", "interactive"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny pass sizes, for the harness's own test")
    p.add_argument("--record-reference", action="store_true",
                   help="record the first pass of the reference seed as the correctness reference")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")
    return args


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rate(records, seconds, selected, work) -> float:
    """Work per second over the selected operations of all measured passes;
    ``seconds[i]`` is the time of ``records[i]``."""
    chosen = [i for i, r in enumerate(records) if selected(r)]
    return sum(work(records[i]) for i in chosen) / sum(seconds[i] for i in chosen)


def cold_setup(workload: str, seed: int, runs: int) -> tuple[list[float], list[float], list[float]]:
    """Wall time of a fresh interpreter that imports weibayes and runs the
    workload's first unit of work, the import time it reports, and the
    host-speed scale from a reference cold start just before it."""
    import hostspeed

    probe = os.path.join(HERE, "setup_probe.py")
    walls, imports, scales = [], [], []
    for _ in range(runs):
        scales.append(hostspeed.COLD_NOMINAL_S / hostspeed.cold_start_s())
        start = time.perf_counter()
        done = subprocess.run([sys.executable, probe, workload, str(seed)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports, scales


def manifest(args, w, passes: int, op_count: int, samples: dict) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "weibayes")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "profile": "smoke" if args.smoke else "full",
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "platform": platform.platform(), "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "sizes": w.sizes(), "passes": passes, "ops": op_count, "percentile_samples": samples,
        "mix_drawn": getattr(w, "drawn", None),
    }


def run(args) -> int:
    import gate
    import hostspeed
    import tracing
    import workloads

    profile_name = "smoke" if args.smoke else "full"
    w = workloads.WORKLOADS[args.workload](args.seed, workloads.PROFILES[profile_name])
    tracer = tracing.Tracer()
    check_reference = args.seed == gate.REFERENCE_SEED and not args.record_reference
    expected = gate.load().get(profile_name, {}).get(args.workload) if check_reference else None
    problems: list[str] = []
    if check_reference and expected is None:
        problems.append(f"no reference recorded for {args.workload} ({profile_name})")

    setup_walls, import_times, setup_scales = cold_setup(args.workload, args.seed, 1 if args.smoke else SETUP_RUNS)

    warnings.simplefilter("ignore")  # prior-dominance notices would flood the output
    w.first_unit().call()  # one-time costs (lazy imports, Gauss-Legendre nodes) stay out of the timing
    records = []  # (pass, kind, seconds, reps, raised, fail count, start)
    first_views: dict = {}
    reference = None  # "exact", "within tolerance" or "MISMATCH" once compared
    speed = hostspeed.HostSpeed()
    speed.sample(force=True)
    start = time.perf_counter()
    k = 0
    while True:
        traced = args.trace == 1 and k % 2 == 1
        ops = w.ops(k)  # inputs are generated outside the timed and traced region
        with tracer.installed() if traced else contextlib.nullcontext():
            for op in ops:
                # an untraced run may stop inside a pass once the first pass is done,
                # so a long pass does not stretch the run past --seconds
                if args.trace == 0 and k > 0 and time.perf_counter() - start >= args.seconds:
                    break
                tracer.op = len(records)
                t0 = time.perf_counter()
                out = op.call()
                dt = time.perf_counter() - t0
                records.append((k, op.kind, dt, op.reps, int("error" in out), w.fail_count(out), t0))
                speed.sample(dt)
                problems += w.invariants(op, out)
                if k == 0:
                    first_views[op.key] = w.reference_view(out)
        if k == 0 and expected is not None:
            mismatches, exact = gate.compare(expected, first_views)
            reference = "MISMATCH" if mismatches else "exact" if exact else "within tolerance"
            problems += mismatches
        k += 1
        if args.record_reference:
            gate.record(args.workload, profile_name, first_views)
            break
        # a traced run ends on an untraced pass, so every traced pass has a successor to compare with
        if time.perf_counter() - start >= args.seconds and (args.trace == 0 or (k >= 3 and k % 2 == 1)):
            break

    speed.sample(force=True)
    measured = [r for r in records if args.trace == 0 or r[0] % 2 == 0]
    attempted = sum(r[3] for r in records)
    failed = sum(r[4] for r in records)
    fail_count = sum(r[5] for r in records)
    raw_s = [r[2] for r in measured]
    # operation times at the nominal host speed (hostspeed.py); the metrics use these
    norm_s = [r[2] * speed.scale(r[6], r[6] + r[2]) for r in measured]
    is_work = lambda r: r[3] > 0  # noqa: E731  (cells, ladder rows, requests; not the 1e5-draw calibrations)
    op_ms = [t * 1e3 for r, t in zip(measured, norm_s) if is_work(r)]
    work_per_s = rate(measured, norm_s, is_work, lambda r: r[3])
    setup_s = statistics.median(t * f for t, f in zip(setup_walls, setup_scales))
    raw = {
        "setup_s": statistics.median(setup_walls),
        "work_per_s": rate(measured, raw_s, is_work, lambda r: r[3]),
        "op_ms_p99": percentile([t * 1e3 for r, t in zip(measured, raw_s) if is_work(r)], 99),
        "op_ms_p50": percentile([t * 1e3 for r, t in zip(measured, raw_s) if is_work(r)], 50),
        "host_kernel_us": speed.median_s() * 1e6,
    }

    named = {"setup_s": (setup_s, "s")}
    if args.workload == "bayes-grid":
        named["bayes_reps_per_s"] = (work_per_s, "1/s")
        named["bayes_fail_ratio"] = (fail_count / attempted, "ratio")
    elif args.workload == "mle-ladder":
        named["mle_reps_per_s"] = (work_per_s, "1/s")
        named["calib_draws_per_s"] = (rate(measured, norm_s, lambda r: r[1] == "calib", lambda r: w.draws), "1/s")
        named["mle_fail_ratio"] = (fail_count / attempted, "ratio")
    else:
        named["request_ms_p50"] = (percentile(op_ms, 50), "ms")
        named["request_ms_p99"] = (percentile(op_ms, 99), "ms")
        named["request_fail_ratio"] = (fail_count / attempted, "ratio")

    if args.trace == 0:
        metrics = {
            "setup_s": named["setup_s"],
            "work_per_s": (work_per_s, "1/s"),
            "op_ms_p99": (percentile(op_ms, 99), "ms"),
        }
    else:
        traced_passes = k // 2
        pass_s = [sum(r[2] for r in records if r[0] == j) for j in range(k)]
        ratios = [pass_s[j] / pass_s[j + 1] for j in range(1, k, 2)]
        metrics = tracer.layer_metrics(traced_passes)
        metrics["cli.import_s"] = (statistics.median(import_times), "s")
        metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.csv"))

    correct = not problems
    info = manifest(args, w, k, len(records), {"op_ms": len(op_ms), "setup_s": len(setup_walls)})
    report = {
        "manifest": info,
        "reference": reference,
        "problems": problems[:50],
        "named_metrics": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "raw_metrics": raw,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed, "fail_count": fail_count,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    # every operation and host-speed sample, so other aggregations can be checked afterwards
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.ops.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"ops": [[r[0], r[1], r[6] - start, r[2], r[3]] for r in records],
                   "host_samples": [[t - start, v] for t, v in zip(speed.times, speed.values)]}, fh)

    print(f"{args.workload}: seed {args.seed}, {k} passes, {len(records)} operations, "
          f"{attempted} attempted, {failed} raised, {fail_count} counted in the fail ratio")
    for name, (v, u) in named.items():
        print(f"  {name} = {v:.6g} {u}")
    print("  not normalised: " + ", ".join(f"{name} = {v:.6g}" for name, v in raw.items()))
    if reference:
        print(f"  reference outputs: {reference} (rel tol {gate.REL_TOL:g})")
    for line in problems[:20]:
        print(f"  CHECK FAILED: {line}")
    print("manifest " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weibayes", "__init__.py")):
        print(f"error: no weibayes package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
