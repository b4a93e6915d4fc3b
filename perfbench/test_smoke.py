"""Fast test of the benchmark harness at tiny sizes (about a minute).

Covers all three workloads, the traced run, the correctness gate on the
reference seed, the invariant checks on a held-out seed, a gate that must
reject a changed reference, and the refusal to run without the package.
It is not part of the package's own test suite:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bayes-grid", "mle-ladder", "interactive")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run(root, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(dest, with_src=True):
    shutil.copytree(HERE, os.path.join(dest, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_seed_passes_the_gate(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    out = result(proc)
    assert out["correct"] is True
    assert out["attempted"] >= 1
    assert out["failed"] == 0
    expected = [m["name"] for m in BENCHMARK["end_to_end" if trace == 0 else "per_layer"]]
    assert sorted(out["metrics"]) == sorted(expected)
    assert "reference outputs: exact" in proc.stdout
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_held_out_seed_checks_invariants_only():
    proc = run(ROOT, "--workload", "interactive", "--seed", "7", "--seconds", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert result(proc)["correct"] is True
    assert "reference outputs" not in proc.stdout


def test_gate_rejects_a_changed_reference(tmp_path):
    root = copy_checkout(str(tmp_path))
    path = os.path.join(root, "perfbench", "reference.json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    first = next(iter(ref["smoke"]["bayes-grid"].values()))
    first["rmse_x"] *= 1.0 + 1e-6  # ten times the tolerance
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)
    proc = run(root, "--workload", "bayes-grid", "--seed", "0", "--seconds", "0", "--smoke")
    assert proc.returncode == 1
    assert result(proc)["correct"] is False
    assert "rmse_x" in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    root = copy_checkout(str(tmp_path), with_src=False)
    proc = run(root, "--workload", "bayes-grid", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
