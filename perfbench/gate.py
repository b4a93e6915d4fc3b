"""Correctness gate: the first pass of a reference-seed run against the
outputs recorded at the commit that defined the benchmark.

Tolerance.  Real-valued outputs must agree to ``REL_TOL`` = 1e-7 relative.
The posterior means stop refining once successive log-integrals agree to
1e-8, so another quadrature meeting the same tolerance can move a ratio
I_1/I_0 or I_2/I_0 by about 2e-8; the MLE solves its score to 1e-10, which
moves beta_hat by about 1e-10 * beta**2 and x_R_hat, through ln K / beta**2
with R = 0.98, by at most about ten times that.  1e-7 leaves room for a
correct re-implementation while any change to the data, the substreams or
the estimator moves these outputs by 1e-4 or more.  Counts and flags must
match exactly, with one exception: an estimate recorded as not converged
has no accuracy to compare against, so its posterior means are only held
to the invariants, and it may become converged.

The gate also reports whether every output is bit-for-bit identical.
"""

from __future__ import annotations

import json
import os

REFERENCE_SEED = 0
REL_TOL = 1e-7
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
_UNCHECKED_IF_NOT_CONVERGED = ("x_R_tilde", "beta_tilde")


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compare(expected: dict, actual: dict) -> tuple[list[str], bool]:
    """Mismatches of ``actual`` against ``expected`` (op key -> outputs), and
    whether the two are bit-for-bit identical."""
    problems = []
    if set(expected) != set(actual):
        missing, extra = sorted(set(expected) - set(actual)), sorted(set(actual) - set(expected))
        return [f"operations differ: missing {missing[:4]}, unexpected {extra[:4]}"], False
    exact = expected == actual
    for key, want in expected.items():
        got = actual[key]
        if set(want) != set(got):
            problems.append(f"{key}: fields {sorted(got)} != {sorted(want)}")
            continue
        lenient = want.get("converged") is False
        for field, w in want.items():
            g = got[field]
            if lenient and (field == "converged" or field in _UNCHECKED_IF_NOT_CONVERGED):
                continue
            if isinstance(w, float) and isinstance(g, float):
                if not abs(g - w) <= REL_TOL * abs(w):
                    problems.append(f"{key}.{field} = {g!r}, reference {w!r} (rel tol {REL_TOL:g})")
            elif g != w:
                problems.append(f"{key}.{field} = {g!r}, reference {w!r}")
    return problems, exact


def record(workload: str, profile: str, views: dict) -> None:
    data = load() if os.path.exists(PATH) else {"seed": REFERENCE_SEED}
    data.setdefault(profile, {})[workload] = views
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
