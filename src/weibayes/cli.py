"""Command-line front end.

Subcommands: estimate, mle, prior-pdf, simulate, calibrate-b.  Exit codes
separate user errors (2, including files that cannot be opened),
elicitation-constraint violations and degenerate samples (3), and numerical
non-convergence (4), because constraint diagnostics are user-facing: they
tell the analyst to pick a smaller weight.
Randomized subcommands require an explicit seed; there is no wall-clock
default.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import mle, posterior, simulate
from .censoring import load_sample_csv
from .errors import (
    ElicitationConstraintError,
    InputValidationError,
    NoFiniteMleError,
)
from .prior import hyper_a, igg_pdf, load_prior_spec
from .posterior import QuadratureSettings

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONSTRAINT = 3
EXIT_NO_CONVERGENCE = 4


def format_record(record) -> str:
    """A dataclass record as name=value lines, in field order.

    Numbers print by ``repr``, booleans as true/false, and a tuple field as
    one numbered line per element (``log_I`` as ``log_I0``, ``log_I1``, ...).
    """
    lines = []
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        for suffix, v in enumerate(value) if isinstance(value, tuple) else [("", value)]:
            lines.append(f"{field.name}{suffix}=" + (str(v).lower() if isinstance(v, bool) else repr(v)))
    return "\n".join(lines)


format_estimate_record = format_record
format_mle_record = format_record


def _quad_settings(args) -> QuadratureSettings | None:
    return None if args.rel_tol is None else QuadratureSettings(rel_tol=args.rel_tol)


def _cmd_estimate(args) -> int:
    sample = load_sample_csv(args.sample)
    spec = load_prior_spec(args.prior)
    est = posterior.estimate(spec, sample, _quad_settings(args))
    print(format_record(est))
    return EXIT_OK if est.converged else EXIT_NO_CONVERGENCE


def _cmd_mle(args) -> int:
    sample = load_sample_csv(args.sample)
    R = load_prior_spec(args.prior).R if args.prior else args.reliability
    result = mle.fit(sample, R)
    print(format_record(result))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_prior_pdf(args) -> int:
    if (args.a is None) == (args.xbar_R is None):
        raise InputValidationError("give exactly one of --a and --xbar-r")
    for flag, value in (("--a", args.a), ("--x-min", args.x_min), ("--x-max", args.x_max)):
        if value is not None and not 0.0 < value < math.inf:
            raise InputValidationError(f"{flag} must be positive and finite, got {value!r}")
    a = args.a if args.a is not None else hyper_a(args.xbar_R, args.w, args.beta)
    x_min = args.x_min if args.x_min is not None else 1e-3 * a
    x_max = args.x_max if args.x_max is not None else 300.0 * a
    if not 0.0 < x_min < x_max < math.inf:
        raise InputValidationError(
            f"the grid needs 0 < x_min < x_max < inf, got x_min = {x_min!r}, x_max = {x_max!r}"
        )
    if args.points < 2:
        raise InputValidationError("--points must be at least 2")
    grid = np.exp(np.linspace(math.log(x_min), math.log(x_max), args.points))
    lines = ["x_R,density"]
    lines += [f"{float(x)!r},{igg_pdf(float(x), a, args.w, args.beta)!r}" for x in grid]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if (args.config is None) == (args.table is None):
        raise InputValidationError("give exactly one of --config and --table")
    settings = _quad_settings(args)
    if args.config is not None:
        cfg = simulate.load_experiment_config(args.config)
        given = {"replications": args.replications, "seed": args.seed}
        cfg = dataclasses.replace(cfg, **{k: v for k, v in given.items() if v is not None})
        result = simulate.run_experiment(cfg, settings)
    else:
        if args.seed is None:
            raise InputValidationError("--table runs require an explicit --seed")
        replications = args.replications if args.replications is not None else 2000
        result = simulate.reproduce_table(args.table, replications, args.seed, settings)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            result.to_csv(fh, paper_style=args.paper_format)
    else:
        result.to_csv(sys.stdout, paper_style=args.paper_format)
    return EXIT_OK


def _cmd_calibrate_b(args) -> int:
    entry = mle.calibrate_B(args.n, args.r, args.replications, args.seed, cache_path=args.out)
    print(",".join(mle.CACHE_FIELDS))
    print(mle.calibration_row(entry))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weibayes",
        description="Bayes and maximum-likelihood Weibull reliable-life estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="posterior-mean estimates from a sample and a prior")
    p_est.add_argument("--sample", required=True, help="censored sample CSV (time,status)")
    p_est.add_argument("--prior", required=True, help="prior specification JSON")
    p_est.add_argument("--rel-tol", type=float, default=None,
                       help="bound on the estimated relative error of each log integral "
                            "(default 1e-8); the estimate exits 4 if it is not met")
    p_est.set_defaults(func=_cmd_estimate)

    p_mle = sub.add_parser("mle", help="maximum-likelihood fit of a sample")
    p_mle.add_argument("--sample", required=True, help="censored sample CSV (time,status)")
    p_mle.add_argument("--prior", default=None, help="optional prior JSON supplying R")
    p_mle.add_argument("--reliability", type=float, default=0.98,
                       help="reliability level for the reliable life (default 0.98)")
    p_mle.set_defaults(func=_cmd_mle)

    p_pdf = sub.add_parser("prior-pdf", help="conditional prior density curve as CSV")
    p_pdf.add_argument("--a", type=float, default=None, help="scale hyperparameter")
    p_pdf.add_argument("--xbar-r", dest="xbar_R", type=float, default=None,
                       help="anticipated reliable life (scale derived from it)")
    p_pdf.add_argument("--w", type=float, required=True, help="weight hyperparameter")
    p_pdf.add_argument("--beta", type=float, required=True, help="shape value")
    p_pdf.add_argument("--x-min", type=float, default=None)
    p_pdf.add_argument("--x-max", type=float, default=None)
    p_pdf.add_argument("--points", type=int, default=512)
    p_pdf.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_pdf.set_defaults(func=_cmd_prior_pdf)

    p_sim = sub.add_parser("simulate", help="Monte Carlo benchmark tables")
    p_sim.add_argument("--config", default=None, help="experiment configuration JSON")
    p_sim.add_argument("--table", default=None, help="table id: 3..8 or 3b..8b")
    p_sim.add_argument("--replications", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--rel-tol", type=float, default=None,
                       help="bound on the estimated relative error of each log integral "
                            "(default 1e-8); replications that miss it count as failures")
    p_sim.add_argument("--paper-format", action="store_true",
                       help="two-digit scientific notation (.38E+00)")
    p_sim.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cal = sub.add_parser("calibrate-b", help="calibrate the shape unbiasing factor")
    p_cal.add_argument("n", type=int)
    p_cal.add_argument("r", type=int)
    p_cal.add_argument("replications", type=int)
    p_cal.add_argument("seed", type=int)
    p_cal.add_argument("--out", default=None, help="calibration cache CSV to reuse/append")
    p_cal.set_defaults(func=_cmd_calibrate_b)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ElicitationConstraintError, NoFiniteMleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (InputValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # a named input or output file that cannot be opened
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename and exc.strerror else exc
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    raise SystemExit(main())
