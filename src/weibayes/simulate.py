"""Monte Carlo benchmarking of the Bayes estimators against the MLE.

The study design crosses three true shapes (2, 1, 0.6) with nine prior
scenarios: shape intervals that are centered on, above, or below the truth,
combined with an anticipated reliable life equal to, ten times, or one tenth
of the true value.  Four weight settings are examined: w = 1.1/beta,
1.4/beta, 1.8/beta and the fixed value 1/beta1 + 0.1.  Estimator quality is
summarized by bias, population standard deviation, and root mean square
error of the empirical distribution over the replications.

Every replication draws from its own counter-derived substream, so cells are
reproducible and order-independent: replication i of a Bayes cell draws from
default_rng([seed, case_index, rule_index, i]) and of an MLE row from
default_rng([seed, n, r, i]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import mle, posterior, weibull
from .censoring import type2_log_times
from .errors import InputValidationError
from .prior import BetaInterval, PriorSpec, WRule, check_fields, read_json
from .posterior import QuadratureSettings

__all__ = [
    "CASE_LABELS",
    "STANDARD_W_LABELS",
    "DEFAULT_SEED",
    "CaseDefinition",
    "ExperimentConfig",
    "PerformanceMetrics",
    "TableResult",
    "build_case",
    "resolve_w_rule",
    "metrics",
    "replication_rng",
    "run_cell",
    "run_mle_row",
    "reproduce_table",
    "paper_format",
    "experiment_config_from_dict",
    "load_experiment_config",
    "run_experiment",
    "table_config",
]

DEFAULT_SEED = 42

# Monte Carlo draws behind the B(n, r) factor of each MLE table row
_B_REPLICATIONS = 10**4

CASE_LABELS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")

# shape intervals by true shape and interval type: 1 centered, 2 upper
# biased (truth at the lower bound), 3 lower biased (truth at the upper bound)
_SHAPE_INTERVALS = {
    2.0: {1: (1.0, 3.0), 2: (2.0, 4.0), 3: (0.5, 2.0)},
    1.0: {1: (0.7, 1.3), 2: (1.0, 1.3), 3: (0.7, 1.0)},
    0.6: {1: (0.3, 0.9), 2: (0.6, 0.9), 3: (0.3, 0.6)},
}

# anticipated-reliable-life factors in column order: exact, tenfold, one tenth
_XBAR_FACTORS = (1.0, 10.0, 0.1)

STANDARD_W_LABELS = ("1.1/beta", "1.4/beta", "1.8/beta", "1/beta1+0.1")

# (true shape, n, r) per Bayes table id
_BAYES_TABLES = {
    "3": (2.0, 3, 3),
    "4": (1.0, 3, 3),
    "5": (0.6, 3, 3),
    "6": (2.0, 5, 3),
    "7": (1.0, 5, 3),
    "8": (0.6, 5, 3),
}
_MLE_COMPLETE_ROWS = ((3, 3), (5, 5), (7, 7), (10, 10), (15, 15), (22, 22), (30, 30))
_MLE_CENSORED_ROWS = ((5, 3), (10, 4), (10, 6), (20, 8), (20, 12), (40, 16), (40, 24))
_MLE_TABLES = {
    "3b": (2.0, _MLE_COMPLETE_ROWS),
    "4b": (1.0, _MLE_COMPLETE_ROWS),
    "5b": (0.6, _MLE_COMPLETE_ROWS),
    "6b": (2.0, _MLE_CENSORED_ROWS),
    "7b": (1.0, _MLE_CENSORED_ROWS),
    "8b": (0.6, _MLE_CENSORED_ROWS),
}


@dataclass(frozen=True)
class CaseDefinition:
    """One prior scenario: a label, a shape interval and an anticipated x_R."""

    label: str
    interval: BetaInterval
    xbar_R: float


@dataclass(frozen=True)
class PerformanceMetrics:
    """Bias, population standard deviation and RMSE of an estimator sample."""

    bias: float
    std_dev: float
    rmse: float
    count: int
    failures: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    true_beta: float
    n: int
    r: int
    seed: int
    true_x_R: float = 1.0
    R: float = 0.98
    replications: int = 2000
    prior_cases: tuple[str, ...] = CASE_LABELS
    w_rules: tuple[str, ...] = STANDARD_W_LABELS

    def __post_init__(self) -> None:
        if not 1 <= self.r <= self.n:
            raise ValueError(f"need 1 <= r <= n, got r = {self.r}, n = {self.n}")
        _check_run(self.replications, self.seed)
        for name in ("prior_cases", "w_rules"):
            labels = getattr(self, name)
            if not (isinstance(labels, tuple) and labels and all(isinstance(x, str) for x in labels)):
                raise ValueError(f"{name} must be a non-empty list of strings, got {labels!r}")
        for label in self.prior_cases:
            if label not in CASE_LABELS:
                raise ValueError(f"unknown prior case {label!r}")


def _check_run(replications: int, seed: int) -> None:
    if replications < 1:
        raise ValueError("replications must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")


def build_case(label: str, true_beta: float, true_x_R: float = 1.0) -> CaseDefinition:
    """Map a case label (I..IX) to its interval and anticipated reliable life."""
    if label not in CASE_LABELS:
        raise ValueError(f"unknown case label {label!r}; expected one of {CASE_LABELS}")
    if true_beta not in _SHAPE_INTERVALS:
        raise ValueError(
            f"no tabulated intervals for true_beta = {true_beta!r}; "
            "supported values are 2, 1 and 0.6 (build a CaseDefinition directly otherwise)"
        )
    index = CASE_LABELS.index(label)
    interval_type = 1 + index // 3
    factor = _XBAR_FACTORS[index % 3]
    lo, hi = _SHAPE_INTERVALS[true_beta][interval_type]
    return CaseDefinition(label=label, interval=BetaInterval(lo, hi), xbar_R=factor * true_x_R)


def resolve_w_rule(label: str, interval: BetaInterval) -> WRule:
    """Turn a weight-rule label into a concrete rule for a given interval.

    Understands "<c>/beta", "1/beta1+0.1", "fixed:<v>", "unit" and
    "piecewise96".
    """
    text = label.strip()
    if text == "1/beta1+0.1":
        return WRule.fixed(1.0 / interval.beta1 + 0.1)
    if text == "unit":
        return WRule.unit()
    if text == "piecewise96":
        return WRule.piecewise96()
    if text.startswith("fixed:"):
        try:
            return WRule.fixed(float(text.split(":", 1)[1]))
        except ValueError:
            raise InputValidationError(f"malformed fixed weight rule {label!r}") from None
    if text.endswith("/beta"):
        try:
            return WRule.const_over_beta(float(text[: -len("/beta")]))
        except ValueError:
            raise InputValidationError(f"malformed weight rule {label!r}") from None
    raise InputValidationError(f"unknown weight rule label {label!r}")


def metrics(estimates, true_value: float) -> PerformanceMetrics:
    """Summary statistics of an estimator sample against the true value.

    The standard deviation divides by the count (population form), so the
    identity rmse**2 = std_dev**2 + bias**2 holds exactly.
    """
    values = np.asarray(list(estimates), dtype=float)
    if values.size == 0:
        raise ValueError("metrics need at least one estimate")
    bias = float(values.mean() - true_value)
    std_dev = float(values.std(ddof=0))
    return PerformanceMetrics(
        bias=bias,
        std_dev=std_dev,
        rmse=math.hypot(std_dev, bias),
        count=int(values.size),
    )


def _summary(kept, true_value: float, failures: int) -> PerformanceMetrics:
    """Metrics of the kept estimates with the excluded count; count 0 and nan
    bias, std_dev and rmse when nothing is kept."""
    if len(kept) == 0:
        return PerformanceMetrics(math.nan, math.nan, math.nan, count=0, failures=failures)
    return replace(metrics(kept, true_value), failures=failures)


def replication_rng(seed: int, *path: int) -> np.random.Generator:
    """Substream derived from the run seed and a tuple of counter indices: the
    generator ``default_rng([seed, *path])`` returns, built directly."""
    key = [int(seed), *map(int, path)]
    if all(0 <= k < 2**32 for k in key):  # the same 32-bit words, not converted one by one
        key = np.array(key, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _sorted_draws(model, n: int, replications: int, seed: int, *path: int) -> np.ndarray:
    """Sorted samples of n lifetimes, row i drawn from substream (seed, *path, i)."""
    rows = [weibull.sample(model, n, replication_rng(seed, *path, i)) for i in range(replications)]
    return np.sort(rows, axis=1)


def run_cell(
    cfg: ExperimentConfig,
    case: CaseDefinition,
    rule: WRule,
    rule_index: int = 0,
    settings: QuadratureSettings | None = None,
) -> tuple[PerformanceMetrics, PerformanceMetrics]:
    """Replicate one (case, weight rule) cell of a Bayes table.

    Each replication draws n lifetimes from the true model and censors at r;
    all replications are then estimated in one batched quadrature pass.
    Replications whose quadrature fails to converge are excluded and counted
    in ``failures``; when none converges, both metrics have count 0 and nan
    bias, std_dev and rmse.  The case label must be one of CASE_LABELS, whose
    position indexes the replication substreams.
    """
    if case.label not in CASE_LABELS:
        raise ValueError(f"unknown case label {case.label!r}; expected one of {CASE_LABELS}")
    spec = PriorSpec(interval=case.interval, xbar_R=case.xbar_R, R=cfg.R, w_rule=rule)
    model = weibull.ReliableLifeWeibull(x_R=cfg.true_x_R, beta=cfg.true_beta, R=cfg.R)
    case_index = CASE_LABELS.index(case.label)
    draws = _sorted_draws(model, cfg.n, cfg.replications, cfg.seed, case_index, rule_index)
    log_times = type2_log_times(draws, cfg.r)
    log_P = log_times[:, : cfg.r].sum(axis=1)
    estimates = posterior.estimate_many(spec, log_times, log_P, cfg.r, settings)
    kept = [est for est in estimates if est.converged]
    failures = len(estimates) - len(kept)
    m_x = _summary([est.x_R_tilde for est in kept], cfg.true_x_R, failures)
    m_beta = _summary([est.beta_tilde for est in kept], cfg.true_beta, failures)
    return m_x, m_beta


def run_mle_row(
    true_beta: float,
    n: int,
    r: int,
    R: float,
    replications: int,
    seed: int,
    cache_path=None,
) -> tuple[PerformanceMetrics, PerformanceMetrics, float]:
    """One (n, r) row of an MLE table: metrics for x_R and beta plus DS of
    the unbiased shape estimate B*beta_hat.  Replications without a finite,
    converged MLE are excluded and counted in ``failures``; if none is left,
    the metrics have count 0 and nan bias, std_dev and rmse, and DS is nan."""
    _check_run(replications, seed)
    model = weibull.ReliableLifeWeibull(x_R=1.0, beta=true_beta, R=R)
    beta_hat, x_R_hat, ok = mle.fit_many(_sorted_draws(model, n, replications, seed, n, r), r, R)
    failures = int((~ok).sum())
    m_x = _summary(x_R_hat[ok], 1.0, failures)
    m_beta = _summary(beta_hat[ok], true_beta, failures)
    if not ok.any():
        return m_x, m_beta, math.nan
    entry = mle.calibrate_B(n, r, _B_REPLICATIONS, seed, cache_path=cache_path)
    return m_x, m_beta, metrics(entry.B * beta_hat[ok], true_beta).std_dev


@dataclass(frozen=True)
class TableResult:
    """A reproduced benchmark table with its layout metadata."""

    table_id: str
    kind: str  # "bayes" or "mle"
    columns: tuple[str, ...]
    rows: tuple[tuple, ...] = field(repr=False)

    def to_csv(self, fh, paper_style: bool = False) -> None:
        fh.write(",".join(self.columns) + "\n")
        for row in self.rows:
            cells = []
            for value in row:
                if isinstance(value, float):
                    cells.append(paper_format(float(value)) if paper_style else repr(float(value)))
                else:
                    cells.append(str(value))
            fh.write(",".join(cells) + "\n")


def table_config(table_id, replications: int, seed: int) -> ExperimentConfig:
    """Experiment configuration matching a Bayes table id (3..8)."""
    key = str(table_id)
    if key not in _BAYES_TABLES:
        raise InputValidationError(f"table {table_id!r} is not a Bayes table (expected 3..8)")
    true_beta, n, r = _BAYES_TABLES[key]
    return ExperimentConfig(
        true_beta=true_beta, n=n, r=r, seed=seed, replications=replications
    )


def _mle_table(table_id: str, replications: int, seed: int) -> TableResult:
    true_beta, designs = _MLE_TABLES[table_id]
    columns = ("n", "r", "rq_xR", "rq_beta", "ds_beta_bar", "failures")
    rows = []
    for n, r in designs:
        m_x, m_beta, ds_bar = run_mle_row(true_beta, n, r, 0.98, replications, seed)
        rows.append((n, r, m_x.rmse, m_beta.rmse, ds_bar, m_x.failures))
    return TableResult(table_id=table_id, kind="mle", columns=columns, rows=tuple(rows))


def reproduce_table(
    table_id,
    replications: int,
    seed: int,
    settings: QuadratureSettings | None = None,
) -> TableResult:
    """Reproduce a benchmark table: Bayes grids 3..8 or MLE ladders 3b..8b."""
    key = str(table_id)
    if key in _BAYES_TABLES:
        table = run_experiment(table_config(key, replications, seed), settings)
        return replace(table, table_id=key)
    if key in _MLE_TABLES:
        return _mle_table(key, replications, seed)
    raise InputValidationError(f"unknown table id {table_id!r}")


def paper_format(value: float) -> str:
    """Two-significant-digit scientific notation with a leading dot, .38E+00."""
    if value == 0.0 or not math.isfinite(value):
        return ".00E+00" if value == 0.0 else str(value)
    sign = "-" if value < 0.0 else ""
    exponent = math.floor(math.log10(abs(value))) + 1
    mantissa = abs(value) / 10.0**exponent
    digits = round(mantissa * 100.0)
    if digits >= 100:
        digits = 10
        exponent += 1
    return f"{sign}.{digits:02d}E{exponent:+03d}"


def experiment_config_from_dict(d) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON object form."""
    check_fields(
        d,
        "experiment configuration",
        {"true_beta", "n", "r", "seed"},
        {"true_x_R", "R", "replications", "prior_cases", "w_rules"},
    )
    try:
        return ExperimentConfig(
            true_beta=float(d["true_beta"]),
            n=int(d["n"]),
            r=int(d["r"]),
            seed=int(d["seed"]),
            true_x_R=float(d.get("true_x_R", 1.0)),
            R=float(d.get("R", 0.98)),
            replications=int(d.get("replications", 2000)),
            prior_cases=_tuple_if_list(d.get("prior_cases", CASE_LABELS)),
            w_rules=_tuple_if_list(d.get("w_rules", STANDARD_W_LABELS)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputValidationError(str(exc)) from None


def _tuple_if_list(value):
    # a JSON string must reach the label check whole, not split into characters
    return tuple(value) if isinstance(value, list) else value


def load_experiment_config(path) -> ExperimentConfig:
    return experiment_config_from_dict(read_json(path))


def run_experiment(cfg: ExperimentConfig, settings: QuadratureSettings | None = None) -> TableResult:
    """Run a full Bayes grid described by an ExperimentConfig."""
    columns = (
        ["test"]
        + [f"rq_xR[w={lbl}]" for lbl in cfg.w_rules]
        + [f"rq_beta[w={lbl}]" for lbl in cfg.w_rules]
        + [f"failures[w={lbl}]" for lbl in cfg.w_rules]
    )
    rows = []
    for label in cfg.prior_cases:
        case = build_case(label, cfg.true_beta, cfg.true_x_R)
        rq_x, rq_beta, fails = [], [], []
        for rule_index, rule_label in enumerate(cfg.w_rules):
            rule = resolve_w_rule(rule_label, case.interval)
            m_x, m_beta = run_cell(cfg, case, rule, rule_index, settings)
            rq_x.append(m_x.rmse)
            rq_beta.append(m_beta.rmse)
            fails.append(m_x.failures)
        rows.append(tuple([label] + rq_x + rq_beta + fails))
    return TableResult(table_id="custom", kind="bayes", columns=tuple(columns), rows=tuple(rows))
