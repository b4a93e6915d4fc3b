"""Harness: case grid, metrics, replication cells, tables, formatting."""

import io
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weibayes import simulate
from weibayes.censoring import type2_censor
from weibayes.errors import InputValidationError, PriorDominanceWarning
from weibayes.prior import BetaInterval, PriorSpec, WRule
from weibayes.posterior import QuadratureSettings, estimate
from weibayes.weibull import ReliableLifeWeibull, sample
from weibayes.simulate import (
    CASE_LABELS,
    STANDARD_W_LABELS,
    CaseDefinition,
    ExperimentConfig,
    build_case,
    experiment_config_from_dict,
    metrics,
    paper_format,
    replication_rng,
    reproduce_table,
    resolve_w_rule,
    run_cell,
    run_experiment,
    run_mle_row,
)


class TestBuildCase:
    def test_centered_interval_exact_anticipation(self):
        case = build_case("I", 2.0)
        assert case.interval == BetaInterval(1.0, 3.0)
        assert case.xbar_R == 1.0

    def test_upper_biased_interval_low_anticipation(self):
        case = build_case("VI", 0.6)
        assert case.interval == BetaInterval(0.6, 0.9)
        assert case.xbar_R == 0.1

    def test_lower_biased_interval_high_anticipation(self):
        case = build_case("VIII", 1.0)
        assert case.interval == BetaInterval(0.7, 1.0)
        assert case.xbar_R == 10.0

    def test_full_grid_layout(self):
        # rows walk the interval types, columns the anticipation factors
        for idx, label in enumerate(CASE_LABELS):
            case = build_case(label, 1.0)
            assert case.xbar_R == (1.0, 10.0, 0.1)[idx % 3]

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            build_case("X", 1.0)

    def test_untabulated_shape_rejected(self):
        with pytest.raises(ValueError):
            build_case("I", 1.7)

    def test_custom_case_constructible(self):
        case = CaseDefinition("I", BetaInterval(0.9, 1.9), 2.5)
        assert case.xbar_R == 2.5


class TestResolveWRule:
    def test_standard_settings(self):
        iv = BetaInterval(0.3, 0.9)
        assert resolve_w_rule("1.1/beta", iv) == WRule.const_over_beta(1.1)
        assert resolve_w_rule("1/beta1+0.1", iv) == WRule.fixed(1.0 / 0.3 + 0.1)

    def test_extra_kinds(self):
        iv = BetaInterval(1.1, 2.0)
        assert resolve_w_rule("unit", iv) == WRule.unit()
        assert resolve_w_rule("piecewise96", iv) == WRule.piecewise96()
        assert resolve_w_rule("fixed:2.5", iv) == WRule.fixed(2.5)

    def test_malformed_label_rejected(self):
        with pytest.raises(InputValidationError):
            resolve_w_rule("lots/beta", BetaInterval(1.0, 2.0))
        with pytest.raises(InputValidationError):
            resolve_w_rule("bogus", BetaInterval(1.0, 2.0))
        with pytest.raises(InputValidationError, match="malformed fixed weight rule 'fixed:abc'"):
            resolve_w_rule("fixed:abc", BetaInterval(1.0, 2.0))


class TestMetrics:
    def test_exact_estimates(self):
        m = metrics([1.0, 1.0, 1.0], 1.0)
        assert (m.bias, m.std_dev, m.rmse) == (0.0, 0.0, 0.0)

    def test_pure_spread(self):
        m = metrics([0.0, 2.0], 1.0)
        assert (m.bias, m.std_dev, m.rmse) == (0.0, 1.0, 1.0)

    def test_pure_bias(self):
        m = metrics([2.0, 2.0], 1.0)
        assert (m.bias, m.std_dev, m.rmse) == (1.0, 0.0, 1.0)

    def test_rmse_identity_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            values = rng.normal(3.0, 2.0, int(rng.integers(2, 40)))
            m = metrics(values, 3.0)
            assert abs(m.rmse**2 - (m.std_dev**2 + m.bias**2)) < 1e-12

    def test_population_standard_deviation(self):
        m = metrics([1.0, 3.0], 0.0)
        assert m.std_dev == 1.0  # 1/N, not 1/(N-1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            metrics([], 1.0)


class TestRunCell:
    def test_single_replication_degenerate_metrics(self):
        cfg = ExperimentConfig(true_beta=2.0, n=3, r=3, seed=9, replications=1)
        case = build_case("I", 2.0)
        m_x, m_beta = run_cell(cfg, case, resolve_w_rule("1.1/beta", case.interval))
        assert m_x.std_dev == 0.0
        assert m_x.count == 1 and m_x.failures == 0
        assert m_beta.count == 1

    def test_deterministic_and_order_free(self):
        cfg = ExperimentConfig(true_beta=2.0, n=3, r=3, seed=5, replications=8)
        case = build_case("I", 2.0)
        rule = resolve_w_rule("1.1/beta", case.interval)
        a = run_cell(cfg, case, rule)
        b = run_cell(cfg, case, rule)
        assert a == b

    def test_replication_streams_differ(self):
        streams = {tuple(replication_rng(1, 0, 0, i).random(2)) for i in range(20)}
        assert len(streams) == 20
        assert replication_rng(1, 0, 0, 3).random() == replication_rng(1, 0, 0, 3).random()

    @pytest.mark.parametrize(
        "seed,path",
        [(42, ()), (0, (0, 0, 0)), (17, (8, 3, 1999)), (2**32 - 1, (40, 24, 999)),
         (2**32, (1, 2)), (7, (2**40, 3)), (3, (1, 2, 3, 4, 5, 6))],
    )
    def test_replication_rng_is_default_rng_of_the_path(self, seed, path):
        got = replication_rng(seed, *path)
        want = np.random.default_rng([seed, *path])
        assert (got.random(8) == want.random(8)).all()
        assert (got.standard_exponential(5) == want.standard_exponential(5)).all()

    def test_cell_where_every_replication_fails(self):
        # table 7, case V, w = 1.4/beta: one panel cannot get below double rounding
        settings = QuadratureSettings(rel_tol=1e-20, max_panels=1)
        cfg = ExperimentConfig(true_beta=1.0, n=5, r=3, seed=17, replications=60)
        case = build_case("V", 1.0)
        rule = resolve_w_rule("1.4/beta", case.interval)
        for m in run_cell(cfg, case, rule, 1, settings):
            assert m.count == 0 and m.failures == 60
            assert math.isnan(m.bias) and math.isnan(m.std_dev) and math.isnan(m.rmse)
        cfg = replace(cfg, prior_cases=("V",), w_rules=("1.1/beta", "1.4/beta"))
        (row,) = run_experiment(cfg, settings).rows
        assert row[0] == "V" and math.isnan(row[2]) and math.isnan(row[4]) and row[6] == 60

    def test_rejects_case_label_outside_the_grid(self):
        cfg = ExperimentConfig(true_beta=2.0, n=3, r=3, seed=9, replications=1)
        case = CaseDefinition("custom", BetaInterval(1.0, 3.0), 1.0)
        with pytest.raises(ValueError, match="'custom'"):
            run_cell(cfg, case, WRule.const_over_beta(1.1))

    def test_unknown_rule_label_stops_the_run_before_any_cell(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simulate, "run_cell", lambda *args, **kwargs: calls.append(args))
        cfg = ExperimentConfig(
            true_beta=2.0, n=3, r=3, seed=1, prior_cases=("I", "II", "III"),
            w_rules=("1.1/beta", "1.4/beta", "bogus"),
        )
        with pytest.raises(InputValidationError, match="'bogus'"):
            run_experiment(cfg)
        assert calls == []

    def test_censored_design_runs(self):
        cfg = ExperimentConfig(true_beta=1.0, n=5, r=3, seed=5, replications=4)
        case = build_case("IV", 1.0)
        m_x, m_beta = run_cell(cfg, case, resolve_w_rule("1.4/beta", case.interval), 1)
        assert m_x.count == 4
        assert case.interval.beta1 < m_beta.bias + 1.0 < case.interval.beta2


def _key_word(rng):
    """A key int: below 2**32 half the time, otherwise up to 100 bits wide."""
    if rng.random() < 0.5:
        return int(rng.integers(0, 2**32))
    return int.from_bytes(rng.bytes(13), "little") >> int(rng.integers(4, 104 - 32))


class TestReplicationUniforms:
    """The one-pass draws of a cell or ladder row against numpy's own chain,
    one ``replication_rng`` per row; equality is exact."""

    def test_rows_are_the_replication_substreams(self):
        rng = np.random.default_rng(20261018)
        for stack in range(220):
            path = [_key_word(rng) for _ in range(int(rng.integers(0, 5)))]
            seed = 0 if stack % 10 == 0 else _key_word(rng)
            # log-uniform stack heights keep the oracle loop short; two full 2000-row stacks
            m = 2000 if stack in (0, 1) else int(np.exp(rng.uniform(0.0, np.log(2000.0))))
            n = int(rng.integers(1, 41))
            got = simulate._replication_uniforms(n, m, seed, *path)
            want = np.array([replication_rng(seed, *path, i).random(n) for i in range(m)])
            assert got.shape == (m, n) and got.dtype == np.float64
            assert np.array_equal(got, want), (seed, path, m, n)

    @pytest.mark.parametrize(
        "seed,path",
        [(0, ()), (0, (0, 0, 0)), (2**32 - 1, (2**32 - 1,)), (2**32, (1, 2)),
         (7, (2**40, 3)), (3, (1, 2, 3, 4, 5, 6)), (2**99 + 5, (2**64, 2**33 + 1, 0, 9))],
    )
    def test_key_edges(self, seed, path):
        got = simulate._replication_uniforms(40, 64, seed, *path)
        want = np.array([np.random.default_rng([seed, *path, i]).random(40) for i in range(64)])
        assert np.array_equal(got, want)

    def test_rejects_negative_key(self):
        with pytest.raises(ValueError, match="nonnegative"):
            simulate._replication_uniforms(3, 2, 1, -1)


class TestGoldenValues:
    """Exact reprs recorded before the draws were computed in one pass; the
    Bayes cell re-recorded under adaptive Gauss-Kronrod quadrature and again
    under the numpy log-gamma."""

    def test_complete_mle_ladder(self):
        assert repr(reproduce_table("4b", 200, 42).rows) == (
            "((3, 3, 11.976385135752016, 2.1233726877287027, 0.8295335781616456, 0), "
            "(5, 5, 7.544814846894722, 0.9252463692630448, 0.5527499727250721, 0), "
            "(7, 7, 4.654996324790891, 0.6299071417149976, 0.44132872288365027, 0), "
            "(10, 10, 2.9256732975041264, 0.43797229918330627, 0.3378146461953739, 0), "
            "(15, 15, 1.418847168129908, 0.2374726280521555, 0.19999761691013843, 0), "
            "(22, 22, 1.071850806235223, 0.19803604497193433, 0.175108853612311, 0), "
            "(30, 30, 0.8526420747448652, 0.15841464668213803, 0.14396922642913407, 0))"
        )

    def test_censored_mle_ladder(self):
        assert repr(reproduce_table("7b", 200, 42).rows) == (
            "((5, 3, 10.016521561481044, 3.530840988556709, 1.2448337927830957, 0), "
            "(10, 4, 5.038404790858595, 2.1161766634307937, 1.0151372701907442, 0), "
            "(10, 6, 4.2727200242873105, 0.9258526121692051, 0.5798714940486691, 0), "
            "(20, 8, 2.399631363389393, 0.6875341617181492, 0.4755838776119929, 0), "
            "(20, 12, 1.8076074274808898, 0.42185641229702764, 0.3176554468809399, 0), "
            "(40, 16, 1.3774126063981824, 0.32783632311056216, 0.2663755549946028, 0), "
            "(40, 24, 1.0420441971458763, 0.22286569744896248, 0.19514831410837155, 0))"
        )

    def test_censored_bayes_cell(self):
        cfg = simulate.table_config("7", 200, 42)
        case = build_case("V", cfg.true_beta)
        got = run_cell(cfg, case, resolve_w_rule("1.4/beta", case.interval), 1)
        assert repr(got) == (
            "(PerformanceMetrics(bias=1.6355643602769776, std_dev=0.8122315625251464, "
            "rmse=1.8261409824463937, count=200, failures=0), "
            "PerformanceMetrics(bias=0.16244028409915767, std_dev=0.01208718336911419, "
            "rmse=0.16288936705633567, count=200, failures=0))"
        )
        # the values recorded under 480-node panel doubling
        panel_doubling = (
            (1.6355643602769772, 0.8122315625251467, 1.8261409824463934),
            (0.16244028409915767, 0.01208718336911419, 0.16288936705633567),
        )
        for m, want in zip(got, panel_doubling):
            for value, old in zip((m.bias, m.std_dev, m.rmse), want):
                assert math.isclose(value, old, rel_tol=1e-12, abs_tol=0.0)

    def test_bayes_table_csv(self):
        """Table 7 (36 cells, 100 replications, seed 42) as ``to_csv`` writes it,
        byte for byte.  A change to the kernel, the quadrature or the batching
        must leave this file as it is; only a deliberate change of the draws,
        such as moving to one random stream per cell, may re-record it."""
        buf = io.StringIO()
        reproduce_table(7, 100, 42).to_csv(buf)
        with open(os.path.join(os.path.dirname(__file__), "data", "table7_r100_seed42.csv")) as fh:
            assert buf.getvalue() == fh.read()


def estimate_loop(cfg, case, rule, rule_index, settings=None):
    """One estimate per replication on its own substream: the unbatched reference."""
    spec = PriorSpec(case.interval, case.xbar_R, cfg.R, rule)
    model = ReliableLifeWeibull(cfg.true_x_R, cfg.true_beta, cfg.R)
    out = []
    for i in range(cfg.replications):
        rng = replication_rng(cfg.seed, CASE_LABELS.index(case.label), rule_index, i)
        s = type2_censor(sample(model, cfg.n, rng).tolist(), cfg.r)
        out.append(estimate(spec, s, settings))
    return out


class TestRunCellMatchesEstimateLoop:
    @pytest.mark.parametrize(
        "true_beta,n,label,rule_label,rule_index,settings,outcomes",
        [
            (2.0, 3, "I", "1.1/beta", 0, None, set()),
            (0.6, 5, "VIII", "1/beta1+0.1", 3, None, set()),
            # one panel and a tolerance inside the spread of its error
            # estimates: some replications converge and some do not
            (2.0, 3, "I", "1.1/beta", 0,
             QuadratureSettings(rel_tol=3e-8, max_panels=1),
             {(21, True), (21, False)}),
            (2.0, 5, "IV", "1.1/beta", 0,
             QuadratureSettings(rel_tol=1e-11, max_panels=1),
             {(21, True), (21, False)}),
        ],
    )
    def test_same_metrics_and_failures(
        self, true_beta, n, label, rule_label, rule_index, settings, outcomes
    ):
        cfg = ExperimentConfig(true_beta=true_beta, n=n, r=3, seed=17, replications=60)
        case = build_case(label, true_beta)
        rule = resolve_w_rule(rule_label, case.interval)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PriorDominanceWarning)
            reference = estimate_loop(cfg, case, rule, rule_index, settings)
            m_x, m_beta = run_cell(cfg, case, rule, rule_index, settings)
        assert outcomes <= {(e.node_count, e.converged) for e in reference}
        kept = [e for e in reference if e.converged]
        assert m_x.failures == m_beta.failures == len(reference) - len(kept)
        for got, values, truth in (
            (m_x, [e.x_R_tilde for e in kept], 1.0),
            (m_beta, [e.beta_tilde for e in kept], true_beta),
        ):
            want = metrics(values, truth)
            assert got.count == want.count
            for field in ("bias", "std_dev", "rmse"):
                assert math.isclose(getattr(got, field), getattr(want, field), rel_tol=1e-12)


class TestRunMleRow:
    def test_row_shapes_and_identity(self):
        m_x, m_beta, ds_bar = run_mle_row(1.0, 5, 3, 0.98, 200, 3)
        assert m_x.count + m_x.failures == 200
        assert abs(m_x.rmse**2 - (m_x.std_dev**2 + m_x.bias**2)) < 1e-12
        assert 0.0 < ds_bar < m_beta.rmse  # shrinkage by B < 1

    def test_deterministic(self):
        a = run_mle_row(2.0, 5, 3, 0.98, 100, 4)
        b = run_mle_row(2.0, 5, 3, 0.98, 100, 4)
        assert a == b

    def test_benchmark_row_shape2_complete(self):
        # benchmark row: RQ[x_R] = 2.1, RQ[beta] = 7.5, DS[unbiased beta] = 3.1
        m_x, m_beta, ds_bar = run_mle_row(2.0, 3, 3, 0.98, 2000, 42)
        assert abs(m_x.rmse / 2.1 - 1.0) < 0.25
        assert abs(m_beta.rmse / 7.5 - 1.0) < 0.25
        assert abs(ds_bar / 3.1 - 1.0) < 0.25
        assert ds_bar < m_beta.rmse  # unbiasing shrinks the spread

    def test_benchmark_row_shape2_censored(self):
        m_x, m_beta, _ = run_mle_row(2.0, 5, 3, 0.98, 2000, 42)
        assert abs(m_x.rmse / 1.7 - 1.0) < 0.25
        # the shape RMSE here is dominated by a handful of extreme draws
        # (reference value 12); only its magnitude is reproducible at N=2000
        assert 4.0 < m_beta.rmse < 20.0

    def test_benchmark_row_shape06_complete(self):
        m_x, m_beta, ds_bar = run_mle_row(0.6, 3, 3, 0.98, 2000, 42)
        assert abs(m_beta.rmse / 2.2 - 1.0) < 0.25
        assert abs(ds_bar / 0.94 - 1.0) < 0.25
        assert 100.0 < m_x.rmse < 300.0  # reference value 170, extremely heavy tailed

    def test_row_where_every_replication_is_degenerate(self, monkeypatch):
        # at true shape 1e17 every draw rounds to x_R = 1.0, so no failure
        # times differ and no replication has a finite MLE
        m_x, m_beta, ds_bar = run_mle_row(1e17, 5, 3, 0.98, 20, 1)
        for m in (m_x, m_beta):
            assert m.count == 0 and m.failures == 20
            assert math.isnan(m.bias) and math.isnan(m.std_dev) and math.isnan(m.rmse)
        assert math.isnan(ds_bar)
        monkeypatch.setitem(simulate._MLE_TABLES, "7b", (1e20, simulate._MLE_CENSORED_ROWS))
        table = reproduce_table("7b", 20, 1)
        assert [(row[0], row[1]) for row in table.rows] == list(simulate._MLE_CENSORED_ROWS)
        for row in table.rows:
            assert all(math.isnan(v) for v in row[2:5]) and row[5] == 20
        out = io.StringIO()
        table.to_csv(out)
        assert out.getvalue().splitlines()[1] == "5,3,nan,nan,nan,20"

    def test_shape_rmse_scales_exactly_with_true_shape(self):
        # same seed means the same uniforms, and the shape estimate is
        # pivotal, so the RMSE ratio across true shapes is the shape ratio
        _, m1, _ = run_mle_row(1.0, 5, 3, 0.98, 200, 4)
        _, m2, _ = run_mle_row(2.0, 5, 3, 0.98, 200, 4)
        assert abs(m2.rmse / (2.0 * m1.rmse) - 1.0) < 1e-6


class TestReproduceTable:
    def test_bayes_table_layout(self):
        t = reproduce_table(3, 2, 7, settings=QuadratureSettings(rel_tol=1e-6, max_panels=8))
        assert t.kind == "bayes"
        assert len(t.rows) == 9
        assert [row[0] for row in t.rows] == list(CASE_LABELS)
        assert len(t.columns) == 1 + 4 + 4 + 4
        assert len(t.rows[0]) == len(t.columns)

    def test_mle_table_layout(self):
        t = reproduce_table("6b", 50, 7)
        assert t.kind == "mle"
        assert [(row[0], row[1]) for row in t.rows] == [
            (5, 3), (10, 4), (10, 6), (20, 8), (20, 12), (40, 16), (40, 24)
        ]
        assert t.columns == ("n", "r", "rq_xR", "rq_beta", "ds_beta_bar", "failures")

    def test_complete_mle_ladder(self):
        t = reproduce_table("3b", 50, 7)
        assert [row[0] for row in t.rows] == [3, 5, 7, 10, 15, 22, 30]
        assert all(row[0] == row[1] for row in t.rows)

    def test_deterministic_csv(self):
        kwargs = dict(settings=QuadratureSettings(rel_tol=1e-6, max_panels=8))
        a, b = io.StringIO(), io.StringIO()
        reproduce_table(4, 2, 11, **kwargs).to_csv(a)
        reproduce_table(4, 2, 11, **kwargs).to_csv(b)
        assert a.getvalue() == b.getvalue()

    def test_unknown_table_rejected(self):
        with pytest.raises(InputValidationError):
            reproduce_table("9c", 10, 1)
        with pytest.raises(InputValidationError, match="table '3b' is not a Bayes table"):
            simulate.table_config("3b", replications=10, seed=1)


class TestPaperFormat:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.38, ".38E+00"),
            (13.0, ".13E+02"),
            (0.057, ".57E-01"),
            (1.2, ".12E+01"),
            (0.308, ".31E+00"),
            (0.0995, ".10E+00"),
            (0.999, ".10E+01"),
            (0.0, ".00E+00"),
            (-0.47, "-.47E+00"),
            (170.0, ".17E+03"),
        ],
    )
    def test_examples(self, value, expected):
        assert paper_format(value) == expected

    def test_round_trip_magnitude(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = float(np.exp(rng.uniform(-8, 8)))
            text = paper_format(v)
            assert abs(float(text) / v - 1.0) < 0.06  # two significant digits

    def test_csv_paper_style(self):
        t = reproduce_table("4b", 50, 7)
        buf = io.StringIO()
        t.to_csv(buf, paper_style=True)
        body = buf.getvalue().splitlines()[1]
        assert "E+" in body or "E-" in body


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_NUMBERS = st.one_of(st.integers(-3, 12), st.floats(-3.0, 12.0), st.floats(), _JSON_VALUES)
_LABELS = st.one_of(
    st.lists(st.sampled_from(CASE_LABELS + STANDARD_W_LABELS), max_size=3),
    st.text(max_size=4),
    _JSON_VALUES,
)
_FIELDS = {
    "true_beta": _NUMBERS, "n": _NUMBERS, "r": _NUMBERS, "seed": _NUMBERS,
    "true_x_R": _NUMBERS, "R": _NUMBERS, "replications": _NUMBERS,
    "prior_cases": _LABELS, "w_rules": _LABELS,
}
_REQUIRED = ("true_beta", "n", "r", "seed")
# JSON-like objects: the required fields present with mostly numeric values,
# arbitrary field subsets (unknown names included), and non-objects
_CONFIG_OBJECTS = st.one_of(
    st.fixed_dictionaries(
        {name: _FIELDS[name] for name in _REQUIRED},
        optional={name: value for name, value in _FIELDS.items() if name not in _REQUIRED},
    ),
    st.dictionaries(st.sampled_from(sorted(_FIELDS) + ["mystery"]), _JSON_VALUES, max_size=10),
    _JSON_VALUES,
)


class TestExperimentConfig:
    def test_from_dict_defaults(self):
        cfg = experiment_config_from_dict({"true_beta": 1.0, "n": 3, "r": 3, "seed": 5})
        assert cfg.replications == 2000
        assert cfg.R == 0.98
        assert cfg.prior_cases == CASE_LABELS
        assert cfg.w_rules == STANDARD_W_LABELS

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(InputValidationError):
            experiment_config_from_dict(
                {"true_beta": 1.0, "n": 3, "r": 3, "seed": 5, "mystery": 1}
            )

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(InputValidationError):
            experiment_config_from_dict({"true_beta": 1.0})

    def test_validates_design(self):
        with pytest.raises(ValueError):
            ExperimentConfig(true_beta=1.0, n=3, r=4, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(true_beta=1.0, n=3, r=3, seed=1, replications=0)
        with pytest.raises(ValueError):
            ExperimentConfig(true_beta=1.0, n=3, r=3, seed=1, prior_cases=("Z",))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_CONFIG_OBJECTS)
    def test_from_dict_returns_a_runnable_config_or_rejects(self, d):
        try:
            cfg = experiment_config_from_dict(d)
        except InputValidationError:
            return
        assert 1 <= cfg.r <= cfg.n
        assert cfg.replications >= 1 and cfg.seed >= 0
        for labels in (cfg.prior_cases, cfg.w_rules):
            assert isinstance(labels, tuple) and labels
            assert all(isinstance(label, str) for label in labels)
