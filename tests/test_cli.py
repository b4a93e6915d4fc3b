"""Command-line front end: record formats, exit codes, file handling."""

import json
import math

import numpy as np
import pytest

from weibayes import cli, mle, posterior
from weibayes.censoring import load_sample_csv, type2_censor
from weibayes.prior import BetaInterval, PriorSpec, WRule, load_prior_spec
from weibayes.weibull import ReliableLifeWeibull, sample

PRIOR_CASE_I = {
    "beta1": 1.0,
    "beta2": 3.0,
    "xbar_R": 1.0,
    "R": 0.98,
    "w_rule": {"kind": "const_over_beta", "value": 1.1},
}


@pytest.fixture
def prior_path(tmp_path):
    path = tmp_path / "prior.json"
    path.write_text(json.dumps(PRIOR_CASE_I), encoding="utf-8")
    return str(path)


@pytest.fixture
def sample_path(tmp_path):
    model = ReliableLifeWeibull(1.0, 2.0, 0.98)
    draws = sample(model, 5, np.random.default_rng(321))
    s = type2_censor(draws.tolist(), 3)
    path = tmp_path / "sample.csv"
    lines = ["time,status"] + [f"{t!r},{st}" for t, st in zip(s.times, s.status)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def assert_record_reads_back(out, record, keys):
    """``out`` is one key=value line per key, in order, each reading back as ``record``'s field."""
    pairs = [line.split("=", 1) for line in out.splitlines()]
    assert [k for k, _ in pairs] == keys
    for key, text in pairs:
        field = "log_I" if key.startswith("log_I") else key
        value = getattr(record, field)
        if field == "log_I":
            value = value[int(key[-1])]
        if isinstance(value, bool):
            assert text == ("true" if value else "false")
        else:
            assert type(value)(text) == value


class TestEstimateCommand:
    def test_record_layout(self, capsys, sample_path, prior_path):
        assert cli.main(["estimate", "--sample", sample_path, "--prior", prior_path]) == 0
        expected = posterior.estimate(load_prior_spec(prior_path), load_sample_csv(sample_path))
        keys = ["x_R_tilde", "beta_tilde", "log_I0", "log_I1", "log_I2",
                "node_count", "error_estimate", "converged"]
        assert_record_reads_back(capsys.readouterr().out, expected, keys)

    def test_matches_library_call_byte_for_byte(self, capsys, sample_path, prior_path):
        rc = cli.main(["estimate", "--sample", sample_path, "--prior", prior_path])
        out = capsys.readouterr().out
        assert rc == 0
        expected = posterior.estimate(load_prior_spec(prior_path), load_sample_csv(sample_path))
        assert out == cli.format_estimate_record(expected) + "\n"

    def test_empty_data_returns_prior_mean_and_midpoint(self, capsys, tmp_path, prior_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("time,status\n", encoding="utf-8")
        rc = cli.main(["estimate", "--sample", str(empty), "--prior", prior_path])
        out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert rc == 0
        assert math.isclose(float(out["x_R_tilde"]), 1.0, rel_tol=1e-6)
        assert math.isclose(float(out["beta_tilde"]), 2.0, rel_tol=1e-6)
        assert int(out["node_count"]) > 0 and 0.0 <= float(out["error_estimate"]) < 1e-8

    def test_unreachable_tolerance_exits_4_with_the_error_reached(self, capsys, sample_path, prior_path):
        rc = cli.main(["estimate", "--sample", sample_path, "--prior", prior_path, "--rel-tol", "1e-20"])
        out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert rc == 4
        assert out["converged"] == "false" and float(out["error_estimate"]) > 1e-20
        assert int(out["node_count"]) == 21 * (2 * posterior.QuadratureSettings().max_panels - 1)

    def test_empty_sample_file_exits_2(self, capsys, tmp_path, prior_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        rc = cli.main(["estimate", "--sample", str(empty), "--prior", prior_path])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {empty}: empty file, expected a time,status header\n"

    def test_malformed_csv_exits_2_with_line_number(self, capsys, tmp_path, prior_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,status\n1.0,failed\noops,failed\n", encoding="utf-8")
        rc = cli.main(["estimate", "--sample", str(bad), "--prior", prior_path])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sample", "--prior"])
    def test_missing_file_exits_2(self, capsys, tmp_path, sample_path, prior_path, flag):
        paths = {"--sample": sample_path, "--prior": prior_path, flag: str(tmp_path / "absent")}
        rc = cli.main(["estimate", "--sample", paths["--sample"], "--prior", paths["--prior"]])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'absent'}: ")

    @pytest.mark.parametrize("flag", ["--sample", "--prior"])
    def test_directory_as_file_exits_2(self, capsys, tmp_path, sample_path, prior_path, flag):
        paths = {"--sample": sample_path, "--prior": prior_path, flag: str(tmp_path)}
        rc = cli.main(["estimate", "--sample", paths["--sample"], "--prior", paths["--prior"]])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_constraint_violation_exits_3(self, capsys, tmp_path, sample_path):
        bad_prior = tmp_path / "bad_prior.json"
        bad_prior.write_text(
            json.dumps({**PRIOR_CASE_I, "beta1": 0.5, "beta2": 2.0, "w_rule": {"kind": "unit"}}),
            encoding="utf-8",
        )
        rc = cli.main(["estimate", "--sample", sample_path, "--prior", str(bad_prior)])
        assert rc == 3
        assert "w > 1/beta" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["x", [1.1], {}])
    def test_non_numeric_weight_value_exits_2_with_one_error_line(self, capsys, tmp_path, sample_path, value):
        bad_prior = tmp_path / "bad_prior.json"
        bad_prior.write_text(
            json.dumps({**PRIOR_CASE_I, "w_rule": {"kind": "fixed", "value": value}}), encoding="utf-8"
        )
        rc = cli.main(["estimate", "--sample", sample_path, "--prior", str(bad_prior)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: rule 'fixed' needs a positive value, got {value!r}\n"

    def test_nonconvergence_exits_4(self, capsys, sample_path, prior_path, monkeypatch):
        import dataclasses

        real = posterior.estimate

        def never_converges(spec, s, settings=None):
            return dataclasses.replace(real(spec, s, settings), converged=False)

        monkeypatch.setattr(cli.posterior, "estimate", never_converges)
        rc = cli.main(["estimate", "--sample", sample_path, "--prior", prior_path])
        out = capsys.readouterr().out
        assert rc == 4
        assert "converged=false" in out


class TestMleCommand:
    def test_record_layout(self, capsys, sample_path):
        assert cli.main(["mle", "--sample", sample_path]) == 0
        expected = mle.fit(load_sample_csv(sample_path), 0.98)
        keys = ["alpha_hat", "beta_hat", "x_R_hat", "iterations", "converged"]
        assert_record_reads_back(capsys.readouterr().out, expected, keys)

    def test_record_matches_library(self, capsys, sample_path):
        rc = cli.main(["mle", "--sample", sample_path])
        out = capsys.readouterr().out
        assert rc == 0
        expected = mle.fit(load_sample_csv(sample_path), 0.98)
        assert out == cli.format_mle_record(expected) + "\n"

    def test_single_failure_exits_3(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(
            "time,status\n1.0,failed\n1.0,censored\n1.0,censored\n", encoding="utf-8"
        )
        rc = cli.main(["mle", "--sample", str(path)])
        assert rc == 3
        assert "no finite maximum-likelihood" in capsys.readouterr().err

    def test_missing_sample_exits_2(self, capsys, tmp_path):
        rc = cli.main(["mle", "--sample", str(tmp_path / "absent.csv")])
        assert rc == 2
        assert "No such file" in capsys.readouterr().err

    def test_scale_overflow_exits_3(self, capsys, tmp_path):
        path = tmp_path / "extreme.csv"
        rows = ["1e-200,failed", "9.5e-167,failed"] + [
            f"{t},censored" for t in ("1.6e90", "3e120", "1e150", "2.0e199")
        ]
        path.write_text("time,status\n" + "\n".join(rows) + "\n", encoding="utf-8")
        rc = cli.main(["mle", "--sample", str(path)])
        assert rc == 3
        assert "exceeds the double range" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "1.5", "nan"])
    def test_reliability_outside_unit_interval_exits_2(self, capsys, sample_path, value):
        rc = cli.main(["mle", "--sample", sample_path, "--reliability", value])
        assert rc == 2
        assert "R must lie strictly inside (0, 1)" in capsys.readouterr().err

    def test_reliability_from_prior_file(self, capsys, sample_path, tmp_path):
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({**PRIOR_CASE_I, "R": 0.9}), encoding="utf-8")
        rc = cli.main(["mle", "--sample", sample_path, "--prior", str(prior)])
        assert rc == 0
        expected = mle.fit(load_sample_csv(sample_path), 0.9)
        assert capsys.readouterr().out == cli.format_mle_record(expected) + "\n"


class TestPriorPdfCommand:
    def test_emits_normalized_curve(self, capsys):
        rc = cli.main(["prior-pdf", "--a", "1.0", "--w", "1.1", "--beta", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = out.strip().splitlines()
        assert rows[0] == "x_R,density"
        data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
        total = np.trapezoid(data[:, 1], data[:, 0])
        assert abs(total - 1.0) < 5e-3

    def test_spread_decreases_with_weight(self, capsys):
        spreads = []
        for w in (1.1, 1.4, 1.7, 2.0, 2.3, 2.6, 2.9):
            rc = cli.main(["prior-pdf", "--a", "1.0", "--w", str(w), "--beta", "1.0"])
            assert rc == 0
            rows = capsys.readouterr().out.strip().splitlines()[1:]
            data = np.array([[float(v) for v in line.split(",")] for line in rows])
            x, pdf = data[:, 0], data[:, 1]
            mass = np.trapezoid(pdf, x)
            mean = np.trapezoid(pdf * x, x) / mass
            spreads.append(np.trapezoid(pdf * (x - mean) ** 2, x) / mass)
        assert all(a > b for a, b in zip(spreads, spreads[1:]))

    def test_anticipated_life_route(self, capsys):
        rc = cli.main(["prior-pdf", "--xbar-r", "2.0", "--w", "2.0", "--beta", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = out.strip().splitlines()[1:]
        data = np.array([[float(v) for v in line.split(",")] for line in rows])
        mean = np.trapezoid(data[:, 1] * data[:, 0], data[:, 0])
        assert abs(mean / 2.0 - 1.0) < 0.02  # grid truncation only

    def test_nonpositive_grid_exits_2(self, capsys):
        rc = cli.main(
            ["prior-pdf", "--a", "1.0", "--w", "1.5", "--beta", "1.0", "--x-min", "-1.0"]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--x-min", "2", "--x-max", "1"],
             "the grid needs 0 < x_min < x_max < inf, got x_min = 2.0, x_max = 1.0"),
            (["--points", "1"], "--points must be at least 2"),
        ],
    )
    def test_unusable_grid_exits_2(self, capsys, flags, message):
        assert cli.main(["prior-pdf", "--a", "1.0", "--w", "1.5", "--beta", "1.0", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_scale_beyond_the_double_range_exits_2(self, capsys):
        rc = cli.main(["prior-pdf", "--xbar-r", "1", "--w", "1e10", "--beta", "1e-6"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeds the double range" in err

    def test_steep_shape_on_the_default_grid_exits_0(self, capsys):
        # the grid starts at 1e-3 a, where (x/a)**-beta = e**829 overflows
        rc = cli.main(["prior-pdf", "--a", "1", "--w", "1.1", "--beta", "120", "--points", "4"])
        rows = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(rows) == 5 and rows[1].endswith(",0.0")

    def test_density_beyond_the_double_range_exits_2(self, capsys):
        args = ["--a", "1e-307", "--w", "1.1", "--beta", "50", "--x-min", "1e-307", "--x-max", "1e-306"]
        assert cli.main(["prior-pdf", *args]) == 2
        assert "exceeds the double range" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_weight_beyond_the_double_range_exits_2(self, capsys):
        # ln Gamma(1e308) overflows; the grid points below the scale used to print nan
        rc = cli.main(["prior-pdf", "--a", "2", "--w", "1e308", "--beta", "2", "--points", "4"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: the IGG density has terms that exceed the double range")

    def test_infinite_weight_exits_2(self, capsys):
        rc = cli.main(["prior-pdf", "--xbar-r", "1", "--w", "inf", "--beta", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "flag,value", [("--a", "nan"), ("--a", "inf"), ("--x-min", "nan"), ("--x-max", "inf")]
    )
    def test_nonfinite_flag_exits_2_naming_it(self, capsys, flag, value):
        args = {"--a": "1.0", "--w": "1.5", "--beta": "1.0", flag: value}
        rc = cli.main(["prior-pdf", *(item for pair in args.items() for item in pair)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag} must be positive and finite, got {value}\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["--a", "1", "--w", "0", "--beta", "1"],
            ["--a", "1", "--w", "1.5", "--beta", "-1"],
            ["--xbar-r", "0", "--w", "1.5", "--beta", "1"],
            ["--xbar-r", "1", "--w", "1.5", "--beta", "0"],
        ],
    )
    def test_nonpositive_parameter_exits_2(self, capsys, args):
        assert cli.main(["prior-pdf", *args]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_requires_exactly_one_scale_source(self, capsys):
        rc = cli.main(["prior-pdf", "--w", "1.5", "--beta", "1.0"])
        assert rc == 2
        rc = cli.main(["prior-pdf", "--a", "1.0", "--xbar-r", "1.0", "--w", "1.5", "--beta", "1.0"])
        assert rc == 2

    def test_writes_to_out_path(self, tmp_path):
        target = tmp_path / "curve.csv"
        rc = cli.main(
            ["prior-pdf", "--a", "1.0", "--w", "1.5", "--beta", "1.0", "--out", str(target)]
        )
        assert rc == 0
        assert target.read_text().startswith("x_R,density")


class TestSimulateCommand:
    def test_table_run_writes_csv(self, tmp_path, capsys):
        target = tmp_path / "t4b.csv"
        rc = cli.main(
            ["simulate", "--table", "4b", "--replications", "60", "--seed", "9", "--out", str(target)]
        )
        assert rc == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "n,r,rq_xR,rq_beta,ds_beta_bar,failures"
        assert len(lines) == 8

    def test_shipped_config_matches_direct_table_run(self, tmp_path, capsys):
        # the shipped configuration names the same design as --table 4
        from pathlib import Path

        from weibayes.simulate import load_experiment_config, table_config

        shipped = load_experiment_config(Path(__file__).parent.parent / "configs" / "table4.json")
        assert shipped == table_config("4", replications=2000, seed=42)

    def test_config_run_round_trips(self, tmp_path):
        cfg = {
            "true_beta": 2.0, "n": 3, "r": 3, "seed": 5, "replications": 3,
            "prior_cases": ["I", "II"], "w_rules": ["1.1/beta"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "result.csv"
        rc = cli.main(["simulate", "--config", str(path), "--rel-tol", "1e-6", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("test,")
        assert [line.split(",")[0] for line in lines[1:]] == ["I", "II"]

    def test_paper_format_flag(self, tmp_path):
        out = tmp_path / "result.csv"
        rc = cli.main(
            ["simulate", "--table", "4b", "--replications", "50", "--seed", "9",
             "--paper-format", "--out", str(out)]
        )
        assert rc == 0
        assert "E+" in out.read_text() or "E-" in out.read_text()

    def test_table_requires_seed(self, capsys):
        rc = cli.main(["simulate", "--table", "4b", "--replications", "10"])
        assert rc == 2

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"r": -1}, "need 1 <= r <= n"),
            ({"r": 0}, "need 1 <= r <= n"),
            ({"prior_cases": "IV"}, "prior_cases must be a non-empty list of strings"),
            ({"prior_cases": []}, "prior_cases must be a non-empty list of strings"),
            ({"w_rules": "unit"}, "w_rules must be a non-empty list of strings"),
            ({"w_rules": []}, "w_rules must be a non-empty list of strings"),
            ({"w_rules": [1.1]}, "w_rules must be a non-empty list of strings"),
        ],
    )
    def test_malformed_config_exits_2(self, capsys, tmp_path, change, message):
        cfg = {
            "true_beta": 2.0, "n": 3, "r": 3, "seed": 5, "replications": 2,
            "prior_cases": ["I"], "w_rules": ["1.1/beta"], **change,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "result.csv"
        rc = cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("table", ["4", "4b"])
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--replications", "0", "--seed", "1"], "replications must be at least 1"),
            (["--replications", "5", "--seed", "-1"], "seed must be a nonnegative integer"),
        ],
    )
    def test_bad_run_size_or_seed_exits_2_for_both_table_kinds(self, capsys, table, flags, message):
        rc = cli.main(["simulate", "--table", table, *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_rejects_both_config_and_table(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}", encoding="utf-8")
        rc = cli.main(["simulate", "--config", str(path), "--table", "4"])
        assert rc == 2


class TestCalibrateBCommand:
    def test_deterministic_row(self, capsys):
        assert cli.main(["calibrate-b", "3", "3", "10000", "42"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["calibrate-b", "3", "3", "10000", "42"]) == 0
        assert capsys.readouterr().out == first
        header, row = first.strip().splitlines()
        assert header == "n,r,B,replications,std_error,seed"
        assert row.startswith("3,3,")

    def test_cache_file_reused(self, tmp_path, capsys):
        cache = tmp_path / "cache.csv"
        assert cli.main(["calibrate-b", "3", "2", "10000", "7", "--out", str(cache)]) == 0
        first = capsys.readouterr().out
        content = cache.read_text()
        assert cli.main(["calibrate-b", "3", "2", "10000", "7", "--out", str(cache)]) == 0
        assert capsys.readouterr().out == first
        assert cache.read_text() == content  # reused, not re-appended

    def test_negative_seed_exits_2(self, capsys):
        assert cli.main(["calibrate-b", "3", "3", "10000", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer\n"

    def test_degenerate_design_exits_3(self, capsys):
        rc = cli.main(["calibrate-b", "3", "1", "10000", "7"])
        assert rc == 2  # argument validation, not a sample property
