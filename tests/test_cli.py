"""Command-line front end: record formats, exit codes, file handling."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weibayes import cli, mle, posterior
from weibayes.censoring import load_sample_csv, type2_censor
from weibayes.errors import PriorDominanceWarning
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

    def test_huge_fixed_weight_raises_no_overflow_warning(self, capsys, tmp_path):
        # the Stirling tail of ln(Gamma(w) / Gamma(w - 1/beta)) once cubed w and overflowed
        sample = tmp_path / "sample.csv"
        sample.write_text("time,status\n0.62,failed\n0.91,failed\n1.24,failed\n1.24,censored\n1.24,censored\n",
                          encoding="utf-8")
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({**PRIOR_CASE_I, "w_rule": {"kind": "fixed", "value": 1e300}}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", PriorDominanceWarning)
            rc = cli.main(["estimate", "--sample", str(sample), "--prior", str(prior)])
        assert rc in (0, 4)  # 4 while the estimate at this weight does not converge
        assert capsys.readouterr().err == ""

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
            ({"seed": 0.5}, "seed must be an integer, got 0.5"),
            ({"seed": 1e308}, "seed must be an integer, got 1e+308"),
            ({"replications": 2.5}, "replications must be an integer, got 2.5"),
            ({"n": 3.9}, "n must be an integer, got 3.9"),
            ({"r": True}, "r must be an integer, got True"),
            ({"true_beta": True}, "true_beta must be a number, got true"),
            ({"true_x_R": "10"}, 'true_x_R must be a number, got "10"'),
            ({"R": False}, "R must be a number, got false"),
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

    @pytest.mark.parametrize(
        "content,message",
        [
            ("time,status\n1.0,failed\n2.0,failed\n", "not a calibration cache, missing columns"),
            ("n,r,B,replications,std_error,seed\n3,3\n", "line 2: expected 6 fields"),
            ("n,r,B,replications,std_error,seed\nx,3,1.0,10000,0.1,1\n", "line 2: invalid literal"),
        ],
    )
    def test_file_that_is_not_a_cache_exits_2_and_is_left_as_it_was(self, capsys, tmp_path, content, message):
        path = tmp_path / "sample.csv"
        path.write_text(content, encoding="utf-8")
        assert cli.main(["calibrate-b", "3", "3", "10000", "1", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1
        assert path.read_text(encoding="utf-8") == content


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--sample", "{bad}", "--prior", "{prior}"],
        ["estimate", "--sample", "{sample}", "--prior", "{bad}"],
        ["mle", "--sample", "{bad}"],
        ["simulate", "--config", "{bad}"],
        ["calibrate-b", "3", "3", "10000", "1", "--out", "{bad}"],
    ],
    ids=["sample", "prior", "mle-sample", "config", "cache"],
)
def test_file_that_is_not_utf8_is_named_and_left_as_it_was(capsys, tmp_path, sample_path, prior_path, argv):
    bad = tmp_path / "latin1.txt"
    content = b"\x80\x81time,status\n"
    bad.write_bytes(content)
    argv = [a.format(bad=bad, sample=sample_path, prior=prior_path) for a in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text ('utf-8' codec can't decode byte 0x80")
    assert err.count("\n") == 1
    assert bad.read_bytes() == content


def _run(argv):
    """cli.main's exit code, stdout and stderr; argparse's own exits count (with no
    output), any other exception fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected a flag value
            return exc.code, None, None
    return rc, out.getvalue(), err.getvalue()


def _assert_total(argv):
    """Exit code and stdout of a run that must end in 0, 2, 3 or 4, and for 2 and 3
    in one ``error:`` line."""
    rc, out, err = _run(argv)
    assert rc in (0, 2, 3, 4), (argv, rc, err)
    if err is not None and rc in (2, 3):
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return rc, out


_NUMBER_TEXT = st.sampled_from(
    ["1", "2.5", "0", "-1", "-0.0", "nan", "inf", "-inf", "1e-320", "5e-324", "1.7e308", "1e400",
     "0x1p-3", "", " ", "x", "1,5"]
) | st.floats().map(repr)
_FIELD = _NUMBER_TEXT | st.sampled_from(["failed", "censored", "FAILED", '"', "\x00", "\ufeff"]) | st.text(max_size=4)
# well-formed values next to malformed ones, so that runs also get past validation
_VALUE = st.floats(0.05, 20.0).map(repr) | _NUMBER_TEXT
_STATUS = st.sampled_from(["failed", "failed", "censored"])
_SAMPLE_ROW = st.tuples(_VALUE, _STATUS) | st.lists(_FIELD, max_size=3)
_CACHE_ROW = (
    st.lists(_FIELD, max_size=7)
    | st.tuples(st.integers(-1, 4), st.integers(-1, 4), st.floats(), st.sampled_from([0, 10000]),
                st.floats(), st.integers(0, 2)).map(lambda row: [str(v) for v in row])
    | st.just(["3", "3", "0.5", "10000", "0.01", "1"])
)
_JSON_VALUE = (
    st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats()
    | st.text(max_size=4) | st.lists(st.floats(), max_size=2) | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
)
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# wrong types, null, non-finite, subnormal, zero and negative numbers for a config field;
# the small form holds no number above 20, so that n, r and replications keep runs tiny
_ODD_SMALL = (
    st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.integers(0, 3), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)
    | st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1e-320, -0.0, 0.0, -1.0, 2.5, "3"])
)
_ODD = _ODD_SMALL | st.sampled_from([1.7976931348623157e308, 1e30, 10**30])
_RELIABILITY = st.floats(0.0, 1.0) | st.sampled_from([5e-324, 1e-320, 2.2250738585072014e-308, 0.9999999999999999])
# a valid tiny design; each field's strategy mixes valid values with _ODD ones
_CONFIG = {
    "true_beta": 1.0, "n": 3, "r": 3, "seed": 42, "true_x_R": 1.0, "R": 0.98,
    "replications": 20, "prior_cases": ["I"], "w_rules": ["1.1/beta"],
}
_CONFIG_FIELD = {
    "true_beta": st.sampled_from([2.0, 1.0, 0.6]) | _ODD,
    "n": st.integers(1, 6) | _ODD_SMALL,
    "r": st.integers(1, 6) | _ODD_SMALL,
    "seed": st.integers(-1, 2**70) | _ODD,
    "true_x_R": st.floats(1e-3, 1e3) | _ODD,
    "R": _RELIABILITY | _ODD,
    "replications": st.integers(-1, 20) | _ODD_SMALL,
    "prior_cases": st.lists(st.sampled_from(["I", "V", "IX", "X"]), min_size=1, max_size=1) | _ODD,
    "w_rules": st.lists(
        st.sampled_from(["1.1/beta", "1/beta1+0.1", "unit", "piecewise96", "fixed:2", "fixed:x",
                         "0.5/beta", "bogus", "nan/beta", "inf/beta", "fixed:5e-324"]),
        min_size=1, max_size=1,
    ) | _ODD,
}


def _csv_text(header, rows, newline):
    return newline.join([header, *(",".join(row) for row in rows)]) + newline


class TestExitCodeTotality:
    """Malformed files and flag values end in exit 0, 2, 3 or 4, never in a traceback."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("totality")
        prior = root / "prior.json"
        prior.write_text(json.dumps(PRIOR_CASE_I), encoding="utf-8")
        sample = root / "sample.csv"
        sample.write_text("time,status\n0.8,failed\n1.3,failed\n2.1,censored\n", encoding="utf-8")
        return root, str(prior), str(sample)

    @_SETTINGS
    @given(
        st.sampled_from(["time,status", "status,time", "time", "time,status,extra", "", "\ufefftime,status"]),
        st.lists(st.tuples(st.floats(1e-3, 1e3).map(repr), _STATUS), max_size=8),
        st.lists(st.tuples(st.integers(0, 8), _SAMPLE_ROW), max_size=2),
        st.sampled_from(["\n", "\r\n"]),
        st.integers(0, 3),
        st.binary(max_size=32) | st.binary(max_size=8).map(b"\x80\x81".__add__),
    )
    def test_sample_csv(self, files, header, rows, inserted, newline, pick, raw):
        root, prior, _ = files
        path = root / "fuzz_sample.csv"
        for at, row in inserted:
            rows.insert(at, row)
        if pick:
            path.write_text(_csv_text(header, rows, newline), encoding="utf-8", newline="")
        else:
            path.write_bytes(raw)
        _assert_total(["estimate", "--sample", str(path), "--prior", prior])
        _assert_total(["mle", "--sample", str(path), "--reliability", "0.9"])

    @_SETTINGS
    @given(
        st.dictionaries(st.sampled_from(sorted(PRIOR_CASE_I)), _JSON_VALUE, max_size=3),
        st.sets(st.sampled_from(sorted(PRIOR_CASE_I)), max_size=2),
        st.dictionaries(st.sampled_from(["extra", "kind", "value"]), _JSON_VALUE, max_size=2),
        st.sampled_from(["const_over_beta", "fixed", "unit", "piecewise96", "bogus"]),
        st.sampled_from([None, 1.1, 0.5, 3.0, 1e300, 1e-300]),
        st.booleans(),
    )
    def test_prior_json(self, files, replace, drop, extra, kind, value, list_form):
        root, _, sample = files
        rule = {"kind": kind} if value is None else {"kind": kind, "value": value}
        d = {**PRIOR_CASE_I, "w_rule": rule, **replace}
        for key in drop:
            d.pop(key, None)
        d.update({k: v for k, v in extra.items() if k == "extra"})
        if isinstance(d.get("w_rule"), dict):
            d["w_rule"] = {**d["w_rule"], **{k: v for k, v in extra.items() if k != "extra"}}
        path = root / "fuzz_prior.json"
        path.write_text(json.dumps([d] if list_form else d), encoding="utf-8")
        _assert_total(["estimate", "--sample", sample, "--prior", str(path)])
        _assert_total(["mle", "--sample", sample, "--prior", str(path)])

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(["n,r,B,replications,std_error,seed", "seed,std_error,replications,B,r,n",
                         "time,status", "n,r", "", "n,r,B,replications,std_error,seed,extra"]),
        st.lists(_CACHE_ROW, max_size=4),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_calibration_cache(self, files, header, rows, newline):
        root, _, _ = files
        path = root / "fuzz_cache.csv"
        content = _csv_text(header, rows, newline).encode("utf-8")
        path.write_bytes(content)
        if _assert_total(["calibrate-b", "3", "3", "10000", "1", "--out", str(path)])[0] != 0:
            assert path.read_bytes() == content

    @_SETTINGS
    @given(
        st.lists(st.sampled_from(sorted(_CONFIG_FIELD)).flatmap(
            lambda key: st.tuples(st.just(key), _CONFIG_FIELD[key])), max_size=2),
        st.sets(st.sampled_from(["true_beta", "n", "r", "seed", "true_x_R", "R"]), max_size=1),
    )
    def test_simulate_config(self, files, replace, drop):
        root, _, _ = files
        cfg = {**_CONFIG, **dict(replace)}
        for key in drop:
            del cfg[key]
        path = root / "fuzz_config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc, out = _assert_total(["simulate", "--config", str(path)])
        if rc == 0:
            # a cell reports nan exactly when every replication failed
            (_, rq_x, rq_beta, failures), = (line.split(",") for line in out.splitlines()[1:])
            replications = int(cfg.get("replications", 2000))
            assert 0 <= int(failures) <= replications
            assert math.isnan(float(rq_x)) == math.isnan(float(rq_beta)) == (int(failures) == replications)

    @pytest.mark.parametrize(
        "change,named",
        [({"beta2": 3 * 10**400}, "beta2"), ({"w_rule": {"kind": "fixed", "value": 10**400}}, "rule 'fixed'"),
         ({"xbar_R": 10**400}, "xbar_R")],
    )
    def test_prior_number_too_large_for_a_float_is_named(self, files, change, named):
        root, _, sample = files
        path = root / "huge_prior.json"
        path.write_text(json.dumps({**PRIOR_CASE_I, **change}), encoding="utf-8")
        rc, _, err = _run(["estimate", "--sample", sample, "--prior", str(path)])
        assert rc == 2 and err.startswith(f"error: {named} ") and err.count("\n") == 1, err

    def test_config_number_too_large_for_a_float_is_named(self, files):
        root, _, _ = files
        path = root / "huge_config.json"
        path.write_text(json.dumps({**_CONFIG, "true_x_R": 10**400}), encoding="utf-8")
        assert _run(["simulate", "--config", str(path)])[::2] == (2, "error: true_x_R is too large for a float\n")

    @_SETTINGS
    @given(_RELIABILITY | _ODD)
    def test_simulate_config_reliability(self, files, R):
        # the design is valid, so any R strictly inside (0, 1) gives a run without failures
        root, _, _ = files
        path = root / "fuzz_config.json"
        path.write_text(json.dumps({**_CONFIG, "R": R}), encoding="utf-8")
        rc, out = _assert_total(["simulate", "--config", str(path)])
        if isinstance(R, float) and 0.0 < R < 1.0:
            assert rc == 0 and out.splitlines()[1].endswith(",0"), (R, rc, out)

    @_SETTINGS
    @given(_NUMBER_TEXT | _RELIABILITY.map(repr))
    def test_mle_reliability(self, files, reliability):
        # beta_hat and alpha_hat do not depend on R, and on this sample x_R_hat is
        # finite for every R strictly inside (0, 1)
        _, _, sample = files
        rc, out = _assert_total(["mle", "--sample", sample, "--reliability", reliability])
        try:
            R = float(reliability)
        except ValueError:
            return
        if 0.0 < R < 1.0:
            expected = mle.fit(load_sample_csv(sample), 0.5)
            assert rc == 0, (reliability, rc)
            record = dict(line.split("=") for line in out.splitlines())
            assert float(record["alpha_hat"]) == expected.alpha_hat
            assert float(record["beta_hat"]) == expected.beta_hat
            assert 0.0 < float(record["x_R_hat"]) < math.inf

    @_SETTINGS
    @given(_NUMBER_TEXT)
    def test_estimate_rel_tol(self, files, rel_tol):
        _, prior, sample = files
        _assert_total(["estimate", "--sample", sample, "--prior", prior, "--rel-tol", rel_tol])

    @_SETTINGS
    @given(
        st.sampled_from(["--a", "--xbar-r"]),
        st.dictionaries(st.sampled_from(["--a", "--xbar-r", "--x-min", "--x-max"]), _VALUE, max_size=2),
        _VALUE,
        _VALUE,
        st.none() | st.integers(-2, 64).map(str) | _NUMBER_TEXT,
    )
    def test_prior_pdf_flags(self, scale, flags, w, beta, points):
        flags = {scale: "1.5", **flags}
        argv = ["prior-pdf", "--w", w, "--beta", beta]
        argv += [item for pair in flags.items() for item in pair]
        if points is not None:
            argv += ["--points", points]
        _assert_total(argv)

