"""Maximum-likelihood baseline: profile score, root solve, calibration."""

import math

import numpy as np
import pytest

from oracles import shape_mle_brentq
from weibayes.censoring import CensoredSample, log_likelihood, type2_censor
from weibayes.errors import NoFiniteMleError
from weibayes.mle import (
    UnbiasingEntry,
    append_calibration_cache,
    calibrate_B,
    fit,
    fit_many,
    profile_equation,
    read_calibration_cache,
    unbiased_beta,
)
from weibayes.weibull import ReliableLifeWeibull, sample

K98 = math.log(1.0 / 0.98)


def _g_by_hand(beta, times, failed):
    lx = np.log(np.asarray(times, dtype=float))
    p = np.exp(beta * lx - (beta * lx).max())
    return float(np.mean(np.log(failed)) + 1.0 / beta - (p * lx).sum() / p.sum())


class TestProfileEquation:
    def test_hand_values_complete_pair(self):
        s = CensoredSample.complete([1.0, 2.0])
        assert math.isclose(profile_equation(2.0, s), 0.2921, abs_tol=5e-5)
        assert math.isclose(profile_equation(4.0, s), -0.0558, abs_tol=5e-5)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            times = rng.uniform(0.1, 20.0, n)
            r = int(rng.integers(2, n + 1))
            s = type2_censor(times.tolist(), r)
            beta = float(rng.uniform(0.2, 8.0))
            assert math.isclose(
                profile_equation(beta, s),
                _g_by_hand(beta, s.times, s.failure_times),
                rel_tol=1e-12,
                abs_tol=1e-12,
            )

    def test_strictly_decreasing(self):
        s = type2_censor([0.5, 1.1, 2.7, 4.0, 9.0], 3)
        betas = np.linspace(0.05, 30.0, 200)
        vals = [profile_equation(float(b), s) for b in betas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_single_failure(self):
        with pytest.raises(NoFiniteMleError):
            profile_equation(1.0, type2_censor([1.0, 2.0, 3.0], 1))

    def test_rejects_equal_failures(self):
        with pytest.raises(NoFiniteMleError):
            profile_equation(1.0, CensoredSample.complete([2.0, 2.0, 2.0]))

    def test_bracket_always_found_on_admissible_samples(self):
        # sign change within the expanded bracket on 1e4 random samples
        rng = np.random.default_rng(17)
        lo_edge, hi_edge = 1e-6, 1e6
        for _ in range(10**4):
            n = int(rng.integers(2, 6))
            beta_true = float(np.exp(rng.uniform(np.log(0.3), np.log(8.0))))
            model = ReliableLifeWeibull(float(np.exp(rng.uniform(-2, 2))), beta_true, 0.98)
            draws = sample(model, n, rng)
            r = int(rng.integers(2, n + 1))
            s = type2_censor(draws.tolist(), r)
            assert profile_equation(lo_edge, s) > 0.0
            assert profile_equation(hi_edge, s) < 0.0


class TestFit:
    def test_complete_pair_against_brentq(self):
        s = CensoredSample.complete([1.0, 2.0])
        result = fit(s, 0.98)
        beta_oracle = shape_mle_brentq(s.times, s.failure_times)
        assert result.converged
        assert math.isclose(result.beta_hat, beta_oracle, rel_tol=1e-9)
        assert math.isclose(result.beta_hat, 3.4615, abs_tol=5e-4)
        alpha_oracle = (sum(t**beta_oracle for t in s.times) / 2.0) ** (1.0 / beta_oracle)
        assert math.isclose(result.alpha_hat, alpha_oracle, rel_tol=1e-9)
        assert math.isclose(result.alpha_hat, 1.6787, abs_tol=5e-4)

    def test_matches_brentq_on_random_censored_samples(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(3, 8))
            model = ReliableLifeWeibull(1.0, float(rng.uniform(0.5, 3.0)), 0.98)
            s = type2_censor(sample(model, n, rng).tolist(), int(rng.integers(2, n + 1)))
            got = fit(s, 0.98)
            assert got.converged
            assert math.isclose(
                got.beta_hat, shape_mle_brentq(s.times, s.failure_times), rel_tol=1e-9
            )

    def test_score_vanishes_at_solution(self):
        s = CensoredSample.complete([1.0, math.e, math.e**2])
        result = fit(s, 0.98)
        assert abs(profile_equation(result.beta_hat, s)) < 1e-12

    def test_scale_equivariance(self):
        s = type2_censor([0.8, 1.7, 3.1, 5.5, 5.9], 3)
        c = 41.7
        scaled = type2_censor([c * t for t in [0.8, 1.7, 3.1, 5.5, 5.9]], 3)
        base = fit(s, 0.98)
        other = fit(scaled, 0.98)
        assert abs(other.beta_hat / base.beta_hat - 1.0) < 1e-10
        assert abs(other.alpha_hat / (c * base.alpha_hat) - 1.0) < 1e-10
        assert abs(other.x_R_hat / (c * base.x_R_hat) - 1.0) < 1e-10

    def test_reliable_life_identity(self):
        s = type2_censor([0.8, 1.7, 3.1, 5.5, 5.9], 4)
        result = fit(s, 0.98)
        assert math.isclose(
            result.x_R_hat, result.alpha_hat * K98 ** (1.0 / result.beta_hat), rel_tol=1e-12
        )

    def test_maximizes_likelihood(self):
        rng = np.random.default_rng(97)
        s = type2_censor([0.9, 2.1, 3.3, 7.0, 8.2], 4)
        result = fit(s, 0.98)
        best = log_likelihood(s, ReliableLifeWeibull(result.x_R_hat, result.beta_hat, 0.98))
        for _ in range(200):
            x_pert = result.x_R_hat * float(np.exp(rng.uniform(-0.5, 0.5)))
            b_pert = result.beta_hat * float(np.exp(rng.uniform(-0.5, 0.5)))
            assert best >= log_likelihood(s, ReliableLifeWeibull(x_pert, b_pert, 0.98))

    def test_no_finite_mle_for_one_failure(self):
        with pytest.raises(NoFiniteMleError):
            fit(type2_censor([1.0, 2.0, 3.0], 1), 0.98)

    def test_scale_beyond_double_range_is_no_finite_mle(self):
        # two tiny failures below items censored near 1e200: beta_hat ~ 1.5e-3
        # puts ln(alpha_hat) near 878, past the largest double
        s = CensoredSample(
            (1e-200, 9.5e-167, 1.6e90, 3e120, 1e150, 2.0e199),
            ("failed", "failed", "censored", "censored", "censored", "censored"),
        )
        with pytest.raises(NoFiniteMleError, match="exceeds the double range"):
            fit(s, 0.98)

    def test_fit_many_marks_overflowing_scale_not_ok(self):
        rows = np.array([[1e-300, 1.0] + [2.0] * 38, [0.5, 1.0] + [2.0] * 38])
        beta_hat, x_R_hat, ok = fit_many(rows, 2, 0.1)
        assert np.isfinite(beta_hat).all()
        assert not np.isfinite(x_R_hat[0]) and not ok[0]
        assert np.isfinite(x_R_hat[1]) and ok[1]

    def test_fit_many_matches_scalar_fit(self):
        rng = np.random.default_rng(71)
        model = ReliableLifeWeibull(1.0, 1.3, 0.98)
        rows = np.sort(np.vstack([sample(model, 5, rng) for _ in range(40)]), axis=1)
        beta_hat, x_R_hat, ok = fit_many(rows, 3, 0.98)
        assert ok.all()
        for i in range(rows.shape[0]):
            single = fit(type2_censor(rows[i].tolist(), 3), 0.98)
            assert beta_hat[i] == single.beta_hat
            assert math.isclose(x_R_hat[i], single.x_R_hat, rel_tol=1e-14)


class TestCalibration:
    def test_deterministic(self):
        a = calibrate_B(3, 3, 10**4, 42)
        b = calibrate_B(3, 3, 10**4, 42)
        assert a == b

    def test_small_sample_shape_bias_is_upward(self):
        # the MLE overestimates the shape, so B = 1/E[beta_hat/beta] < 1
        for n, r in ((3, 3), (5, 3)):
            entry = calibrate_B(n, r, 10**4, 42)
            assert entry.B < 1.0
            assert entry.std_error > 0.0

    def test_pivotality_witness(self):
        # calibrating on generating shape 2 (scaling the estimates back)
        # agrees with the unit-shape calibration to Monte Carlo error
        reference = calibrate_B(5, 3, 10**5, 11)
        rng = np.random.default_rng(12)
        beta_true = 2.0
        draws = np.sort(rng.standard_exponential((10**5, 5)) ** (1.0 / beta_true), axis=1)
        beta_hat, _, ok = fit_many(draws, 3, 0.98)
        mean = float((beta_hat[ok] / beta_true).mean())
        other_B = 1.0 / mean
        other_se = float((beta_hat[ok] / beta_true).std(ddof=1) / (math.sqrt(ok.sum()) * mean**2))
        combined = math.hypot(reference.std_error, other_se)
        assert abs(reference.B - other_B) < 3.0 * combined

    def test_approaches_one_from_below_with_sample_size(self):
        values = [calibrate_B(n, n, 10**4, 21).B for n in (3, 5, 7, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values)

    def test_unbiasing_recenters_the_estimate(self):
        entry = calibrate_B(3, 3, 10**5, 99)
        rng = np.random.default_rng(100)
        draws = np.sort(rng.standard_exponential((10**5, 3)), axis=1)
        beta_hat, _, ok = fit_many(draws, 3, 0.98)
        recentred = float((entry.B * beta_hat[ok]).mean())
        assert abs(recentred - 1.0) < 2.0 * entry.std_error / entry.B**2

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            calibrate_B(3, 1, 10**4, 1)
        with pytest.raises(ValueError):
            calibrate_B(3, 3, 100, 1)
        with pytest.raises(ValueError):
            calibrate_B(3, 5, 10**4, 1)


class TestUnbiasedBeta:
    def test_identity_when_factor_is_one(self):
        entry = UnbiasingEntry(n=3, r=3, B=1.0, replications=10**4, std_error=0.0, seed=0)
        assert unbiased_beta(2.5, entry) == 2.5

    def test_applies_factor(self):
        entry = UnbiasingEntry(n=3, r=3, B=0.45, replications=10**4, std_error=0.001, seed=0)
        assert math.isclose(unbiased_beta(2.0, entry, n=3, r=3), 0.9, rel_tol=1e-15)

    def test_rejects_mismatched_design(self):
        entry = UnbiasingEntry(n=3, r=3, B=0.45, replications=10**4, std_error=0.001, seed=0)
        with pytest.raises(ValueError):
            unbiased_beta(2.0, entry, n=5, r=3)
        with pytest.raises(ValueError):
            unbiased_beta(2.0, entry, n=3, r=2)


class TestCalibrationCache:
    def test_round_trip_and_reuse(self, tmp_path):
        path = tmp_path / "bcache.csv"
        first = calibrate_B(3, 2, 10**4, 7, cache_path=path)
        table = read_calibration_cache(path)
        assert table[(3, 2, 10**4, 7)] == first
        again = calibrate_B(3, 2, 10**4, 7, cache_path=path)
        assert again == first
        # a second key appends rather than rewrites
        other = calibrate_B(4, 2, 10**4, 7, cache_path=path)
        table = read_calibration_cache(path)
        assert len(table) == 2
        assert table[(4, 2, 10**4, 7)] == other

    def test_append_preserves_header(self, tmp_path):
        path = tmp_path / "bcache.csv"
        entry = UnbiasingEntry(n=3, r=3, B=0.5, replications=10**4, std_error=0.01, seed=1)
        append_calibration_cache(path, entry)
        append_calibration_cache(path, entry)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,r,B,replications,std_error,seed"
        assert len(lines) == 3
