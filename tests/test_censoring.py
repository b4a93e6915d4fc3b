"""Censored samples: construction, statistics, likelihood, CSV ingestion."""

import math

import numpy as np
import pytest

from weibayes.censoring import (
    CENSORED,
    FAILED,
    CensoredSample,
    load_sample_csv,
    log_likelihood,
    logsumexp,
    s_of_beta,
    type2_censor,
    type2_log_times,
)
from weibayes.errors import InputValidationError
from weibayes.weibull import ReliableLifeWeibull, density, reliability, sample

K98 = math.log(1.0 / 0.98)


class TestLogSumExp:
    def test_matches_scipy(self):
        from scipy.special import logsumexp as reference

        a = np.random.default_rng(8).normal(0.0, 300.0, (4, 7))
        for axis in (0, 1, -1):
            np.testing.assert_allclose(logsumexp(a, axis=axis), reference(a, axis=axis), rtol=1e-14)

    def test_non_finite_slices(self):
        a = np.array([[-np.inf, -np.inf], [np.inf, 0.0], [1e308, 1e308]])
        out = logsumexp(a, axis=1)
        assert out[0] == -np.inf and out[1] == np.inf and out[2] == 1e308


class TestType2Censor:
    def test_complete_when_r_equals_n(self):
        s = type2_censor([3.0, 1.0, 2.0], 3)
        assert s.times == (1.0, 2.0, 3.0)
        assert s.status == (FAILED,) * 3
        assert (s.n, s.r) == (3, 3)

    def test_row_wise_log_times_match_single_samples(self):
        rows = np.sort(np.random.default_rng(4).exponential(size=(6, 5)), axis=1)
        for r in (2, 3, 5):
            stacked = type2_log_times(rows, r)
            for row, got in zip(rows, stacked):
                assert np.array_equal(got, type2_censor(row.tolist(), r).stats.log_times)

    def test_censors_at_rth_order_statistic(self):
        s = type2_censor([5.0, 1.0, 4.0, 2.0, 3.0], 3)
        assert s.failure_times == (1.0, 2.0, 3.0)
        assert s.times == (1.0, 2.0, 3.0, 3.0, 3.0)
        assert s.status == (FAILED, FAILED, FAILED, CENSORED, CENSORED)

    def test_idempotent_on_canonical_samples(self):
        s = type2_censor([5.0, 1.0, 4.0, 2.0, 3.0], 3)
        again = type2_censor(list(s.times), 3)
        assert again == s

    @pytest.mark.parametrize("r", [0, 4, -1])
    def test_rejects_out_of_range_r(self, r):
        with pytest.raises(ValueError):
            type2_censor([1.0, 2.0, 3.0], r)

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            type2_censor([1.0, -2.0], 1)
        with pytest.raises(ValueError):
            type2_censor([], 1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_bad_time_among_censored_items(self, bad):
        # items past the r-th failure are recorded at the cutoff, so their own
        # times must be checked before they are replaced
        with pytest.raises(ValueError, match="positive and finite"):
            type2_censor([1.0, 2.0, 3.0, bad], 2)


class TestSampleStats:
    def test_s_at_one_is_plain_sum(self):
        s = type2_censor([5.0, 1.0, 4.0, 2.0, 3.0], 3)
        assert math.isclose(s_of_beta(s, 1.0), 12.0, rel_tol=1e-14)

    def test_s_complete_hand_value(self):
        s = CensoredSample.complete([1.0, 2.0, 3.0])
        assert math.isclose(s_of_beta(s, 2.0), 14.0, rel_tol=1e-14)

    def test_s_at_zero_counts_items(self):
        s = type2_censor([5.0, 1.0, 4.0, 2.0, 3.0], 3)
        assert s_of_beta(s, 0.0) == 5.0

    def test_s_rejects_negative_shape(self):
        with pytest.raises(ValueError, match="beta must be nonnegative"):
            s_of_beta(type2_censor([1.0, 2.0], 2), -0.5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.1, 30.0, 7).tolist()
        a = type2_censor(values, 4)
        b = type2_censor(list(reversed(values)), 4)
        assert a == b
        assert a.stats.log_P == b.stats.log_P
        for beta in (0.3, 1.0, 4.2):
            assert s_of_beta(a, beta) == s_of_beta(b, beta)

    def test_finite_difference_derivative_of_s(self):
        s = type2_censor([0.4, 1.3, 2.7, 8.1], 3)
        times = np.asarray(s.times)
        for beta in (0.5, 1.0, 3.0):
            h = 1e-6
            fd = (s_of_beta(s, beta + h) - s_of_beta(s, beta - h)) / (2.0 * h)
            exact = float((times**beta * np.log(times)).sum())
            assert math.isclose(fd, exact, rel_tol=1e-6)

    def test_log_pow_sum_matches_pow_sum(self):
        s = type2_censor([0.4, 1.3, 2.7, 8.1], 3)
        betas = np.array([0.3, 1.0, 2.5, 7.0])
        np.testing.assert_allclose(
            np.exp(s.stats.log_pow_sum(betas)),
            [s_of_beta(s, float(b)) for b in betas],
            rtol=1e-13,
        )

    def test_empty_sample(self):
        s = CensoredSample((), ())
        assert (s.n, s.r) == (0, 0)
        assert s.stats.pow_sum(2.0) == 0.0
        assert s.stats.log_pow_sum(2.0) == -math.inf


class TestLogLikelihood:
    def test_all_censored_reduces_to_survival_term(self):
        s = CensoredSample((2.0, 3.0), (CENSORED, CENSORED))
        p = ReliableLifeWeibull(1.5, 1.2, 0.98)
        expected = -p.K * s_of_beta(s, p.beta) / p.x_R**p.beta
        assert math.isclose(log_likelihood(s, p), expected, rel_tol=1e-12)

    def test_single_failure_hand_value(self):
        s = CensoredSample.complete([1.0])
        p = ReliableLifeWeibull(1.0, 1.0, 0.98)
        assert math.isclose(log_likelihood(s, p), math.log(K98) - K98, rel_tol=1e-13)

    def test_empty_sample_is_zero(self):
        assert log_likelihood(CensoredSample((), ()), ReliableLifeWeibull(1.0, 2.0, 0.9)) == 0.0

    def test_matches_per_item_density_and_reliability(self):
        # cross-module oracle over many random (sample, parameter) pairs
        rng = np.random.default_rng(23)
        for _ in range(1000):
            beta_true = float(rng.uniform(0.4, 4.0))
            model = ReliableLifeWeibull(float(rng.uniform(0.2, 5.0)), beta_true, 0.98)
            n = int(rng.integers(1, 7))
            r = int(rng.integers(1, n + 1))
            s = type2_censor(sample(model, n, rng).tolist(), r)
            # keep the evaluation point within floating range of the data scale
            p = ReliableLifeWeibull(
                max(s.times) * float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.4, 4.0)), 0.98
            )
            direct = sum(
                math.log(density(t, p)) if st == FAILED else math.log(reliability(t, p))
                for t, st in zip(s.times, s.status)
            )
            assert math.isclose(log_likelihood(s, p), direct, rel_tol=1e-10, abs_tol=1e-10)


class TestConstruction:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            CensoredSample((1.0,), (FAILED, CENSORED))

    def test_rejects_unknown_status(self):
        with pytest.raises(ValueError):
            CensoredSample((1.0,), ("lost",))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            CensoredSample((0.0,), (FAILED,))

    def test_accepts_noncanonical_right_censoring(self):
        s = CensoredSample((1.0, 2.0, 5.0), (CENSORED, FAILED, CENSORED))
        assert s.r == 1
        assert s.failure_times == (2.0,)


class TestCsvIngestion:
    def _write(self, tmp_path, text):
        path = tmp_path / "sample.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(
            tmp_path, "time,status\n1.5,failed\n2.5,failed\n2.5,censored\n"
        )
        s = load_sample_csv(path)
        assert s.times == (1.5, 2.5, 2.5)
        assert s.r == 2

    def test_header_only_gives_empty_sample(self, tmp_path):
        s = load_sample_csv(self._write(tmp_path, "time,status\n"))
        assert s.n == 0

    def test_rejects_nonpositive_time_with_line_number(self, tmp_path):
        path = self._write(tmp_path, "time,status\n1.0,failed\n-3.0,failed\n")
        with pytest.raises(InputValidationError, match="line 3"):
            load_sample_csv(path)

    def test_rejects_unknown_status_with_line_number(self, tmp_path):
        path = self._write(tmp_path, "time,status\n1.0,failed\n2.0,suspended\n")
        with pytest.raises(InputValidationError, match="line 3"):
            load_sample_csv(path)

    def test_rejects_malformed_time_with_line_number(self, tmp_path):
        path = self._write(tmp_path, "time,status\nabc,failed\n")
        with pytest.raises(InputValidationError, match="line 2"):
            load_sample_csv(path)

    def test_rejects_missing_header(self, tmp_path):
        path = self._write(tmp_path, "t,s\n1.0,failed\n")
        with pytest.raises(InputValidationError, match="time"):
            load_sample_csv(path)
