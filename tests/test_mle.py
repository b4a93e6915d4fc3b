"""Maximum-likelihood baseline: profile score, root solve, calibration."""

import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import shape_mle_brentq
from weibayes import mle
from weibayes.censoring import CensoredSample, log_likelihood, type2_censor, type2_log_times
from weibayes.errors import NoFiniteMleError
from weibayes.mle import (
    _MAX_ITERATIONS,
    _fit_rows,
    UnbiasingEntry,
    append_calibration_cache,
    calibrate_B,
    calibration_row,
    fit,
    fit_many,
    profile_equation,
    read_calibration_cache,
    unbiased_beta,
)
from weibayes.weibull import ReliableLifeWeibull, sample

K98 = math.log(1.0 / 0.98)
F, C = "failed", "censored"


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

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite_shape(self, beta):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            profile_equation(beta, CensoredSample.complete([1.0, 2.0]))

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
    def test_subnormal_reliability_level(self):
        # 1/R overflows at R = 5e-324, but K = -ln R = 744.4 is finite
        s = CensoredSample.complete([1.0, 2.0])
        result, at_half = fit(s, 5e-324), fit(s, 0.5)
        assert result.converged
        assert (result.alpha_hat, result.beta_hat) == (at_half.alpha_hat, at_half.beta_hat)
        expected = result.alpha_hat * (-math.log(5e-324)) ** (1.0 / result.beta_hat)
        assert math.isclose(result.x_R_hat, expected, rel_tol=1e-13)

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

    @pytest.mark.parametrize("r", [1, 0, 4])
    def test_fit_many_rejects_r_outside_2_to_n(self, r):
        with pytest.raises(ValueError, match=f"need 2 <= r <= n = 3, got r = {r}"):
            fit_many(np.array([[0.5, 1.0, 2.0]]), r, 0.98)

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


def _oracle_designs(count=300, seed=4321):
    """Random designs, n = 3..40, shapes 0.3..8: each a sorted complete
    sample with a type-II r, and the same lifetimes under random right
    censoring that keeps the two earliest as failures."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 41))
        shape = float(np.exp(rng.uniform(math.log(0.3), math.log(8.0))))
        model = ReliableLifeWeibull(float(np.exp(rng.uniform(-3.0, 3.0))), shape, 0.98)
        times = np.sort(sample(model, n, rng))
        r = int(rng.integers(2, n + 1))
        limits = rng.uniform(0.0, 2.0 * times[-1], n)
        limits[:2] = np.inf
        censored = CensoredSample(
            tuple(np.minimum(times, limits).tolist()),
            tuple(np.where(times <= limits, F, C).tolist()),
        )
        yield times, r, censored


def _tied_designs(count=300, seed=8765):
    """Right-censored samples, n = 5..40, that are not type II (an item below the
    largest time is censored) and whose censored items tie with the largest time:
    even-numbered ones with a failure at that time, odd-numbered ones without."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(5, 41))
        shape = float(np.exp(rng.uniform(math.log(0.3), math.log(8.0))))
        times = np.sort(sample(ReliableLifeWeibull(float(np.exp(rng.uniform(-3.0, 3.0))), shape, 0.98), n, rng))
        tied = int(rng.integers(2, n - 2))
        times[n - tied :] = times[-1]
        status = np.where(rng.random(n) < 0.7, F, C)
        status[:2], status[2] = F, C
        status[n - tied :] = C
        if i % 2 == 0:
            status[int(rng.integers(n - tied, n))] = F
        yield CensoredSample(tuple(times.tolist()), tuple(status.tolist()))


class TestOracleBattery:
    # brentq's own xtol is 1e-13 absolute, so 1e-11 relative is what it can check
    def test_type2_rows_match_brentq_and_fit(self):
        for times, r, _ in _oracle_designs():
            beta_hat, x_R_hat, ok = fit_many(times[None, :], r, 0.98)
            s = type2_censor(times.tolist(), r)
            assert ok[0]
            assert math.isclose(
                beta_hat[0], shape_mle_brentq(s.times, s.failure_times), rel_tol=1e-11
            )
            single = fit(s, 0.98)
            assert (single.beta_hat, single.x_R_hat) == (beta_hat[0], x_R_hat[0])

    def test_right_censored_samples_match_brentq(self):
        for _, _, s in _oracle_designs():
            got = fit(s, 0.98)
            assert got.converged
            assert math.isclose(
                got.beta_hat, shape_mle_brentq(s.times, s.failure_times), rel_tol=1e-11
            )

    def test_censored_items_tied_with_the_largest_time_match_brentq(self):
        # fit folds such items into the last column when a failure sits there too
        for s in _tied_designs():
            got = fit(s, 0.98)
            assert got.converged
            assert math.isclose(
                got.beta_hat, shape_mle_brentq(s.times, s.failure_times), rel_tol=1e-11
            )


_TINIEST = math.ulp(0.0)  # 5e-324, the smallest positive double
# rows with ties, a failure at 1e-300, times spanning 1e-200..1e200, all equal
_TIES = [[1.0, 1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 2.0, 2.0, 5.0],
         [1.0, 1.0, 1.0, 1.0, 1.0], [0.5, 0.5, 0.5, 7.0, 7.0]]
_TINY = [[1e-300, 1.0, 2.0, 2.0], [1e-300, 1e-300, 1.0, 3.0], [1e-300, 1.0, 1.0, 1.0]]
_SPAN = [[1e-200, 1.0, 1e200, 1e200], [1e-200, 1e-199, 1e199, 1e200],
         [1e-200, 1e200, 1e200, 1e200], [1e-200, 1e-100, 1e100, 1e200]]
_EQUAL = [[3.7] * 6] * 2


class TestSolverSafeguards:
    # expected masks and outcomes are those of the bisection solver this
    # Newton solve replaced
    @pytest.mark.parametrize(
        "rows,r,expected",
        [
            pytest.param(_TIES, 2, "0000", id="ties-r2"),
            pytest.param(_TIES, 3, "1000", id="ties-r3"),
            pytest.param(_TIES, 4, "1001", id="ties-r4"),
            pytest.param(_TIES, 5, "1101", id="ties-r5"),
            pytest.param(_TINY, 2, "101", id="tiny-r2"),
            pytest.param(_TINY, 4, "111", id="tiny-r4"),
            pytest.param(_SPAN, 2, "1111", id="span-r2"),
            pytest.param(_SPAN, 4, "1111", id="span-r4"),
            pytest.param(_EQUAL, 2, "00", id="equal-r2"),
            pytest.param(_EQUAL, 6, "00", id="equal-r6"),
        ],
    )
    def test_fit_many_masks_on_extreme_rows(self, rows, r, expected):
        beta_hat, _, ok = fit_many(np.array(rows), r, 0.98)
        assert "".join("1" if v else "0" for v in ok) == expected
        assert np.isfinite(beta_hat).all()

    @pytest.mark.parametrize("n,r", [(2, 2), (3, 3), (5, 3), (10, 7), (40, 2), (40, 40)])
    def test_coinciding_failures_have_no_root(self, n, r):
        # all ln x of such a row are equal, so its score at the upper bracket end is
        # 1e-6 plus the rounding of their mean: positive even where the mean rounds
        # below ln x, as it does on some of this grid for r > 2
        grid = np.exp(np.linspace(-700.0, 700.0, 2001))
        log_grid = np.log(grid)
        rounds_below = np.repeat(log_grid[:, None], r, axis=1).sum(axis=1) / r < log_grid
        assert rounds_below.any() == (r > 2)
        values = np.concatenate([[_TINIEST, sys.float_info.max], grid[rounds_below][:50], grid[::40]])
        rows = np.repeat(values[:, None], n, axis=1)
        rows[:, r:] = np.minimum(rows[:, r:], sys.float_info.max / 2.0) * 2.0  # censored items lie above
        assert not fit_many(rows, r, 0.98)[2].any()
        log_times = type2_log_times(rows, r)
        has_root = _fit_rows(log_times, log_times[:, :r].sum(axis=1) / r, r, 0.98)[5]
        assert not has_root.any()

    @pytest.mark.parametrize("shape", [0.05, 50.0])
    @pytest.mark.parametrize("n,r", [(3, 2), (3, 3), (5, 2), (5, 5), (10, 3), (10, 10)])
    def test_extreme_true_shapes_stay_ok(self, shape, n, r):
        # the same exponential draws at shape 1: beta_hat scales with the shape
        draws = np.sort(np.random.default_rng(606 + n * r).standard_exponential((400, n)), axis=1)
        beta_hat, _, ok = fit_many(draws ** (1.0 / shape), r, 0.98)
        unit, _, _ = fit_many(draws, r, 0.98)
        assert ok.all()
        np.testing.assert_allclose(beta_hat / shape, unit, rtol=1e-9)

    @pytest.mark.parametrize(
        "times,status,outcome",
        [
            ((1e-200, 9.5e-167, 1.6e90, 3e120, 1e150, 2.0e199), (F, F, C, C, C, C),
             "exceeds the double range"),
            ((1e-300, 1.0, 5.0), (F, F, C), None),
            ((1e-300, 1e-300, 1.0), (F, F, F), None),
            ((1e-300, 1e-300, 1.0), (F, F, C), "coincide"),
            ((1e-200, 1e200, 1e200), (F, F, C), None),
            ((1e-200, 1.0, 1e200), (F, F, F), None),
            ((1.0, 1.0, 2.0), (F, F, C), "coincide"),
            ((1.0, 1.0, 2.0), (F, F, F), None),
            ((2.0, 2.0, 2.0, 5.0), (F, F, F, C), "coincide"),
            ((3.7, 3.7, 3.7), (F, F, F), "coincide"),
            ((1.0, 1.0 + 1e-15, 2.0), (F, F, F), None),
            ((1.0, 1.0 + 1e-15, 1e300), (F, F, C), None),
            ((1.0, 1.0 + 1e-12, 1e300), (F, C, F), None),
            ((1.0, 1.0 + 1e-9, 1.0 + 2e-9), (F, F, C), "no sign change"),
            # close failures below a block of censored items: two bisection steps
            ((1.0, 1.006) + (1.088,) * 10, (F, F) + (C,) * 10, None),
        ],
    )
    def test_fit_on_extreme_samples(self, times, status, outcome):
        s = CensoredSample(times, status)
        if outcome is not None:
            with pytest.raises(NoFiniteMleError, match=outcome):
                fit(s, 0.98)
            return
        result = fit(s, 0.98)
        assert result.converged
        assert 0 < result.iterations < _MAX_ITERATIONS
        assert math.isclose(
            result.beta_hat, shape_mle_brentq(s.times, s.failure_times), rel_tol=1e-9
        )

    def test_iterations_median_is_small(self):
        rng = np.random.default_rng(29)
        counts = []
        for _ in range(500):
            n = int(rng.integers(3, 41))
            shape = float(np.exp(rng.uniform(math.log(0.05), math.log(50.0))))
            s = type2_censor(sample(ReliableLifeWeibull(1.0, shape, 0.98), n, rng).tolist(),
                             int(rng.integers(2, n + 1)))
            try:
                result = fit(s, 0.98)
            except NoFiniteMleError:
                continue
            counts.append(result.iterations)
        assert len(counts) > 450
        assert max(counts) < _MAX_ITERATIONS
        assert np.median(counts) <= 10


class TestProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(3, 40), st.data(), st.floats(0.05, 50.0), st.integers(0, 2**32 - 1))
    def test_fit_equals_its_row_of_fit_many(self, n, data, shape, seed):
        r = data.draw(st.integers(2, n), label="r")
        m = data.draw(st.integers(2, 8), label="rows")
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.standard_exponential((m, n)) ** (1.0 / shape), axis=1)
        if data.draw(st.booleans(), label="ties"):
            rows = np.ceil(rows * 10.0) / 10.0
        beta_hat, x_R_hat, ok = fit_many(rows, r, 0.9)
        for i in range(m):
            try:
                single = fit(type2_censor(rows[i].tolist(), r), 0.9)
            except NoFiniteMleError:
                assert not ok[i]
                continue
            assert (single.beta_hat, single.x_R_hat) == (beta_hat[i], x_R_hat[i])
            assert ok[i] == single.converged

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(1, 1000), st.booleans()), min_size=2, max_size=10),
           st.floats(-6.0, 6.0))
    def test_scaling_the_times_keeps_beta_hat_and_scales_x_R_hat(self, items, log10_c):
        # times on a 0.1 grid up to 100, so ties are common; c = 10**log10_c
        c = 10.0**log10_c
        status = tuple(F if failed else C for _, failed in items)
        base = CensoredSample(tuple(0.1 * k for k, _ in items), status)
        scaled = CensoredSample(tuple(c * t for t in base.times), status)
        try:
            want = fit(base, 0.9)
        except NoFiniteMleError:
            with pytest.raises(NoFiniteMleError):
                fit(scaled, 0.9)
            return
        got = fit(scaled, 0.9)
        # Each ln(c*x) is rounded to within 2**-53 * |ln(c*x)|, about 2e-15 here.
        # beta_hat solves an equation in the differences of ln x scaled by beta_hat,
        # so its relative error is about beta_hat times that; ln x_R_hat carries a
        # term of size up to about 5/beta_hat that moves with it.  Hence a bound in
        # max(beta_hat, 1/beta_hat); the largest ratio over 60,000 random samples of
        # this kind was 4.2e-15 * max(1, beta_hat) for beta_hat and 1.2e-14 for x_R_hat.
        tol = 5e-14 * max(want.beta_hat, 1.0 / want.beta_hat)
        assert math.isclose(got.beta_hat, want.beta_hat, rel_tol=tol)
        assert math.isclose(got.x_R_hat, c * want.x_R_hat, rel_tol=tol)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.floats(_TINIEST, sys.float_info.max), st.booleans()), max_size=38))
    def test_score_is_positive_at_the_lower_bracket_end(self, items):
        # the MLE core scores only the upper bracket end on this bound
        items += [(_TINIEST, True), (sys.float_info.max, True)]
        s = CensoredSample(tuple(t for t, _ in items), tuple(F if f else C for _, f in items))
        assert profile_equation(1e-6, s) > 0.0


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

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
            calibrate_B(3, 3, 10**4, -1)

    @pytest.mark.parametrize(
        "args,name",
        [
            ((3, 3, 10**4, 7.0), "seed"),
            ((3, 3, 10**4, 0.5), "seed"),
            ((3, 3, 10**4, True), "seed"),
            ((3, 3, 1e4, 7), "replications"),
            ((3, 3, 12345.6, 7), "replications"),
            ((3, 3, True, 7), "replications"),
            ((3.0, 3, 10**4, 7), "n"),
            ((3, 2.9, 10**4, 7), "r"),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            calibrate_B(*args)

    def test_numpy_integers_give_the_same_entry(self):
        args = (5, 3, 10**4, 7)
        assert calibrate_B(*map(np.int64, args)) == calibrate_B(*args)


def _fake_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _spy_blocks(monkeypatch, record):
    """Make mle.fit_many call ``record(sorted_times)`` before fitting."""
    real = mle.fit_many

    def spy(sorted_times, r, R):
        record(sorted_times)
        return real(sorted_times, r, R)

    monkeypatch.setattr(mle, "fit_many", spy)


class TestCalibrationBlocks:
    """calibrate_B fits its rows in one block per CPU, at least 5,000 rows each."""

    @pytest.mark.parametrize(
        "n,r,replications", [(3, 3, 10**4), (10, 4, 10**4), (40, 16, 10**4), (5, 3, 12_345), (20, 8, 20_000)]
    )
    def test_every_cpu_count_gives_the_serial_entry(self, monkeypatch, n, r, replications):
        # the serial computation: one sort and one fit_many over every row
        draws = np.random.default_rng([7, n, r]).standard_exponential((replications, n))
        beta_hat, _, ok = fit_many(np.sort(draws, axis=1), r, R=0.5)
        beta_hat = beta_hat[ok]
        mean = float(beta_hat.mean())
        std_error = float(beta_hat.std(ddof=1) / (math.sqrt(beta_hat.size) * mean**2))
        serial = UnbiasingEntry(n, r, 1.0 / mean, replications, std_error, 7)
        for cpus in (1, 2, 3, 4):
            sizes = []
            with monkeypatch.context() as patch:
                _fake_cpus(patch, cpus)
                _spy_blocks(patch, lambda block: sizes.append(len(block)))
                before = threading.active_count()
                assert calibrate_B(n, r, replications, 7) == serial
                assert threading.active_count() == before
            blocks = max(1, min(cpus, replications // 5000))
            assert sorted(sizes) == sorted(len(b) for b in np.array_split(draws, blocks))

    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        serial = calibrate_B(3, 3, 10**4, 5)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        sizes = []
        _spy_blocks(monkeypatch, lambda block: sizes.append(len(block)))
        assert calibrate_B(3, 3, 10**4, 5) == serial
        assert sizes == [5000, 5000]

    def test_helper_threads_see_the_callers_errstate(self, monkeypatch):
        _fake_cpus(monkeypatch, 4)
        seen = []
        _spy_blocks(monkeypatch, lambda block: seen.append((threading.current_thread(), np.geterr())))
        with np.errstate(all="ignore"):  # the default warns on divide, over and invalid
            expected = np.geterr()
            calibrate_B(3, 3, 20_000, 1)
        assert len({thread for thread, _ in seen}) == 4
        assert [errs for _, errs in seen] == [expected] * 4

    def test_exception_in_a_helper_reaches_the_caller(self, monkeypatch):
        _fake_cpus(monkeypatch, 2)

        def fail_off_the_calling_thread(block):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper block failed")

        _spy_blocks(monkeypatch, fail_off_the_calling_thread)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper block failed"):
            calibrate_B(3, 3, 10**4, 1)
        assert threading.active_count() == before


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

    def test_append_after_a_row_without_line_break(self, tmp_path):
        path = tmp_path / "bcache.csv"
        path.write_text("n,r,B,replications,std_error,seed\n3,3,0.5,10000,0.01,2", encoding="utf-8")
        entry = calibrate_B(3, 3, 10**4, 1, cache_path=path)
        assert read_calibration_cache(path) == {
            (3, 3, 10**4, 2): UnbiasingEntry(3, 3, 0.5, 10**4, 0.01, 2), (3, 3, 10**4, 1): entry,
        }

    def test_empty_file_gets_the_header_and_one_row(self, tmp_path):
        path = tmp_path / "bcache.csv"
        path.write_bytes(b"")
        entry = calibrate_B(3, 3, 10**4, 1, cache_path=path)
        assert entry == calibrate_B(3, 3, 10**4, 1)
        content = path.read_text(encoding="utf-8")
        assert content == "n,r,B,replications,std_error,seed\n" + calibration_row(entry) + "\n"
        # the second call reads that row back and appends nothing
        assert calibrate_B(3, 3, 10**4, 1, cache_path=path) == entry
        assert path.read_text(encoding="utf-8") == content

    def test_append_preserves_header(self, tmp_path):
        path = tmp_path / "bcache.csv"
        entry = UnbiasingEntry(n=3, r=3, B=0.5, replications=10**4, std_error=0.01, seed=1)
        append_calibration_cache(path, entry)
        append_calibration_cache(path, entry)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,r,B,replications,std_error,seed"
        assert len(lines) == 3
