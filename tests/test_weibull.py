"""Weibull model: pointwise values, inverses, derivatives, sampling."""

import math

import numpy as np
import pytest

from weibayes.censoring import type2_censor
from weibayes.mle import fit, fit_many
from weibayes.prior import VirtualSample, posterior_conditional_params, prior_from_virtual_sample
from weibayes.weibull import (
    ReliableLifeWeibull,
    _inverse_transform,
    ShapeScaleWeibull,
    density,
    from_shape_scale,
    quantile,
    reliability,
    sample,
    to_shape_scale,
)

K98 = math.log(1.0 / 0.98)

PARAM_GRID = [
    ReliableLifeWeibull(x_R, beta, R)
    for x_R in (0.37, 1.0, 49.5)
    for beta in (0.6, 1.0, 2.0)
    for R in (0.98,)
]


class TestReliability:
    def test_at_zero(self):
        for p in PARAM_GRID:
            assert reliability(0.0, p) == 1.0

    def test_at_reliable_life(self):
        p = ReliableLifeWeibull(1.0, 2.0, 0.98)
        assert math.isclose(reliability(1.0, p), 0.98, rel_tol=1e-15)

    def test_hand_value_exponential_case(self):
        # beta = 1: survival at 2*x_R is R**2 exactly
        p = ReliableLifeWeibull(1.0, 1.0, 0.98)
        assert math.isclose(reliability(2.0, p), 0.98**2, rel_tol=1e-14)
        assert math.isclose(reliability(2.0, p), 0.960400, abs_tol=5e-7)

    def test_monotone_decreasing_to_zero(self):
        for p in PARAM_GRID:
            xs = np.linspace(0.0, 60.0 * p.x_R, 100)
            vals = [reliability(float(x), p) for x in xs]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert vals[-1] < reliability(0.0, p)
        wide = ReliableLifeWeibull(1.0, 2.0, 0.5)
        assert reliability(1e6, wide) == 0.0  # underflows cleanly

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            reliability(-0.1, PARAM_GRID[0])


class TestDensity:
    def test_exponential_special_case_at_origin(self):
        p = ReliableLifeWeibull(1.0, 1.0, math.exp(-1.0))  # K = 1
        assert math.isclose(p.K, 1.0, rel_tol=1e-15)
        assert density(0.0, p) == 1.0
        assert math.isclose(density(2.0, p), math.exp(-2.0), rel_tol=1e-14)

    def test_hand_value(self):
        p = ReliableLifeWeibull(1.0, 2.0, 0.98)
        expected = 2.0 * K98 * math.exp(-K98)
        assert math.isclose(density(1.0, p), expected, rel_tol=1e-14)
        assert math.isclose(density(1.0, p), 0.0396, abs_tol=5e-5)

    def test_normalizes_to_one(self):
        for p in PARAM_GRID:
            # integrate in t = ln x; the grid spans far into both tails
            t = np.linspace(math.log(p.x_R) - 40.0, math.log(p.x_R) + 14.0 / p.beta, 8001)
            x = np.exp(t)
            f = np.array([density(float(v), p) for v in x])
            assert abs(np.trapezoid(f * x, t) - 1.0) < 1e-8

    def test_matches_negative_derivative_of_reliability(self):
        for p in PARAM_GRID:
            for x in np.linspace(0.2 * p.x_R, 4.0 * p.x_R, 9):
                h = 1e-6 * x
                fd = -(reliability(x + h, p) - reliability(x - h, p)) / (2.0 * h)
                assert math.isclose(density(float(x), p), fd, rel_tol=1e-6)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="lifetimes are nonnegative"):
            density(-1.0, PARAM_GRID[0])

    def test_zero_point_cases(self):
        assert density(0.0, ReliableLifeWeibull(2.0, 1.5, 0.9)) == 0.0
        p1 = ReliableLifeWeibull(2.0, 1.0, 0.9)
        assert math.isclose(density(0.0, p1), p1.K / 2.0, rel_tol=1e-15)
        with pytest.raises(ValueError):
            density(0.0, ReliableLifeWeibull(2.0, 0.7, 0.9))


class TestQuantile:
    def test_at_reliability_level(self):
        for p in PARAM_GRID:
            assert math.isclose(quantile(p.R, p), p.x_R, rel_tol=1e-14)

    def test_hand_value_median(self):
        p = ReliableLifeWeibull(1.0, 1.0, 0.98)
        assert math.isclose(quantile(0.5, p), math.log(2.0) / K98, rel_tol=1e-14)
        assert math.isclose(quantile(0.5, p), 34.3096, abs_tol=2e-4)

    def test_round_trips_with_reliability(self):
        qs = np.linspace(0.005, 0.995, 100)
        for p in PARAM_GRID:
            for q in qs:
                x = quantile(float(q), p)
                assert math.isclose(reliability(x, p), q, rel_tol=1e-12)
                assert math.isclose(quantile(reliability(x, p), p), x, rel_tol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            quantile(bad, PARAM_GRID[0])


class TestConversion:
    def test_unit_case(self):
        p = from_shape_scale(ShapeScaleWeibull(1.0, 1.0), math.exp(-1.0))
        assert math.isclose(p.x_R, 1.0, rel_tol=1e-15)

    def test_hand_value(self):
        ss = to_shape_scale(ReliableLifeWeibull(1.0, 2.0, 0.98))
        assert math.isclose(ss.alpha, K98**-0.5, rel_tol=1e-14)
        assert math.isclose(ss.alpha, 7.0355, abs_tol=2e-4)

    def test_round_trip_identity(self):
        for p in PARAM_GRID:
            back = from_shape_scale(to_shape_scale(p), p.R)
            assert math.isclose(back.x_R, p.x_R, rel_tol=1e-12)
            assert back.beta == p.beta


class TestSample:
    def test_fixed_stream_golden_triple(self):
        p = ReliableLifeWeibull(1.0, 2.0, 0.98)
        got = sample(p, 3, np.random.default_rng(2024))
        expected = [4.403864348972185, 8.731596513828867, 7.619656067203875]
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_empirical_survival_at_reliable_life(self):
        p = ReliableLifeWeibull(1.0, 2.0, 0.98)
        draws = sample(p, 10**5, np.random.default_rng(5))
        # binomial standard error at R = 0.98 is ~4.4e-4
        assert abs((draws > p.x_R).mean() - 0.98) < 0.002

    def test_empirical_mean_exponential_case(self):
        p = ReliableLifeWeibull(1.0, 1.0, 0.98)
        draws = sample(p, 10**5, np.random.default_rng(6))
        assert abs(draws.mean() - 1.0 / K98) < 1.0

    def test_scale_equivariance_with_same_stream(self):
        for c in (0.001, 7.3, 2500.0):
            base = sample(ReliableLifeWeibull(1.0, 0.6, 0.98), 50, np.random.default_rng(9))
            scaled = sample(ReliableLifeWeibull(c, 0.6, 0.98), 50, np.random.default_rng(9))
            np.testing.assert_allclose(scaled, c * base, rtol=1e-14)

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            sample(PARAM_GRID[0], 0, np.random.default_rng(1))

    def test_zero_uniform_maps_to_tiny(self):
        class Zeros:
            def random(self, n):
                return np.zeros(n)

        tiny = np.finfo(float).tiny
        for p in PARAM_GRID:
            expected = p.x_R * (math.log(1.0 / tiny) / p.K) ** (1.0 / p.beta)
            shared = _inverse_transform(p, np.array([[0.0, 0.5], [0.25, 0.0]]))
            assert shared[0, 0] == shared[1, 1] == expected
            assert (sample(p, 3, Zeros()) == expected).all()

    def test_shared_transform_matches_sample(self):
        for i, p in enumerate(PARAM_GRID):
            rows = np.array([np.random.default_rng([i, j]).random(7) for j in range(5)])
            draws = [sample(p, 7, np.random.default_rng([i, j])) for j in range(5)]
            assert np.array_equal(_inverse_transform(p, rows), np.array(draws))


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_R=-1.0, beta=1.0, R=0.9),
            dict(x_R=1.0, beta=0.0, R=0.9),
            dict(x_R=1.0, beta=1.0, R=0.0),
            dict(x_R=1.0, beta=1.0, R=1.0),
            dict(x_R=math.inf, beta=1.0, R=0.9),
        ],
    )
    def test_reliable_life_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ReliableLifeWeibull(**kwargs)

    def test_shape_scale_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShapeScaleWeibull(0.0, 1.0)

    @pytest.mark.parametrize("R", [0.0, 1.0, 1.5, math.nan])
    @pytest.mark.parametrize(
        "call",
        [
            lambda R: from_shape_scale(ShapeScaleWeibull(1.0, 2.0), R),
            lambda R: prior_from_virtual_sample(VirtualSample((1.0, 2.0)), R, 1.5),
            lambda R: posterior_conditional_params(1.5, 1.0, type2_censor([1.0, 2.0, 3.0], 2), 1.0, R),
            lambda R: fit(type2_censor([1.0, 2.0, 3.0], 3), R),
            lambda R: fit_many(np.array([[1.0, 2.0, 3.0], [0.5, 0.7, 4.0]]), 3, R),
        ],
        ids=["from_shape_scale", "prior_from_virtual_sample", "posterior_conditional_params",
             "fit", "fit_many"],
    )
    def test_every_use_of_K_rejects_R_outside_the_unit_interval(self, call, R):
        with pytest.raises(ValueError, match=r"R must lie strictly inside \(0, 1\)"):
            call(R)

    def test_K_is_derived_from_R(self):
        p = ReliableLifeWeibull(3.0, 1.2, 0.98)
        assert p.K == math.log(1.0 / 0.98)

    @pytest.mark.parametrize("R", [0.5, 1e-300, 2.2250738585072014e-308])
    def test_K_keeps_ln_of_one_over_R_where_it_is_finite(self, R):
        assert ReliableLifeWeibull(3.0, 1.2, R).K == math.log(1.0 / R)

    @pytest.mark.parametrize("R", [5.5e-309, 1e-320, 5e-324])
    def test_K_at_subnormal_R_where_one_over_R_overflows(self, R):
        assert ReliableLifeWeibull(3.0, 1.2, R).K == -math.log(R) < 745.0
