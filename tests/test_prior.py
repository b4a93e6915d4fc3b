"""Prior construction: hyperparameter conversion, conditional density,
conjugate update, virtual-sample equivalence, and the mean identities."""

import json
import math
import re
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weibayes.prior as prior_module
from oracles import grid_rule_violation, grid_w_max, igg_moment_quad
from weibayes import posterior
from weibayes.censoring import CensoredSample, type2_censor
from weibayes.errors import (
    ElicitationConstraintError,
    InputValidationError,
    PriorDominanceWarning,
)
from weibayes.prior import (
    BetaInterval,
    PriorSpec,
    VirtualSample,
    WRule,
    beta_prior_pdf,
    conditional_prior,
    hyper_a,
    igg_pdf,
    load_prior_spec,
    posterior_conditional_params,
    prior_from_virtual_sample,
    prior_spec_from_dict,
)
from weibayes.simulate import CASE_LABELS, STANDARD_W_LABELS, build_case, resolve_w_rule

mp.mp.dps = 30

K98 = math.log(1.0 / 0.98)
CASE_I_RULE = WRule.const_over_beta(1.1)


class TestConstructorValidation:
    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: BetaInterval(1.0, math.inf), "interval bounds must be finite"),
            (lambda: BetaInterval(math.nan, 2.0), "interval bounds must be finite"),
            (lambda: BetaInterval(2.0, 2.0), "need 0 < beta1 < beta2"),
            (lambda: BetaInterval(3.0, 1.0), "need 0 < beta1 < beta2"),
            (lambda: BetaInterval(0.0, 1.0), "need 0 < beta1 < beta2"),
            (lambda: PriorSpec(BetaInterval(1.0, 3.0), 0.0, 0.98, CASE_I_RULE), "xbar_R must be positive"),
            (lambda: PriorSpec(BetaInterval(1.0, 3.0), -1.0, 0.98, CASE_I_RULE), "xbar_R must be positive"),
            (lambda: VirtualSample((1.0, 0.0)), "virtual times must be positive"),
            (lambda: VirtualSample((-2.0,)), "virtual times must be positive"),
        ],
    )
    def test_rejects_invalid_values(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestBetaPriorPdf:
    def test_inside(self):
        assert beta_prior_pdf(2.0, BetaInterval(1.0, 3.0)) == 0.5

    def test_outside(self):
        assert beta_prior_pdf(2.0, BetaInterval(0.7, 1.3)) == 0.0

    def test_normalizes(self):
        iv = BetaInterval(0.3, 0.9)
        grid = np.linspace(iv.beta1, iv.beta2, 10001)
        vals = [beta_prior_pdf(float(b), iv) for b in grid]
        assert math.isclose(np.trapezoid(vals, grid), 1.0, rel_tol=1e-12)


class TestHyperA:
    def test_gamma_of_integers(self):
        assert math.isclose(hyper_a(10.0, 2.0, 1.0), 10.0, rel_tol=1e-14)

    def test_half_integer_gamma(self):
        assert math.isclose(hyper_a(1.0, 1.0, 2.0), 1.0 / math.sqrt(math.pi), rel_tol=1e-13)

    def test_rejects_weight_at_or_below_reciprocal_shape(self):
        with pytest.raises(ElicitationConstraintError):
            hyper_a(1.0, 0.9, 1.0)
        with pytest.raises(ElicitationConstraintError):
            hyper_a(1.0, 1.0, 1.0)

    def test_survives_weight_near_boundary(self):
        # the log-gamma difference must not overflow for tiny w - 1/beta
        a = hyper_a(5.0, 1.0 + 1e-9, 1.0)
        assert 0.0 < a < 1e-6

    def test_matches_mpmath_near_boundary(self):
        # w - 1/beta from 1e-12 up to 200; powers of two keep 1/beta and the
        # difference exact, so the float inputs define the reference exactly
        rng = np.random.default_rng(7)
        gaps = np.concatenate(
            [
                np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.025, 0.05, 0.5, 1.0, 1.5, 2.0, 10.0, 200.0]),
                np.exp(rng.uniform(math.log(1e-9), math.log(200.0), 500)),
            ]
        )
        for i, gap in enumerate(gaps):
            beta = (0.25, 0.5, 1.0, 2.0, 4.0)[i % 5]
            w = 1.0 / beta + float(gap)
            reference = mp.gamma(mp.mpf(w)) / mp.gamma(mp.mpf(w) - 1 / mp.mpf(beta))
            assert math.isclose(hyper_a(1.0, w, beta), float(reference), rel_tol=1e-12), (w, beta)

    @pytest.mark.parametrize("xbar_R,w,beta", [(1.0, 1e10, 1e-6), (1e300, 1e10, 0.05)])
    def test_ratio_beyond_the_double_range_raises_value_error(self, xbar_R, w, beta):
        with pytest.raises(ValueError, match="exceeds the double range"):
            hyper_a(xbar_R, w, beta)

    @pytest.mark.parametrize("w", [1e8, 1e12, 1e15])
    def test_large_weight_matches_exact_products(self, w):
        # Gamma(w) / Gamma(w - k) = (w - 1) ... (w - k); a plain log-gamma
        # difference is off by 2.1e-3 at w = 1e12 and 331% at w = 1e15
        assert math.isclose(hyper_a(1.0, w, 1.0), w - 1.0, rel_tol=1e-12)
        product = math.prod(w - k for k in range(1, 11))
        assert math.isclose(hyper_a(1.0, w, 0.1), product, rel_tol=1e-12)

    @pytest.mark.parametrize("w", [1e103, 1e300])
    def test_weight_whose_cube_overflows(self, w):
        # Gamma(w) / Gamma(w - 1) = w - 1, which is w at these sizes
        assert math.isclose(hyper_a(1.5, w, 1.0), 1.5 * w, rel_tol=1e-12)

    def test_ratio_beyond_the_double_range_with_a_small_anticipated_life(self):
        # Gamma(w) / Gamma(w - 10) ~ w**10 ~ e**715 overflows on its own, but a
        # does not; w - 10 rounds to w, so the plain difference gives ratio 1
        w = math.exp(71.5)
        expected = math.exp(math.log(1e-10) + 10.0 * math.log(w))
        assert math.isclose(hyper_a(1e-10, w, 0.1), expected, rel_tol=1e-12)

    def test_log_gamma_ratio_keeps_the_plain_difference_below_the_cutoff(self):
        rng = np.random.default_rng(3)
        d = 1.0 / rng.uniform(0.05, 5.0, 2000)
        w = d + rng.uniform(1e-9, prior_module._STIRLING_FROM, 2000)
        plain = w - d < prior_module._STIRLING_FROM
        got = prior_module._log_gamma_ratio(w, d)
        assert plain.sum() > 1000
        lgamma = prior_module._lgamma
        assert np.array_equal(got[plain], (lgamma(w) - lgamma(w - d))[plain])

    def test_log_gamma_ratio_stirling_tail_does_not_overflow(self):
        # the x**-3 terms are cubes of 1/w and 1/(w - d), which underflow harmlessly
        w = np.array([1e103, 1e200, 1e300, 1.7e308])
        with np.errstate(over="raise", invalid="ignore"):
            got = prior_module._log_gamma_ratio(w, 0.5, plain=np.zeros(4))
        assert np.allclose(got, 0.5 * np.log(w), rtol=1e-15)

    def test_log_gamma_ratio_takes_a_precomputed_plain_difference(self):
        rng = np.random.default_rng(4)
        d = 1.0 / rng.uniform(0.05, 5.0, 2000)
        w = d + 10.0 ** rng.uniform(-9.0, 4.0, 2000)  # both sides of the cutoff
        lg = prior_module._lgamma(np.array((w, w - d)))
        got = prior_module._log_gamma_ratio(w, d, lg[0] - lg[1])
        assert np.array_equal(got, prior_module._log_gamma_ratio(w, d))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_and_nonfinite_weight(self, bad):
        with pytest.raises(ValueError):
            hyper_a(1.0, bad, 1.0)

    def test_rejects_infinite_shape(self):
        # 1/beta = 0 would make the ratio 1 and a = xbar_R; igg_pdf rejects beta = inf too
        with pytest.raises(ValueError, match="^beta must be positive and finite, got inf$"):
            hyper_a(1.0, 2.0, math.inf)


@pytest.mark.parametrize(
    "build,context",
    [
        (lambda: PriorSpec(BetaInterval(0.5, 2.0), 1.0, 0.98, WRule.fixed(1.1)), " in the shape interval"),
        (lambda: hyper_a(1.0, 1.1, 0.5), ""),
        (
            lambda: posterior.log_integrand(
                0.5, 0, PriorSpec(BetaInterval(1.0, 3.0), 1.0, 0.98, WRule.fixed(1.1)),
                CensoredSample.complete([1.0, 2.0]),
            ),
            " inside the integrand",
        ),
    ],
    ids=["PriorSpec", "hyper_a", "log_integrand"],
)
def test_one_message_for_w_at_or_below_one_over_beta(build, context):
    """PriorSpec, hyper_a and log_integrand share one check of w > 1/beta, told
    apart only by the context after the shape value."""
    with pytest.raises(ElicitationConstraintError) as info:
        build()
    assert str(info.value) == (
        f"weight rule violates w > 1/beta at beta = 0.5{context} (w = 1.1, 1/beta = 2); "
        "deriving the scale hyperparameter from an anticipated reliable life requires w > 1/beta"
    )


class TestLogGamma:
    """The package's one log-gamma, against mpmath."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.floats(min_value=1e-300, max_value=1e300))
    @example(1.0)
    @example(2.0)
    @example(12.0)
    @example(float(np.nextafter(12.0, 0.0)))
    @example(1e-300)
    def test_lgamma_matches_mpmath(self, x):
        exact = mp.loggamma(x)
        got = prior_module._lgamma(x)
        # absolute where |ln Gamma| <= 1 (it vanishes at 1 and 2), relative elsewhere
        assert abs(got - exact) <= 2e-14 * max(1.0, abs(exact))

    def test_lgamma_is_elementwise(self):
        x = np.array([[1e-300, 0.5, 1.0], [11.999, 12.0, 1e300]])
        got = prior_module._lgamma(x)
        assert got.shape == x.shape
        for v, g in zip(x.flat, got.flat):
            exact = mp.loggamma(v)
            assert abs(g - exact) <= 2e-14 * max(1.0, abs(exact))


class TestIggPdf:
    def test_hand_value(self):
        # a = w = beta = 1: pdf(x) = x**-2 * exp(-1/x)
        assert math.isclose(igg_pdf(1.0, 1.0, 1.0, 1.0), math.exp(-1.0), rel_tol=1e-14)
        assert math.isclose(igg_pdf(2.0, 1.0, 1.0, 1.0), 0.25 * math.exp(-0.5), rel_tol=1e-14)

    @pytest.mark.parametrize("w", [1.1, 1.4, 1.7, 2.0, 2.3, 2.6, 2.9, 3.1])
    def test_normalizes_on_reference_grid(self, w):
        total = igg_moment_quad(1.0, w, 1.0, k=0)
        assert abs(total - 1.0) < 1e-8

    @pytest.mark.parametrize("a,w,beta", [(1.0, 1.1, 1.0), (0.4, 2.0, 2.5), (7.0, 3.4333, 0.6)])
    def test_mean_matches_gamma_ratio_by_quadrature(self, a, w, beta):
        mean = igg_moment_quad(a, w, beta, k=1)
        expected = a * math.exp(math.lgamma(w - 1.0 / beta) - math.lgamma(w))
        assert math.isclose(mean, expected, rel_tol=1e-8)

    def test_tail_order(self):
        # x**(w*beta+1) * pdf approaches a positive constant
        for a, w, beta in [(1.0, 1.4, 1.0), (2.0, 2.0, 0.6), (0.5, 1.1, 2.0)]:
            near = igg_pdf(1e3 * a, a, w, beta) * (1e3 * a) ** (w * beta + 1.0)
            far = igg_pdf(1e4 * a, a, w, beta) * (1e4 * a) ** (w * beta + 1.0)
            assert far > 0.0
            assert abs(near / far - 1.0) < 0.05

    def test_variance_decreases_with_weight(self):
        a, beta = 1.0, 1.0
        variances = []
        for w in (2.5, 3.0, 3.5, 4.0):
            m1 = igg_moment_quad(a, w, beta, k=1)
            m2 = igg_moment_quad(a, w, beta, k=2)
            variances.append(m2 - m1 * m1)
        assert all(x > y for x, y in zip(variances, variances[1:]))

    def test_zero_where_the_tail_factor_overflows(self):
        # (x/a)**-beta = 1e360 at x = 1e-3 a, beta = 120: exp(-1e360) is 0
        assert igg_pdf(1e-3, 1.0, 1.1, 120.0) == 0.0
        assert igg_pdf(1e-3, 1.0, 1.1, 100.0) == 0.0  # factor 1e300, still finite

    def test_density_beyond_the_double_range_raises_value_error(self):
        # ln pdf = ln 50 - ln 1e-307 - ln Gamma(1.1) - 1 = 709.9, above ln(max double)
        with pytest.raises(ValueError, match="IGG density exceeds the double range"):
            igg_pdf(1e-307, 1e-307, 1.1, 50.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x_R", [0.5, 2.0])
    def test_weight_beyond_the_double_range_raises_value_error(self, x_R):
        # ln Gamma(1e308) overflows, so at and below the scale the log density is inf - inf
        with pytest.raises(ValueError, match=rf"terms that exceed the double range at x_R = {x_R:g}, "
                                             r"a = 2, w = 1e\+308, beta = 2"):
            igg_pdf(x_R, 2.0, 1e308, 2.0)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            igg_pdf(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            igg_pdf(1.0, 1.0, -1.0, 1.0)


class TestWRule:
    def test_const_over_beta(self):
        rule = WRule.const_over_beta(1.1)
        assert math.isclose(rule(2.0), 0.55, rel_tol=1e-15)

    def test_fixed_covers_reciprocal_lower_bound_setting(self):
        rule = WRule.fixed(1.0 / 1.0 + 0.1)
        for beta in (1.0, 1.15, 1.3):
            assert rule(beta) == 1.1

    def test_unit_and_piecewise(self):
        assert WRule.unit()(0.5) == 1.0
        assert WRule.piecewise96()(2.0) == 1.0
        assert math.isclose(WRule.piecewise96()(0.5), 4.0, rel_tol=1e-15)

    def test_array_evaluation(self):
        rule = WRule.piecewise96()
        np.testing.assert_allclose(rule(np.array([0.5, 1.0, 2.0])), [4.0, 1.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            WRule("other")
        with pytest.raises(ValueError):
            WRule.fixed(-1.0)
        with pytest.raises(ValueError):
            WRule(WRule.unit().kind, 3.0)

    @pytest.mark.parametrize("value", [None, "x", "2.0", [1.1], {}, True, False])
    def test_valued_rule_needs_a_real_number(self, value):
        with pytest.raises(ValueError, match=f"rule 'fixed' needs a positive value, got {re.escape(repr(value))}"):
            WRule("fixed", value)


def random_rules_and_intervals(rng, count):
    """Random (rule, interval) pairs, many with beta = 1 as an end or with a
    margin within an ulp of zero."""
    cases = []
    for _ in range(count):
        lo, hi = sorted(rng.uniform(0.1, 4.0, 2))
        edge = rng.integers(3)
        if edge == 1:
            lo, hi = 1.0, max(hi, 1.0 + rng.uniform(0.01, 2.0))
        elif edge == 2:
            lo, hi = min(lo, rng.uniform(0.1, 0.99)), 1.0
        interval = BetaInterval(float(lo), float(max(hi, lo + 0.01)))
        kind = rng.integers(4)
        if kind == 0:
            c = [rng.uniform(0.5, 2.0), 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)]
            rule = WRule.const_over_beta(float(rng.choice(c)))
        elif kind == 1:
            v = [rng.uniform(0.1, 5.0), 1.0 / lo, np.nextafter(1.0 / lo, 9.0), 1.0 / lo + 0.1]
            rule = WRule.fixed(float(rng.choice(v)))
        else:
            rule = WRule.unit() if kind == 2 else WRule.piecewise96()
        cases.append((rule, interval))
    return cases


class TestRuleClosedForms:
    """The two-point admissibility check and the w(beta1) dominance bound
    against the dense grid scans they replaced."""

    def test_construction_matches_grid_scan(self):
        rejected = 0
        for rule, interval in random_rules_and_intervals(np.random.default_rng(11), 4000):
            if grid_rule_violation(rule, interval) is None:
                PriorSpec(interval, 1.0, 0.98, rule)
            else:
                rejected += 1
                with pytest.raises(ElicitationConstraintError):
                    PriorSpec(interval, 1.0, 0.98, rule)
        assert 1000 < rejected < 3000

    def test_dominance_bound_is_grid_maximum(self):
        rng = np.random.default_rng(12)
        for rule, interval in random_rules_and_intervals(rng, 4000):
            if grid_rule_violation(rule, interval) is not None:
                continue
            spec = PriorSpec(interval, 1.0, 0.98, rule)
            w_max = grid_w_max(rule, interval)
            assert rule(interval.beta1) == w_max
            r = int(rng.integers(1, 6))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                posterior._warn_if_prior_dominant(spec, r)
            assert bool(caught) == (w_max >= r)
            assert all(w.category is PriorDominanceWarning for w in caught)


class TestConditionalPrior:
    def test_hand_composition(self):
        spec = PriorSpec(BetaInterval(1.0, 3.0), 1.0, 0.98, WRule.const_over_beta(1.1))
        w, a = conditional_prior(spec, 2.0)
        assert math.isclose(w, 0.55, rel_tol=1e-15)
        expected_a = float(mp.gamma("0.55") / mp.gamma("0.05"))
        assert math.isclose(a, expected_a, rel_tol=1e-12)
        assert math.isclose(a, 0.08300550526089917, rel_tol=1e-12)

    def test_fixed_rule_is_constant_in_beta(self):
        spec = PriorSpec(BetaInterval(1.0, 1.3), 1.0, 0.98, WRule.fixed(1.1))
        for beta in (1.0, 1.2, 1.3):
            w, _ = conditional_prior(spec, beta)
            assert w == 1.1

    def test_unit_rule_below_one_is_rejected_at_construction(self):
        with pytest.raises(ElicitationConstraintError):
            PriorSpec(BetaInterval(0.5, 2.0), 1.0, 0.98, WRule.unit())

    def test_piecewise_rule_rejected_when_interval_contains_one(self):
        with pytest.raises(ElicitationConstraintError, match="w > 1/beta"):
            PriorSpec(BetaInterval(0.7, 1.3), 1.0, 0.98, WRule.piecewise96())

    def test_piecewise_rule_fine_strictly_below_one(self):
        spec = PriorSpec(BetaInterval(0.3, 0.9), 1.0, 0.98, WRule.piecewise96())
        w, a = conditional_prior(spec, 0.5)
        assert w == 4.0 and a > 0.0

    def test_rejects_beta_outside_interval(self):
        spec = PriorSpec(BetaInterval(1.0, 3.0), 1.0, 0.98, WRule.const_over_beta(1.1))
        with pytest.raises(ValueError):
            conditional_prior(spec, 0.5)

    def test_violating_beta_is_named(self):
        with pytest.raises(ElicitationConstraintError, match="beta = 1"):
            PriorSpec(BetaInterval(0.7, 1.3), 1.0, 0.98, WRule.piecewise96())


class TestPriorMeanIdentities:
    def test_conditional_mean_equals_anticipated_value_on_grid(self):
        # every tabulated prior scenario, every standard weight rule
        for true_beta in (2.0, 1.0, 0.6):
            for label in CASE_LABELS:
                case = build_case(label, true_beta)
                for rule_label in STANDARD_W_LABELS:
                    rule = resolve_w_rule(rule_label, case.interval)
                    spec = PriorSpec(case.interval, case.xbar_R, 0.98, rule)
                    for beta in np.linspace(case.interval.beta1, case.interval.beta2, 7):
                        w, a = conditional_prior(spec, float(beta))
                        mean = igg_moment_quad(a, w, float(beta), k=1)
                        assert abs(mean / case.xbar_R - 1.0) < 1e-6, (label, rule_label, beta)

    def test_conditional_mean_on_dense_grid_single_scenario(self):
        spec = PriorSpec(BetaInterval(1.0, 3.0), 1.0, 0.98, WRule.const_over_beta(1.1))
        for beta in np.linspace(1.0, 3.0, 50):
            w, a = conditional_prior(spec, float(beta))
            assert abs(igg_moment_quad(a, w, float(beta), k=1) - 1.0) < 1e-6

    def test_joint_mean_is_anticipated_value_for_all_nine_cases(self):
        # average the conditional means against the uniform shape prior
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(24)
        for label in CASE_LABELS:
            case = build_case(label, 1.0)
            rule = resolve_w_rule("1.1/beta", case.interval)
            spec = PriorSpec(case.interval, case.xbar_R, 0.98, rule)
            center = case.interval.midpoint
            half = 0.5 * case.interval.width
            means = []
            for t in nodes:
                beta = center + half * float(t)
                w, a = conditional_prior(spec, beta)
                means.append(igg_moment_quad(a, w, beta, k=1))
            joint = float(np.dot(weights, means) * half / case.interval.width)
            assert abs(joint / case.xbar_R - 1.0) < 1e-6, label


class TestConjugateUpdate:
    def test_no_data_leaves_parameters_unchanged(self):
        empty = CensoredSample((), ())
        w_post, A = posterior_conditional_params(1.3, 2.0, empty, 1.7, 0.98)
        assert w_post == 1.3
        assert math.isclose(A, 2.0**1.7, rel_tol=1e-14)

    def test_hand_arithmetic(self):
        s = CensoredSample.complete([1.0, 2.0, 3.0])
        w_post, A = posterior_conditional_params(1.0, 1.0, s, 1.0, 0.98)
        assert w_post == 4.0
        assert math.isclose(A, 1.0 + 6.0 * K98, rel_tol=1e-13)
        assert math.isclose(A, 1.121216, abs_tol=5e-7)

    def test_posterior_density_is_renormalized_prior_times_likelihood(self):
        # the log of prior*likelihood differs from the updated density by a
        # constant in x_R; checking that constancy pointwise avoids any
        # quadrature error in the comparison
        from weibayes.censoring import log_likelihood
        from weibayes.weibull import ReliableLifeWeibull

        rng = np.random.default_rng(3)
        for _ in range(20):
            beta = float(rng.uniform(0.5, 3.0))
            w = float(rng.uniform(1.0 / beta + 0.05, 4.0))
            a = float(rng.uniform(0.2, 5.0))
            model = ReliableLifeWeibull(float(rng.uniform(0.5, 2.0)), beta, 0.98)
            from weibayes.weibull import sample as draw

            n = int(rng.integers(1, 6))
            s = type2_censor(draw(model, n, rng).tolist(), int(rng.integers(1, n + 1)))
            w_post, A = posterior_conditional_params(w, a, s, beta, 0.98)
            a_post = A ** (1.0 / beta)
            # stay clear of the double-exponential lower tail where densities
            # underflow; the upper tail is only power-law
            lo = math.log(a_post) - 6.0 / beta
            hi = math.log(a_post) + 3.0 + 2.0 / beta
            xs = np.exp(rng.uniform(lo, hi, 100))
            shifts = []
            for x in xs:
                product = math.log(igg_pdf(float(x), a, w, beta)) + log_likelihood(
                    s, ReliableLifeWeibull(float(x), beta, 0.98)
                )
                updated = math.log(igg_pdf(float(x), a_post, w_post, beta))
                shifts.append(product - updated)
            spread = max(shifts) - min(shifts)
            assert spread < 1e-10, spread


class TestVirtualSample:
    def test_single_point_hand_value(self):
        w, a = prior_from_virtual_sample(VirtualSample((1.0,)), 0.98, 1.0)
        assert w == 1.0
        assert math.isclose(a, K98, rel_tol=1e-14)

    def test_single_point_any_shape(self):
        c = 3.7
        for beta in (0.6, 1.0, 2.5):
            w, a = prior_from_virtual_sample(VirtualSample((c,)), 0.98, beta)
            assert w == 1.0
            assert math.isclose(a, c * K98 ** (1.0 / beta), rel_tol=1e-13)

    def test_matches_conjugate_update_from_flat_start(self):
        # absorbing the virtual data into a flat (w -> 0, scale -> 0) start
        # must reproduce the virtual-sample prior
        v = VirtualSample((0.8, 1.9, 4.2))
        beta = 1.4
        as_data = CensoredSample.complete(v.times)
        w_direct, a_direct = prior_from_virtual_sample(v, 0.98, beta)
        K = K98
        A_from_update = 0.0 + K * as_data.stats.pow_sum(beta)  # w=0, a=0 start
        assert math.isclose(a_direct**beta, A_from_update, rel_tol=1e-13)
        assert w_direct == as_data.r

    def test_reproduces_density_shape(self):
        v = VirtualSample((2.0, 5.0))
        beta = 2.0
        w, a = prior_from_virtual_sample(v, 0.98, beta)
        s_prime = sum(t**beta for t in v.times)
        # density written directly from the virtual-sample form
        for x in (0.5, 1.0, 3.0):
            direct = (
                beta
                * (K98 * s_prime) ** w
                / math.gamma(w)
                * x ** (-w * beta - 1.0)
                * math.exp(-(K98 * s_prime) * x**-beta)
            )
            assert math.isclose(igg_pdf(x, a, w, beta), direct, rel_tol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            prior_from_virtual_sample(VirtualSample(()), 0.98, 1.0)


class TestPriorSpecJson:
    def test_round_trip(self, tmp_path):
        payload = {
            "beta1": 1.0,
            "beta2": 3.0,
            "xbar_R": 1.0,
            "R": 0.98,
            "w_rule": {"kind": "const_over_beta", "value": 1.1},
        }
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        spec = load_prior_spec(path)
        assert spec.interval == BetaInterval(1.0, 3.0)
        assert spec.w_rule == WRule.const_over_beta(1.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputValidationError):
            prior_spec_from_dict(
                {"beta1": 1, "beta2": 3, "xbar_R": 1, "R": 0.98, "w_rule": {"kind": "zipf"}}
            )

    def test_missing_field_rejected(self):
        with pytest.raises(InputValidationError, match="missing"):
            prior_spec_from_dict({"beta1": 1, "beta2": 3, "xbar_R": 1, "R": 0.98})

    def test_constraint_violation_reported_as_such(self):
        with pytest.raises(ElicitationConstraintError):
            prior_spec_from_dict(
                {"beta1": 0.5, "beta2": 2.0, "xbar_R": 1, "R": 0.98, "w_rule": {"kind": "unit"}}
            )

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"beta1": "2"}, 'beta1 must be a number, got "2"'),
            ({"beta2": True}, "beta2 must be a number, got true"),
            ({"xbar_R": True}, "xbar_R must be a number, got true"),
            ({"R": False}, "R must be a number, got false"),
            ({"R": None}, "R must be a number, got null"),
            ({"w_rule": {"kind": "fixed", "value": True}}, "rule 'fixed' needs a positive value, got True"),
            ({"beta2": 3 * 10**400}, "beta2 is too large for a float"),
            ({"xbar_R": -(10**400)}, "xbar_R is too large for a float"),
            pytest.param({"w_rule": {"kind": "fixed", "value": 10**400}},
                         f"rule 'fixed' needs a positive value, got {10**400}", id="fixed-value-1e400"),
        ],
    )
    def test_field_that_is_not_a_json_number_is_named(self, change, message):
        d = {"beta1": 1, "beta2": 3, "xbar_R": 1, "R": 0.98, "w_rule": {"kind": "unit"}, **change}
        with pytest.raises(InputValidationError, match=f"^{re.escape(message)}$"):
            prior_spec_from_dict(d)

    def test_json_integers_become_floats(self):
        rule = {"kind": "const_over_beta", "value": 2}
        spec = prior_spec_from_dict({"beta1": 1, "beta2": 3, "xbar_R": 2, "R": 0.98, "w_rule": rule})
        assert spec.interval == BetaInterval(1.0, 3.0) and spec.xbar_R == 2.0
        assert type(spec.xbar_R) is type(spec.interval.beta1) is float

    def test_number_beyond_float_range_rejected(self):
        with pytest.raises(InputValidationError):
            prior_spec_from_dict(
                {"beta1": 1, "beta2": 10**400, "xbar_R": 1, "R": 0.98, "w_rule": {"kind": "unit"}}
            )

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "prior.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InputValidationError):
            load_prior_spec(path)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
    def test_integer_too_long_to_parse_names_the_file(self, tmp_path):
        # Python refuses to parse an integer of more than 4,300 digits by default
        path = tmp_path / "prior.json"
        path.write_text('{"beta1": 1, "beta2": 3' + "0" * 5000 + "}", encoding="utf-8")
        with pytest.raises(InputValidationError, match=f"^{re.escape(str(path))}: invalid JSON"):
            load_prior_spec(path)
