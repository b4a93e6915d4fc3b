"""Posterior engine: integrand identities, quadrature against brute force,
estimator reductions and invariances."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import mannwhitneyu

import weibayes.posterior as posterior_module
from oracles import (
    gauss_legendre_log_integrals,
    joint_posterior_means_2d,
    oracle_log_integrands,
    trapezoid_log_integrals,
)
from weibayes.censoring import CensoredSample, type2_censor
from weibayes.errors import ElicitationConstraintError, PriorDominanceWarning, QuadratureConvergenceWarning
from weibayes.posterior import (
    PosteriorEstimate,
    QuadratureSettings,
    estimate,
    estimate_many,
    integrate_Ih,
    joint_posterior_pdf,
    log_integrand,
)
from weibayes.prior import (
    BetaInterval,
    PriorSpec,
    WRule,
    beta_prior_pdf,
    conditional_prior,
    igg_pdf,
    posterior_conditional_params,
)
from weibayes.weibull import ReliableLifeWeibull, sample

EMPTY = CensoredSample((), ())


def case_i_spec(xbar=1.0):
    return PriorSpec(BetaInterval(1.0, 3.0), xbar, 0.98, WRule.const_over_beta(1.1))


def golden_sample(seed=777, n=3, r=3, beta=2.0):
    model = ReliableLifeWeibull(1.0, beta, 0.98)
    return type2_censor(sample(model, n, np.random.default_rng(seed)).tolist(), r)


def random_scenarios(count, seed=20240915):
    """Random (spec, sample) pairs across the tabulated designs."""
    rng = np.random.default_rng(seed)
    out = []
    from weibayes.simulate import CASE_LABELS, STANDARD_W_LABELS, build_case, resolve_w_rule

    for _ in range(count):
        true_beta = float(rng.choice([2.0, 1.0, 0.6]))
        label = str(rng.choice(CASE_LABELS))
        rule_label = str(rng.choice(STANDARD_W_LABELS))
        case = build_case(label, true_beta)
        spec = PriorSpec(
            case.interval, case.xbar_R, 0.98, resolve_w_rule(rule_label, case.interval)
        )
        n = int(rng.choice([3, 5]))
        r = n if n == 3 else 3
        model = ReliableLifeWeibull(1.0, true_beta, 0.98)
        s = type2_censor(sample(model, n, rng).tolist(), r)
        out.append((spec, s))
    return out


class TestLogIntegrand:
    def test_no_data_h0_vanishes_identically(self):
        # the sign-convention witness: every factor cancels when A = a**beta
        spec = case_i_spec()
        for beta in np.linspace(1.0, 3.0, 17):
            assert abs(log_integrand(float(beta), 0, spec, EMPTY)) < 1e-12

    def test_no_data_h1_equals_log_anticipated_life(self):
        for xbar in (0.1, 1.0, 10.0):
            spec = case_i_spec(xbar)
            for beta in np.linspace(1.0, 3.0, 9):
                assert abs(log_integrand(float(beta), 1, spec, EMPTY) - math.log(xbar)) < 1e-11

    def test_finite_on_grid_for_tabulated_scenario(self):
        spec = case_i_spec()
        s = golden_sample()
        for h in (0, 1, 2):
            vals = [log_integrand(float(b), h, spec, s) for b in np.linspace(1.0, 3.0, 100)]
            assert all(math.isfinite(v) for v in vals)

    @pytest.mark.parametrize("n,r", [(3, 3), (40, 40), (200, 200), (200, 150)])
    def test_matches_direct_transcription_for_any_failure_count(self, n, r):
        # ln Gamma(w + r) runs past the lifted range of the log-gamma once r >= 12
        s = golden_sample(seed=5, n=n, r=r)
        for rule in (WRule.const_over_beta(1.1), WRule.fixed(3.0)):
            spec = PriorSpec(BetaInterval(0.5, 3.0), 1.0, 0.98, rule)
            betas = np.linspace(0.5, 3.0, 41)
            got = posterior_module._log_integrands(betas, spec, *posterior_module._sample_rows(s))[:, 0]
            exact = oracle_log_integrands(betas, spec, s)
            assert np.all(np.abs(got - exact) <= 1e-13 * np.maximum(1.0, np.abs(exact)))

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            log_integrand(2.0, 3, case_i_spec(), EMPTY)
        with pytest.raises(ValueError, match="h must be 0, 1 or 2, got 3"):
            integrate_Ih(3, case_i_spec(), golden_sample())

    def test_rejects_a_node_where_the_rule_breaks_w_above_one_over_beta(self):
        # the rule is admissible on [1, 3]; at beta = 0.5 it gives w = 1.1 < 2
        spec = PriorSpec(BetaInterval(1.0, 3.0), 1.0, 0.98, WRule.fixed(1.1))
        with pytest.raises(ElicitationConstraintError, match="beta = 0.5 inside the integrand"):
            log_integrand(0.5, 0, spec, golden_sample())


class TestIntegrateIh:
    def test_no_data_h0_gives_log_interval_width(self):
        spec = case_i_spec()
        assert abs(integrate_Ih(0, spec, EMPTY) - math.log(2.0)) < 1e-10

    def test_tighter_tolerance_stable_once_converged(self):
        spec = case_i_spec()
        s = golden_sample()
        base = QuadratureSettings()
        tight = QuadratureSettings(rel_tol=1e-13)
        for h in (0, 1, 2):
            a = integrate_Ih(h, spec, s, base)
            b = integrate_Ih(h, spec, s, tight)
            assert abs(a - b) < base.rel_tol

    def test_matches_brute_force_trapezoid_on_random_scenarios(self):
        for spec, s in random_scenarios(10):
            oracle = trapezoid_log_integrals(spec, s, points=200_001)
            for h in (0, 1, 2):
                assert abs(integrate_Ih(h, spec, s) - oracle[h]) < 1e-6

    def test_nonconvergence_is_flagged_not_silent(self):
        spec = case_i_spec()
        s = golden_sample()
        strangled = QuadratureSettings(rel_tol=1e-14, max_panels=1)
        with pytest.warns(QuadratureConvergenceWarning, match=r"relative error of .* cap of 1 panels"):
            integrate_Ih(0, spec, s, strangled)
        est = estimate(spec, s, strangled)
        assert not est.converged
        assert est.node_count == 21 and est.error_estimate >= strangled.rel_tol

    def test_extreme_sample_converges_within_the_cap(self):
        # times over 400 decades on a wide interval: the posterior mass sits
        # within ~3e-4 of beta1, where a 1e6-point trapezoid is off by ~5e-4
        # in ln I, so the reference is a brute-force composite Gauss-Legendre sum
        exponents = [200.0, -57.3, 121.9, -200.0, 3.1, -148.6]
        s = CensoredSample(tuple(10.0**e for e in exponents), ("failed",) * 6)
        spec = PriorSpec(BetaInterval(0.1, 20.0), 1.0, 0.98, WRule.const_over_beta(1.4))
        settings = QuadratureSettings()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PriorDominanceWarning)
            est = estimate(spec, s, settings)
        assert est.converged and est.error_estimate < settings.rel_tol
        assert est.node_count <= 21 * (2 * settings.max_panels - 1)
        oracle = gauss_legendre_log_integrals(spec, s)
        assert np.max(np.abs(np.asarray(est.log_I) - oracle)) < 1e-9


class TestEstimate:
    def test_no_data_reduces_to_prior_mean_and_midpoint(self):
        for xbar in (0.1, 1.0, 10.0):
            for iv in (BetaInterval(1.0, 3.0), BetaInterval(0.3, 0.9)):
                spec = PriorSpec(iv, xbar, 0.98, WRule.const_over_beta(1.1))
                stacked = estimate_many(spec, np.empty((2, 0)), np.zeros(2), 0)
                for est in [estimate(spec, EMPTY)] + stacked:
                    assert abs(est.x_R_tilde / xbar - 1.0) < 1e-6
                    assert abs(est.beta_tilde / iv.midpoint - 1.0) < 1e-6

    def test_subnormal_reliability_level(self):
        # 1/R overflows at R = 5e-324; K = -ln R = 744.4 keeps the estimate finite
        spec = PriorSpec(BetaInterval(1.0, 3.0), 1.0, 5e-324, WRule.const_over_beta(1.1))
        est = estimate(spec, golden_sample())
        assert est.converged
        assert 0.0 < est.x_R_tilde < math.inf and 1.0 < est.beta_tilde < 3.0

    def test_scale_equivariance(self):
        c = 7.3
        s = golden_sample()
        scaled = CensoredSample(tuple(c * t for t in s.times), s.status)
        est = estimate(case_i_spec(1.0), s)
        est_scaled = estimate(case_i_spec(c * 1.0), scaled)
        assert abs(est_scaled.x_R_tilde / (c * est.x_R_tilde) - 1.0) < 1e-8
        assert abs(est_scaled.beta_tilde / est.beta_tilde - 1.0) < 1e-8

    def test_golden_scenario_matches_brute_force(self):
        spec = case_i_spec()
        s = golden_sample()
        est = estimate(spec, s)
        oracle = trapezoid_log_integrals(spec, s, points=10**6)
        assert abs(est.x_R_tilde / math.exp(oracle[1] - oracle[0]) - 1.0) < 1e-6
        assert abs(est.beta_tilde / math.exp(oracle[2] - oracle[0]) - 1.0) < 1e-6

    def test_golden_scenario_matches_raw_two_dimensional_integration(self):
        # no closed-form marginalization anywhere in this oracle
        spec = case_i_spec()
        s = golden_sample()
        est = estimate(spec, s)
        x_2d, beta_2d = joint_posterior_means_2d(spec, s)
        assert abs(est.x_R_tilde / x_2d - 1.0) < 2e-3
        assert abs(est.beta_tilde / beta_2d - 1.0) < 2e-3

    def test_golden_regression_values(self):
        est = estimate(case_i_spec(), golden_sample())
        settings = QuadratureSettings()
        assert est.converged
        assert est.node_count <= 21 * (2 * settings.max_panels - 1)
        assert est.error_estimate < settings.rel_tol
        assert math.isclose(est.x_R_tilde, 0.8101558227310036, rel_tol=1e-9)
        assert math.isclose(est.beta_tilde, 1.9528793609628472, rel_tol=1e-9)

    def test_shape_estimate_stays_inside_interval(self):
        for spec, s in random_scenarios(25, seed=5):
            est = estimate(spec, s)
            assert spec.interval.beta1 < est.beta_tilde < spec.interval.beta2
            assert est.x_R_tilde > 0.0

    def test_point_mass_interval_matches_conditional_mean(self):
        from weibayes.prior import posterior_conditional_params

        beta0 = 2.0
        eps = 1e-6
        spec = PriorSpec(
            BetaInterval(beta0 - eps, beta0 + eps), 1.0, 0.98, WRule.const_over_beta(1.1)
        )
        s = golden_sample()
        est = estimate(spec, s)
        w, a = conditional_prior(spec, beta0)
        w_post, A = posterior_conditional_params(w, a, s, beta0, 0.98)
        analytic = A ** (1.0 / beta0) * math.exp(
            math.lgamma(w_post - 1.0 / beta0) - math.lgamma(w_post)
        )
        assert abs(est.x_R_tilde / analytic - 1.0) < 1e-4

    def test_invariant_to_sample_representation(self):
        times = [0.7, 1.9, 3.0, 3.0, 3.0]
        status = ["failed", "failed", "failed", "censored", "censored"]
        order = [3, 0, 4, 2, 1]
        a = CensoredSample(tuple(times), tuple(status))
        b = CensoredSample(tuple(times[i] for i in order), tuple(status[i] for i in order))
        spec = case_i_spec()
        ea, eb = estimate(spec, a), estimate(spec, b)
        assert ea.x_R_tilde == eb.x_R_tilde
        assert ea.beta_tilde == eb.beta_tilde

    def test_ratio_stability_under_constant_log_shift(self, monkeypatch):
        spec = case_i_spec()
        s = golden_sample()
        baseline = estimate(spec, s)
        original = posterior_module._log_integrands

        def shifted(*args):
            return original(*args) + 137.25

        monkeypatch.setattr(posterior_module, "_log_integrands", shifted)
        bumped = estimate(spec, s)
        assert abs(bumped.x_R_tilde / baseline.x_R_tilde - 1.0) < 1e-10
        assert abs(bumped.beta_tilde / baseline.beta_tilde - 1.0) < 1e-10

    def test_warns_when_prior_weight_reaches_failure_count(self):
        spec = PriorSpec(BetaInterval(0.3, 0.9), 1.0, 0.98, WRule.fixed(1.0 / 0.3 + 0.1))
        s = golden_sample(beta=0.6)
        with pytest.warns(PriorDominanceWarning):
            estimate(spec, s)

    def test_no_dominance_warning_for_small_weights(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PriorDominanceWarning)
            estimate(case_i_spec(), golden_sample())

    def test_monotone_learning_from_more_data(self):
        # with a centered prior and honest data, the reliable-life error
        # shrinks from n = 3 to n = 30 (median comparison at the 1% level)
        spec = case_i_spec()
        model = ReliableLifeWeibull(1.0, 2.0, 0.98)
        errors = {}
        for n in (3, 30):
            errs = []
            for i in range(200):
                rng = np.random.default_rng([123, n, i])
                s = type2_censor(sample(model, n, rng).tolist(), n)
                errs.append(abs(estimate(spec, s).x_R_tilde - 1.0))
            errors[n] = errs
        result = mannwhitneyu(errors[30], errors[3], alternative="less")
        assert result.pvalue < 0.01
        assert np.median(errors[30]) < np.median(errors[3])


@st.composite
def admissible_cases(draw):
    """(spec, sample): a weight rule admissible on its interval and a censored sample."""
    kind = draw(st.sampled_from(["const_over_beta", "fixed", "unit", "piecewise96"]))
    beta1 = draw(st.floats(0.05, 5.0))
    beta2 = beta1 * draw(st.floats(1.05, 40.0))
    if kind == "unit" or (kind == "piecewise96" and beta2 >= 1.0):
        beta1, beta2 = 1.0 + beta1, 1.0 + beta2  # both give w = 1 = 1/beta at beta = 1
    if kind == "const_over_beta":
        rule = WRule.const_over_beta(draw(st.floats(1.05, 3.0)))
    elif kind == "fixed":
        rule = WRule.fixed(1.0 / beta1 + draw(st.floats(0.01, 3.0)))
    else:
        rule = WRule(kind)
    spec = PriorSpec(BetaInterval(beta1, beta2), draw(st.floats(0.1, 10.0)), 0.98, rule)
    items = draw(st.lists(st.tuples(st.floats(1e-3, 1e3), st.booleans()), max_size=8))
    status = tuple("failed" if failed else "censored" for _, failed in items)
    return spec, CensoredSample(tuple(t for t, _ in items), status)


_CASES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestQuadratureNodes:
    """The kernel does not check w > 1/beta: building the PriorSpec proved it
    on the shape interval, and every quadrature node lies in that interval."""

    @_CASES
    @given(admissible_cases())
    def test_every_node_is_inside_the_interval_where_the_rule_is_admissible(self, case):
        spec, s = case
        seen = []
        kernel = posterior_module._log_integrands

        def recording(betas, *args):
            seen.append(np.array(betas).ravel())
            return kernel(betas, *args)

        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore", PriorDominanceWarning)
            mp.setattr(posterior_module, "_log_integrands", recording)
            est = estimate(spec, s)
        nodes = np.concatenate(seen)
        assert nodes.size == est.node_count
        iv = spec.interval
        assert np.all((iv.beta1 <= nodes) & (nodes <= iv.beta2))
        assert np.all(spec.w_rule(nodes) > 1.0 / nodes)

    @_CASES
    @given(admissible_cases(), st.randoms(use_true_random=False))
    def test_shape_estimate_inside_the_interval_and_order_free(self, case, rnd):
        spec, s = case
        order = list(range(s.n))
        rnd.shuffle(order)
        shuffled = CensoredSample(tuple(s.times[i] for i in order), tuple(s.status[i] for i in order))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PriorDominanceWarning)
            est, est_shuffled = estimate(spec, s), estimate(spec, shuffled)
        assert spec.interval.beta1 <= est.beta_tilde <= spec.interval.beta2
        assert est_shuffled == est

    @pytest.mark.filterwarnings("ignore::weibayes.errors.PriorDominanceWarning")
    def test_multi_round_estimate_is_pinned_bit_for_bit(self):
        # times 1e-200 ... 1e200 put the mass at beta1: 14 panels, 567 nodes
        spec = PriorSpec(BetaInterval(0.1, 20.0), 1.0, 0.98, WRule.const_over_beta(1.1))
        est = estimate(spec, CensoredSample.complete(np.logspace(-200, 200, 9).tolist()))
        assert repr(est) == (
            "PosteriorEstimate(x_R_tilde=3.942433042023494e+171, beta_tilde=0.10020676102171215, "
            "log_I=(-831.3530025025774, -436.2391535445186, -833.6535221199185), node_count=567, "
            "error_estimate=7.650182099153388e-11, converged=True)"
        )


def censored_stack(count, seed=11, n=5, r=3, beta=2.0):
    model = ReliableLifeWeibull(1.0, beta, 0.98)
    rng = np.random.default_rng(seed)
    return [type2_censor(sample(model, n, rng).tolist(), r) for _ in range(count)]


def stack_rows(samples):
    log_times = np.vstack([s.stats.log_times for s in samples])
    return log_times, np.array([s.stats.log_P for s in samples]), samples[0].r


class TestEstimateMany:
    # a wide interval, a loose tolerance and two panels at most: rows converge
    # with one panel or two, or not at all
    WIDE = PriorSpec(BetaInterval(0.5, 6.0), 1.0, 0.98, WRule.const_over_beta(1.1))
    MIXED = QuadratureSettings(rel_tol=4.5e-4, max_panels=2)

    def assert_rows_match_single_estimates(self, spec, samples, settings):
        stacked = estimate_many(spec, *stack_rows(samples), settings)
        for s, row in zip(samples, stacked):
            # one core serves both, so a row is the single estimate exactly
            assert row == estimate(spec, s, settings)
            # built-in numbers only: a numpy scalar would print as np.float64(...)
            for value, kind in zip(
                (row.x_R_tilde, row.beta_tilde, row.node_count, row.error_estimate, row.converged),
                (float, float, int, float, bool),
            ):
                assert type(value) is kind
            assert type(row.log_I) is tuple and [type(v) for v in row.log_I] == [float] * 3
        return stacked

    def test_rows_stop_at_their_own_level(self):
        samples = censored_stack(40, seed=7, n=3, r=3)
        stacked = self.assert_rows_match_single_estimates(self.WIDE, samples, self.MIXED)
        outcomes = {(e.node_count, e.converged) for e in stacked}
        assert {(21, True), (63, True), (63, False)} <= outcomes

    def test_default_settings_on_censored_stack(self):
        spec = PriorSpec(BetaInterval(0.7, 1.3), 10.0, 0.98, WRule.const_over_beta(1.4))
        self.assert_rows_match_single_estimates(spec, censored_stack(30, beta=1.0), None)

    @staticmethod
    def record_lgamma_shapes(monkeypatch):
        shapes = []
        original = posterior_module._lgamma

        def recording(x):
            shapes.append(x.shape)
            return original(x)

        monkeypatch.setattr(posterior_module, "_lgamma", recording)
        return shapes

    def test_rows_bisecting_one_panel_share_its_nodes(self, monkeypatch):
        samples = censored_stack(40, seed=7, n=3, r=3)
        shapes = self.record_lgamma_shapes(monkeypatch)
        stacked = estimate_many(self.WIDE, *stack_rows(samples), self.MIXED)
        assert sum(e.node_count > 21 for e in stacked) >= 2
        # round 0 is the whole interval; round 1 bisects it for every row left
        assert shapes[:2] == [(4, 21), (4, 42)]

    def test_rows_on_different_panels_stay_exact(self, monkeypatch):
        # complete samples of 40 whose posteriors peak across the interval
        spec = PriorSpec(BetaInterval(0.3, 12.0), 1.0, 0.98, WRule.const_over_beta(1.1))
        samples = [s for beta in (0.5, 2.0, 5.0, 10.0) for s in censored_stack(5, n=40, r=40, beta=beta)]
        shapes = self.record_lgamma_shapes(monkeypatch)
        stacked = estimate_many(spec, *stack_rows(samples))
        # some rounds of the stack bisect a different panel per row
        assert any(len(shape) == 3 and shape[1] > 1 for shape in shapes)
        assert len({e.node_count for e in stacked}) >= 3
        self.assert_rows_match_single_estimates(spec, samples, None)

    def test_rejects_mismatched_stack_shapes(self):
        spec = case_i_spec()
        with pytest.raises(ValueError):
            estimate_many(spec, np.zeros(3), np.zeros(1), 3)
        with pytest.raises(ValueError):
            estimate_many(spec, np.zeros((2, 3)), np.zeros(3), 3)

    def test_warns_once_per_stack_when_prior_dominates(self):
        spec = PriorSpec(BetaInterval(0.3, 0.9), 1.0, 0.98, WRule.fixed(1.0 / 0.3 + 0.1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            estimate_many(spec, *stack_rows(censored_stack(5, beta=0.6)))
        assert [w.category for w in caught] == [PriorDominanceWarning]

    def test_dominance_warning_names_the_callers_file(self):
        spec = PriorSpec(BetaInterval(0.3, 0.9), 1.0, 0.98, WRule.fixed(1.0 / 0.3 + 0.1))
        samples = censored_stack(2, beta=0.6)
        for call in (lambda: estimate(spec, samples[0]), lambda: estimate_many(spec, *stack_rows(samples))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [w.category for w in caught] == [PriorDominanceWarning]
            assert caught[0].filename == __file__


class TestJointPosteriorPdf:
    def test_zero_outside_shape_interval(self):
        spec = case_i_spec()
        s = golden_sample()
        assert joint_posterior_pdf(1.0, 0.5, spec, s) == 0.0
        assert joint_posterior_pdf(1.0, 3.5, spec, s) == 0.0

    def test_normalizes_on_golden_scenario(self):
        spec = case_i_spec()
        s = golden_sample()
        betas = np.linspace(1.0, 3.0, 301)
        xs = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 2001))
        pdf = joint_posterior_pdf(xs[None, :], betas[:, None], spec, s)
        total = np.trapezoid(np.trapezoid(pdf, xs, axis=1), betas)
        assert abs(total - 1.0) < 1e-4

    def test_no_data_factorizes_into_priors(self):
        spec = case_i_spec()
        for beta in (1.2, 2.0, 2.9):
            w, a = conditional_prior(spec, beta)
            for x in (0.3, 1.0, 4.0):
                joint = joint_posterior_pdf(x, beta, spec, EMPTY)
                product = beta_prior_pdf(beta, spec.interval) * igg_pdf(x, a, w, beta)
                assert abs(joint / product - 1.0) < 1e-10

    def test_censored_sample_is_shape_marginal_times_updated_igg(self):
        spec = case_i_spec()
        s = type2_censor([0.62, 0.91, 1.24, 1.7, 2.3], 3)
        log_I0 = integrate_Ih(0, spec, s)
        for beta in (1.2, 2.0, 2.9):
            w, a = conditional_prior(spec, beta)
            w_post, A = posterior_conditional_params(w, a, s, beta, spec.R)
            marginal = math.exp(log_integrand(beta, 0, spec, s) - log_I0)
            for x in (0.3, 0.7, 1.0, 4.0):
                expected = marginal * igg_pdf(x, A ** (1.0 / beta), w_post, beta)
                assert abs(joint_posterior_pdf(x, beta, spec, s) / expected - 1.0) < 1e-12

    def test_rejects_nonpositive_life(self):
        with pytest.raises(ValueError):
            joint_posterior_pdf(0.0, 2.0, case_i_spec(), EMPTY)


class TestQuadratureSettings:
    def test_defaults(self):
        q = QuadratureSettings()
        assert (q.rel_tol, q.max_panels) == (1e-8, 100)

    @pytest.mark.parametrize(
        "kwargs", [dict(max_panels=0), dict(max_panels=-1), dict(rel_tol=0.0), dict(rel_tol=math.nan)]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSettings(**kwargs)

    def test_estimate_identities(self):
        est = estimate(case_i_spec(), golden_sample())
        assert isinstance(est, PosteriorEstimate)
        assert math.isclose(est.x_R_tilde, math.exp(est.log_I[1] - est.log_I[0]), rel_tol=1e-15)
        assert math.isclose(est.beta_tilde, math.exp(est.log_I[2] - est.log_I[0]), rel_tol=1e-15)
        assert est.node_count > 0
        assert 0.0 <= est.error_estimate < QuadratureSettings().rel_tol


# every maximum-likelihood path, an exit-2 error, then a Bayes estimate, in one interpreter
_MLE_PATHS_THEN_ESTIMATE = """
from weibayes import BetaInterval, PriorSpec, WRule, calibrate_B, cli, estimate, fit, type2_censor
from weibayes.simulate import run_mle_row
s = type2_censor([0.5, 1.1, 2.7, 4.0, 9.0], 3)
fit(s, 0.98)
calibrate_B(3, 3, 10**4, 1)
run_mle_row(2.0, 5, 3, 0.98, 20, 7)
assert cli.main(["mle", "--sample", sys.argv[1]]) == 0
assert cli.main(["calibrate-b", "3", "3", "10000", "-1"]) == 2
loaded = "scipy" in sys.modules
spec = PriorSpec(BetaInterval(1.0, 3.0), 1.0, 0.98, WRule.const_over_beta(1.1))
assert estimate(spec, s).converged
print(loaded, "scipy.special" in sys.modules)
"""

# every Bayes entry point in an interpreter where importing scipy fails
_NO_SCIPY = """
sys.modules["scipy"] = None
import numpy as np
from weibayes import BetaInterval, PriorSpec, WRule, cli, estimate, estimate_many, simulate, type2_censor
from weibayes.posterior import joint_posterior_pdf
from weibayes.prior import hyper_a, igg_pdf
s = type2_censor([0.5, 1.1, 2.7, 4.0, 9.0], 3)
spec = PriorSpec(BetaInterval(1.0, 3.0), 1.0, 0.98, WRule.const_over_beta(1.1))
assert estimate(spec, s).converged
st = s.stats
assert all(e.converged for e in estimate_many(spec, np.stack([st.log_times] * 2), [st.log_P] * 2, st.r))
assert joint_posterior_pdf(0.3, 1.5, spec, s) > 0.0
assert igg_pdf(1.0, hyper_a(2.0, 2.0, 1.0), 2.0, 1.0) > 0.0
cfg = simulate.table_config("7", 20, 42)
case = simulate.build_case("V", cfg.true_beta)
m_x, m_beta = simulate.run_cell(cfg, case, simulate.resolve_w_rule("1.4/beta", case.interval), 1)
assert m_x.count + m_x.failures == 20
assert cli.main(["prior-pdf", "--xbar-r", "2.0", "--w", "2.0", "--beta", "1.0", "--points", "4"]) == 0
print("scipy" in sys.modules and sys.modules["scipy"] is not None)
"""


class TestGaussKronrodTable:
    NODES, WEIGHTS = posterior_module._GK_NODES, posterior_module._GK_WEIGHTS

    def test_gauss_nodes_are_the_ten_point_legendre_nodes(self):
        kronrod, kronrod_minus_gauss = self.WEIGHTS
        gauss = kronrod - kronrod_minus_gauss
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert np.allclose(self.NODES[gauss != 0.0], nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(gauss[gauss != 0.0], weights, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("rule,degree", [(0, 31), (1, 19)])
    def test_exact_on_monomials_up_to_its_degree(self, rule, degree):
        kronrod, kronrod_minus_gauss = self.WEIGHTS
        weights = (kronrod, kronrod - kronrod_minus_gauss)[rule]
        for k in range(degree + 2):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            err = abs(weights @ self.NODES**k - exact)
            if k <= degree:
                assert err < 1e-15, k
            else:
                assert err > 1e-12, k  # the degree is sharp

    @pytest.mark.parametrize(
        "code,expected",
        [
            # scipy.integrate costs a quarter second or more of start-up time
            pytest.param("import weibayes; print('scipy.integrate' in sys.modules)", "False",
                         id="package"),
            # scipy.special is most of the rest; no path loads it
            pytest.param("import weibayes.cli; print('scipy' in sys.modules)", "False", id="cli"),
            pytest.param(_MLE_PATHS_THEN_ESTIMATE, "False False", id="mle-paths-then-estimate"),
            pytest.param(_NO_SCIPY, "False", id="bayes-paths-without-scipy"),
        ],
    )
    def test_import_leaves_scipy_integrate_unloaded(self, code, expected, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("time,status\n0.62,failed\n0.91,failed\n1.24,failed\n1.24,censored\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", "import sys\n" + code, str(path)],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip().splitlines()[-1] == expected
