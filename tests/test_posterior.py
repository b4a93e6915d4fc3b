"""Posterior engine: integrand identities, quadrature against brute force,
estimator reductions and invariances."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

import weibayes.posterior as posterior_module
from oracles import joint_posterior_means_2d, trapezoid_log_integrals
from weibayes.censoring import CensoredSample, type2_censor
from weibayes.errors import PriorDominanceWarning, QuadratureConvergenceWarning
from weibayes.posterior import (
    PosteriorEstimate,
    QuadratureSettings,
    estimate,
    estimate_many,
    integrate_Ih,
    joint_posterior_pdf,
    log_integrand,
)
from weibayes.prior import BetaInterval, PriorSpec, WRule, beta_prior_pdf, conditional_prior, igg_pdf
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

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            log_integrand(2.0, 3, case_i_spec(), EMPTY)


class TestIntegrateIh:
    def test_no_data_h0_gives_log_interval_width(self):
        spec = case_i_spec()
        assert abs(integrate_Ih(0, spec, EMPTY) - math.log(2.0)) < 1e-10

    def test_panel_doubling_stable_once_converged(self):
        spec = case_i_spec()
        s = golden_sample()
        base = QuadratureSettings()
        doubled = QuadratureSettings(panels=2 * base.panels)
        for h in (0, 1, 2):
            a = integrate_Ih(h, spec, s, base)
            b = integrate_Ih(h, spec, s, doubled)
            assert abs(a - b) < base.rel_tol

    def test_matches_brute_force_trapezoid_on_random_scenarios(self):
        for spec, s in random_scenarios(10):
            oracle = trapezoid_log_integrals(spec, s, points=200_001)
            for h in (0, 1, 2):
                assert abs(integrate_Ih(h, spec, s) - oracle[h]) < 1e-6

    def test_nonconvergence_is_flagged_not_silent(self):
        spec = case_i_spec()
        s = golden_sample()
        strangled = QuadratureSettings(panels=1, nodes_per_panel=1, rel_tol=1e-14, max_refinements=1)
        with pytest.warns(QuadratureConvergenceWarning):
            integrate_Ih(0, spec, s, strangled)
        est = estimate(spec, s, strangled)
        assert not est.converged


class TestEstimate:
    def test_no_data_reduces_to_prior_mean_and_midpoint(self):
        for xbar in (0.1, 1.0, 10.0):
            for iv in (BetaInterval(1.0, 3.0), BetaInterval(0.3, 0.9)):
                spec = PriorSpec(iv, xbar, 0.98, WRule.const_over_beta(1.1))
                stacked = estimate_many(spec, np.empty((2, 0)), np.zeros(2), 0)
                for est in [estimate(spec, EMPTY)] + stacked:
                    assert abs(est.x_R_tilde / xbar - 1.0) < 1e-6
                    assert abs(est.beta_tilde / iv.midpoint - 1.0) < 1e-6

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
        assert est.converged
        assert est.node_count == 480  # 160 + 320: converged at the first doubling
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


def censored_stack(count, seed=11, n=5, r=3, beta=2.0):
    model = ReliableLifeWeibull(1.0, beta, 0.98)
    rng = np.random.default_rng(seed)
    return [type2_censor(sample(model, n, rng).tolist(), r) for _ in range(count)]


def stack_rows(samples):
    log_times = np.vstack([s.stats.log_times for s in samples])
    return log_times, np.array([s.stats.log_P for s in samples]), samples[0].r


class TestEstimateMany:
    # few coarse panels and a loose tolerance: rows converge after one, two or
    # three doublings, or not at all
    MIXED = QuadratureSettings(panels=1, nodes_per_panel=3, max_refinements=3, rel_tol=1e-4)

    def assert_rows_match_single_estimates(self, spec, samples, settings):
        stacked = estimate_many(spec, *stack_rows(samples), settings)
        for s, row in zip(samples, stacked):
            single = estimate(spec, s, settings)
            assert (row.node_count, row.converged) == (single.node_count, single.converged)
            assert math.isclose(row.x_R_tilde, single.x_R_tilde, rel_tol=1e-12)
            assert math.isclose(row.beta_tilde, single.beta_tilde, rel_tol=1e-12)
        return stacked

    def test_rows_stop_at_their_own_level(self):
        spec = case_i_spec()
        samples = censored_stack(40, seed=7, n=3, r=3)
        stacked = self.assert_rows_match_single_estimates(spec, samples, self.MIXED)
        outcomes = {(e.node_count, e.converged) for e in stacked}
        assert {(21, True), (45, True), (45, False)} <= outcomes

    def test_default_settings_on_censored_stack(self):
        spec = PriorSpec(BetaInterval(0.7, 1.3), 10.0, 0.98, WRule.const_over_beta(1.4))
        self.assert_rows_match_single_estimates(spec, censored_stack(30, beta=1.0), None)

    def test_row_blocks_do_not_change_results(self, monkeypatch):
        spec = case_i_spec()
        rows = stack_rows(censored_stack(25))
        whole = estimate_many(spec, *rows, self.MIXED)
        monkeypatch.setattr(posterior_module, "_KERNEL_BLOCK", 1)  # one row per kernel call
        assert estimate_many(spec, *rows, self.MIXED) == whole

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

    def test_rejects_nonpositive_life(self):
        with pytest.raises(ValueError):
            joint_posterior_pdf(0.0, 2.0, case_i_spec(), EMPTY)


class TestQuadratureSettings:
    def test_defaults(self):
        q = QuadratureSettings()
        assert (q.panels, q.nodes_per_panel, q.rel_tol, q.max_refinements) == (16, 10, 1e-8, 8)

    @pytest.mark.parametrize(
        "kwargs", [dict(panels=0), dict(nodes_per_panel=0), dict(rel_tol=0.0), dict(max_refinements=-1)]
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
