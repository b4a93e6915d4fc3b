"""Bayes and maximum-likelihood estimation of Weibull reliable life.

The package targets the small-sample regime of reliability testing (3 to 5
items, possibly type-II censored) where classical estimates degrade badly.
It turns two pieces of knowledge a design engineer actually has -- an
interval for the Weibull shape from failure physics, and an anticipated
reliable life -- into a proper joint prior, and computes posterior-mean
estimates of the reliable life and the shape by deterministic quadrature.
A censored-data maximum-likelihood baseline and a Monte Carlo benchmarking
harness round out the toolkit; the ``weibayes`` command exposes everything
from the shell.
"""

from .censoring import CensoredSample, load_sample_csv, log_likelihood, s_of_beta, type2_censor
from .errors import (
    ElicitationConstraintError,
    InputValidationError,
    NoFiniteMleError,
    PriorDominanceWarning,
    QuadratureConvergenceWarning,
    WeibayesError,
)
from .mle import MleResult, UnbiasingEntry, calibrate_B, fit, profile_equation, unbiased_beta
from .posterior import (
    PosteriorEstimate,
    QuadratureSettings,
    estimate,
    estimate_many,
    integrate_Ih,
    joint_posterior_pdf,
    log_integrand,
)
from .prior import (
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
)
from .simulate import (
    CaseDefinition,
    ExperimentConfig,
    PerformanceMetrics,
    TableResult,
    build_case,
    metrics,
    reproduce_table,
    run_cell,
    run_mle_row,
)
from .weibull import (
    ReliableLifeWeibull,
    ShapeScaleWeibull,
    density,
    from_shape_scale,
    quantile,
    reliability,
    sample,
    to_shape_scale,
)

__version__ = "0.1.0"
