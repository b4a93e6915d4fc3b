"""Exception and warning types shared across the package."""


class WeibayesError(Exception):
    """Base class for all errors raised by this package."""


class InputValidationError(WeibayesError):
    """A user-supplied file, record or option failed validation."""


class ElicitationConstraintError(WeibayesError):
    """The weight rule violates w > 1/beta somewhere on the shape interval.

    Deriving the scale hyperparameter from an anticipated reliable life is
    only well defined under that constraint, so the combination is rejected
    instead of silently producing an improper prior.
    """


class NoFiniteMleError(WeibayesError):
    """The profile likelihood has no finite maximizer for this sample.

    Happens for fewer than two distinct failure times, a profile score with
    no sign change on [1e-6, 1e6], or a scale beyond the double range.
    """


class PriorDominanceWarning(UserWarning):
    """The weight w reaches or exceeds the number of failures r.

    Large w makes the prior dominate the sample; this is a guideline, not a
    hard constraint, so it is reported as a warning only.
    """


class QuadratureConvergenceWarning(UserWarning):
    """Adaptive quadrature reached its panel cap before the requested tolerance."""
