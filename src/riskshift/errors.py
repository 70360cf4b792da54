"""Exception taxonomy shared across the package.

Every error raised by riskshift derives from RiskshiftError so callers can
catch the whole family.  There are three kinds: a malformed configuration
(ConfigError), a wrong shape (InvalidDimensionError) and an unusable value
(NumericInputError), which includes every input outside the domain on which
the paper's relations hold.  The CLI maps them onto exit codes (config = 2,
dimension and numeric = 3; IO errors are OSError, exit 4).
"""


class RiskshiftError(Exception):
    """Base class for all riskshift errors."""


class InvalidDimensionError(RiskshiftError, ValueError):
    """Shape or dimension constraints violated (rank > ambient dim, mismatched lengths, a non-integer count, ...)."""


class NumericInputError(RiskshiftError, ValueError):
    """Inputs are numerically unusable.

    Besides non-finite entries and out-of-range parameters, this covers every input
    outside a relation's domain: a decision covariance factor with a negative diagonal
    entry or l21 != 0 where l11 = 0, a zero-variance decision score, a ground truth
    with no energy on the train support or none under Sigma_Q there, a gamma that
    underflows to 0, an energy or mean square past the float range, a kappa/gamma
    outside the reachable band of the task-dependent rebuild, that band leaving the
    float range at beta*'s scale or its bisection missing its 1e-10 rule, the affine
    squared-risk map at gamma != kappa, and a risk outside the relation's domain.  The
    message names the condition.
    """


class ConfigError(RiskshiftError, ValueError):
    """Experiment configuration is malformed: unknown keys, bad values, missing requirements."""
