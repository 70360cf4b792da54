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
    """Shape or dimension constraints violated (rank > ambient dim, mismatched lengths, a ragged or empty array,
    a non-integer count: "<name> must have shape (...) / be a rectangular array / be an integer, got ...")."""


class NumericInputError(RiskshiftError, ValueError):
    """Inputs are numerically unusable.

    An argument that is not a real number, not finite, or past a (comparison, limit)
    bound of its domain reads "<name> must be a real number / finite / <comparison>
    <limit>, got <value>"; an array entry is judged by the same rule, and an array
    of a bool, string or object dtype reads "<name> must hold real numbers, got dtype
    <dtype>".  Beyond single arguments: l21 != 0 where l11 = 0, a
    zero-variance decision score, a ground truth with no energy on the train support
    or none under Sigma_Q there, a gamma that underflows to 0, an energy or mean
    square past the float range, a kappa/gamma outside the reachable band of the
    task-dependent rebuild, that band leaving the float range at beta*'s scale or its
    bisection missing its 1e-10 rule, and the affine squared-risk map at gamma !=
    kappa.  The message names the condition.
    """


class ConfigError(RiskshiftError, ValueError):
    """Experiment configuration is malformed: unknown keys, bad values, missing requirements.

    A number key is checked as a library argument is, with that message after "key '<name>'".
    """
