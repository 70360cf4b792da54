"""Sampling of ground-truth vectors, Gaussian covariates, and labels.

Covariates are drawn from the train law, x ~ N(0, Sigma_P/d): a standard normal
vector is rotated into the shared eigenbasis, scaled by sqrt(eigvals_p),
rotated back, and divided by sqrt(d).  Labels support two generators: linear
with additive Gaussian noise (sigma = 0 gives the noiseless linear scores) and
noisy signs (the sign of the clean score kept with probability p).  sign(0) is
+1 throughout.
"""

import math
from dataclasses import dataclass

import numpy as np

from riskshift.errors import NumericInputError
from riskshift.subspace import _checked_array, _checked_count, _checked_real, _frozen_array


@dataclass(frozen=True)
class LinearGaussian:
    """Labels y = x^T beta* + sigma * g with g standard normal."""

    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", _checked_real("sigma", self.sigma, (">=", 0)))


@dataclass(frozen=True)
class NoisySign:
    """Labels are sign(x^T beta*), flipped independently with probability 1 - p."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _checked_real("p", self.p, (">", 0.5), ("<=", 1)))


def sample_beta(d, sigma_beta_sq, seed):
    """Read-only ground truth beta* with iid N(0, sigma_beta_sq) coordinates."""
    d = _checked_count("d", d, 1)
    sigma_beta_sq = _checked_real("sigma_beta_sq", sigma_beta_sq, (">", 0))
    rng = np.random.default_rng(seed)
    return _frozen_array(math.sqrt(sigma_beta_sq) * rng.standard_normal(d))


def sample_covariates(pair, n, seed):
    """n iid rows from N(0, Sigma_P / d)."""
    n = _checked_count("n", n, 1)
    v = pair.eigenbasis.columns
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, pair.d))
    return ((g @ v) * np.sqrt(pair.eigvals_p)) @ v.T / math.sqrt(pair.d)


def label(x, beta_star, kind, seed):
    """Labels for the rows of x under the requested generator, with ground truth beta_star."""
    beta_star = _checked_array("beta_star", beta_star, (None,))
    x = _checked_array("x", x, (None, beta_star.size))
    z = x @ beta_star
    rng = np.random.default_rng(seed)
    if isinstance(kind, LinearGaussian):
        return z + kind.sigma * rng.standard_normal(x.shape[0])
    if isinstance(kind, NoisySign):
        signs = np.where(z >= 0.0, 1.0, -1.0)
        keep = np.where(rng.random(x.shape[0]) < kind.p, 1.0, -1.0)
        return signs * keep
    raise NumericInputError(f"unknown label kind: {kind!r}")
