"""Subspace denoising and compressed sensing with ridge reconstruction.

Signals live on low-dimensional subspaces (columns of U_P at train time, U_Q
at test time) with unit-variance coefficients; measurements are y = Ax + noise.
The ridge reconstruction admits closed-form train/test risks, and the test
risk obeys an affine relation in the train risk whose coefficients depend on
the subspace overlap.  For denoising (A = I) the relation is exact; for
Gaussian measurement matrices it holds up to a residual that shrinks with n.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.subspace import OrthonormalBasis, _checked_array, _checked_count, _checked_real, overlap_coefficient

# overlap_coefficient of a nested pair, 1 in exact arithmetic, exceeded 1 by at most 3.1e-15 over 22,200 random
# nested pairs with d <= 800; denoise_grid accepts an overlap up to 1 plus this slack, 300 times that excess
_OVERLAP_SLACK = 1e-12


@dataclass(frozen=True)
class InverseProblem:
    """Signal subspaces, noise variances, and ridge weight."""

    u_p: OrthonormalBasis
    u_q: OrthonormalBasis
    sigma_p_sq: float
    sigma_q_sq: float
    lam: float

    def __post_init__(self):
        if not isinstance(self.u_p, OrthonormalBasis) or not isinstance(
            self.u_q, OrthonormalBasis
        ):
            raise InvalidDimensionError("u_p and u_q must be OrthonormalBasis instances")
        if self.u_p.ambient_dim != self.u_q.ambient_dim:
            raise InvalidDimensionError(
                f"subspaces live in different ambient dimensions: "
                f"{self.u_p.ambient_dim} vs {self.u_q.ambient_dim}"
            )
        for name in ("sigma_p_sq", "sigma_q_sq", "lam"):
            object.__setattr__(self, name, _checked_real(name, getattr(self, name), (">=", 0)))

    @property
    def d(self):
        return self.u_p.ambient_dim

    @property
    def d_p(self):
        return self.u_p.rank

    @property
    def d_q(self):
        return self.u_q.rank

    @cached_property
    def overlap(self):
        """Mean squared principal cosine a in [0, 1] between the subspaces."""
        return overlap_coefficient(self.u_p, self.u_q)

    @property
    def alpha(self):
        """Ridge denoiser shrinkage 1/(1 + sigma_P^2 + lam)."""
        return _shrinkage(self.sigma_p_sq, self.lam)


# The closed forms below are elementwise expressions that take floats or numpy
# arrays alike.  They use only +, -, *, / and abs, each rounded correctly in
# Python and in numpy, so an array cell equals the same point computed from
# floats bit for bit; squares are written as products because float ** 2 calls
# the C pow, which can differ from x * x in the last bit.


def _shrinkage(sigma_p_sq, lam):
    return 1.0 / (1.0 + sigma_p_sq + lam)


def _relation_gap(a, d_p, d_q, alpha, sigma_p_sq, sigma_q_sq, risk_p, risk_q):
    """|risk_Q - a risk_P - (1-a) - alpha^2((d_P/d_Q) sigma_Q^2 - a sigma_P^2)|."""
    predicted = a * risk_p + (1.0 - a) + alpha * alpha * ((d_p / d_q) * sigma_q_sq - a * sigma_p_sq)
    return abs(risk_q - predicted)


def denoise_grid(a, d_p, d_q, sigma_p_sq, sigma_q_sq, lam):
    """Closed-form (risk_P, risk_Q, alpha, residual) of the ridge denoiser x_hat = alpha Pi_P y.

    risk_P = (1-alpha)^2 + alpha^2 sigma_P^2;
    risk_Q = 1 + (alpha^2 - 2 alpha) a + alpha^2 sigma_Q^2 d_P / d_Q,
    with a the subspace overlap coefficient of a pair of ranks d_P and d_Q, and
    residual the gap of the affine train/test relation, exact up to roundoff.
    The weights are reals or nonempty arrays of any shape that broadcast against
    each other, so one call evaluates a whole (noise, lambda) grid of a subspace pair.
    """
    d_p, d_q = _checked_count("d_p", d_p, (">=", 1)), _checked_count("d_q", d_q, (">=", 1))
    a = _checked_real("a", a, (">=", 0), ("<=", 1.0 + _OVERLAP_SLACK))
    weights = [_checked_array(name, value, None, (">=", 0))
               for name, value in (("sigma_p_sq", sigma_p_sq), ("sigma_q_sq", sigma_q_sq), ("lam", lam))]
    # a 0-d weight is a float again, so a call on floats returns floats
    sigma_p_sq, sigma_q_sq, lam = (w if w.ndim else float(w) for w in weights)
    # IEEE arithmetic as with floats: a non-finite cell is refused when it is written
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = _shrinkage(sigma_p_sq, lam)
        alpha_sq = alpha * alpha
        risk_p = (1.0 - alpha) * (1.0 - alpha) + alpha_sq * sigma_p_sq
        risk_q = 1.0 + (alpha_sq - 2.0 * alpha) * a + alpha_sq * sigma_q_sq * d_p / d_q
        residual = _relation_gap(a, d_p, d_q, alpha, sigma_p_sq, sigma_q_sq, risk_p, risk_q)
    return risk_p, risk_q, alpha, residual


def gaussian_measurement(n, d, seed):
    """n x d matrix with iid N(0, 1/n) entries."""
    n, d = _checked_count("n", n, (">=", 1)), _checked_count("d", d, (">=", 1))
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) / math.sqrt(n)


def sketch_bases(a_matrix, problem):
    """B = A [U_P U_Q], the n x (d_P + d_Q) image of both bases under A.

    It is the only product with A that cs_risks and
    inner_product_preservation_stats need.
    """
    a_matrix = _checked_array("A", a_matrix, (None, problem.d))
    return a_matrix @ np.hstack([problem.u_p.columns, problem.u_q.columns])


def cs_risks(sketch, problem):
    """Exact (risk_P, risk_Q) of the ridge reconstruction x_hat = U_P S B_P^T y at finite n.

    From the sketch B = [B_P B_Q] = A [U_P U_Q] of sketch_bases, with N = B_P^T B_Q,
    G = U_P^T U_Q and the d_P x d_P Gram M = B_P^T B_P = V diag(m) V^T (m clipped at 0),
    S = eta (I + eta M)^{-1} = V diag(eta k) V^T and I - S M = V diag(k) V^T for
    eta = 1/(sigma_P^2 + lam) and k_i = 1/(1 + eta m_i):

    risk_P = sum_i (k_i^2 + sigma_P^2 t_i) / d_P with t_i = eta^2 m_i k_i^2;
    risk_Q = (||G - V diag(eta k) V^T N||_F^2 - ||G||_F^2 + d_Q + sigma_Q^2 sum_i t_i) / d_Q,
    where sum_i t_i = tr(S^T S M).  At m = 1 (A orthonormal on the subspaces)
    k = 1 - alpha and eta k = alpha: denoise_grid's closed forms.
    """
    b = _checked_array("the sketch A [U_P U_Q]", sketch, (None, problem.d_p + problem.d_q))
    n = b.shape[0]
    if problem.d_p > n or problem.d_q > n:
        raise InvalidDimensionError(
            f"measurement count n={n} must be >= both subspace dimensions "
            f"({problem.d_p}, {problem.d_q})"
        )
    denom = problem.sigma_p_sq + problem.lam
    # a subnormal denom is positive but its reciprocal overflows to inf
    if not (denom > 0.0 and math.isfinite(1.0 / denom)):
        raise NumericInputError(
            f"sigma_p_sq + lam = {denom} has no positive finite reciprocal for the ridge operator"
        )
    eta = 1.0 / denom
    b_p = b[:, : problem.d_p]
    m, v = np.linalg.eigh(b_p.T @ b_p)
    eta_m = eta * np.maximum(m, 0.0)
    if not np.all(np.isfinite(eta_m)):
        raise NumericInputError("eta * M overflows: an eigenvalue of eta M is not finite")
    k = 1.0 / (1.0 + eta_m)
    s = eta * k
    # t = eta^2 m k^2 as (eta m k)(eta k): both factors are finite, eta m k < 1
    noise_core = float(np.sum(eta_m * k * s))
    risk_p = (float(np.sum(k * k)) + problem.sigma_p_sq * noise_core) / problem.d_p
    g = problem.u_p.columns.T @ problem.u_q.columns
    resid = g - (v * s) @ (v.T @ (b_p.T @ b[:, problem.d_p :]))
    # ||U_P^T U_Q||_F^2 = d_Q a
    risk_q = (
        float(np.sum(resid * resid))
        - problem.d_q * problem.overlap
        + problem.d_q
        + problem.sigma_q_sq * noise_core
    ) / problem.d_q
    return float(risk_p), float(risk_q)


def cs_relation_residual(sketch, problem):
    """Absolute residual of the affine train/test risk relation at finite n."""
    risk_p, risk_q = cs_risks(sketch, problem)
    return float(
        _relation_gap(
            problem.overlap, problem.d_p, problem.d_q, problem.alpha,
            problem.sigma_p_sq, problem.sigma_q_sq, risk_p, risk_q,
        )
    )


def inner_product_preservation_stats(sketch, problem):
    """Max |<Au, Av> - <u, v>| over all pairs of columns u, v of [U_P U_Q].

    sketch is the product A [U_P U_Q], the output of sketch_bases.
    """
    u = np.hstack([problem.u_p.columns, problem.u_q.columns])
    au = _checked_array("the sketch A [U_P U_Q]", sketch, (None, u.shape[1]))
    gram_before = u.T @ u
    gram_after = au.T @ au
    return float(np.max(np.abs(gram_after - gram_before)))
