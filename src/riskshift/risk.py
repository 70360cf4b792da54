"""Risks of linear decision rules via the joint law of (x^T beta*, x^T beta_hat).

Under Gaussian covariates the pair of decision scores is bivariate normal, so
every metric here depends only on the 2x2 covariance (omega_star, chi, v):
squared error has a closed form, misclassification reduces to the arccos of
the score correlation, and surrogate metrics (logistic, hinge) reduce to 1-D
integrals over a half-normal variable, evaluated for a whole batch of
covariances in one vectorized pass by Gauss-Legendre quadrature with an error
estimate.  Both rules (orders 150 and 300) are read from the table in
riskshift._gauss_legendre, which holds bit for bit the rules of Newton's
method on the Legendre recurrence, and the hinge's normal CDF evaluates Cody's
rational approximations of erfc over the whole array.  Chunked Monte Carlo
with a deterministic per-chunk seeding scheme covers every metric as an
independent cross-check.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package, not inside a run

from riskshift import _gauss_legendre
from riskshift.errors import (
    CovarianceError,
    DegenerateDecisionError,
    NumericInputError,
)
from riskshift.shiftmodel import _select_side

_PSD_SLACK = 1e-12
_CHOL_JITTER = 1e-14
# order k of the surrogate quadrature; the value uses the rule of order 2k
_QUAD_ORDER = 150
# |g1| > 9 has probability 2.3e-19, so the half-normal integral stops there
_HALF_NORMAL_CUT = 9.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Cody 1969, "Rational Chebyshev approximations for the error function"
# (Math. Comp. 23:631-637), coefficients of SPECFUN's CALERF: erf(z) = z R(z^2)
# for |z| <= 0.46875, erfc(z) = exp(-z^2) R(|z|) up to |z| = 4 and beyond that
# exp(-z^2) (1/sqrt(pi) - s R(s)) / |z| with s = 1/z^2, where erfc underflows
# past 26.543; each pair is (numerator, monic denominator) for _cody_rational
_ERF_NEAR_EDGE = 0.46875
_ERFC_MID_EDGE = 4.0
_ERFC_ZERO_EDGE = 26.543
_ERF_NEAR = (
    (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
     3.20937758913846947e03, 1.85777706184603153e-1),
    (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03),
)
_ERFC_MID = (
    (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
     2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
     2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8),
    (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
)
_ERFC_FAR = (
    (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
     1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2),
    (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)
_RSQRT_PI = 5.6418958354775628695e-1
# flat block length of _std_normal_cdf, which bounds its temporaries
_CDF_BLOCK = 8192
# chunk i of a Monte Carlo estimate draws from child seed i, so the chunk
# sizes fix the draws; a population draw costs O(d), hence its smaller chunk
_MC_CHUNK = 2**18
_POPULATION_MC_CHUNK = 4096


class MetricKind(Enum):
    """Risk metrics; each value is the metric's name in CSV output."""

    SQUARED_ERROR = "squared_error"
    MISCLASSIFICATION = "misclassification"
    LOGISTIC = "logistic"
    HINGE = "hinge"


@dataclass(frozen=True)
class DecisionCov:
    """Covariance of the decision pair: Var z*, Cov(z*, z), Var z."""

    omega_star: float
    chi: float
    v: float

    def __post_init__(self):
        if not all(math.isfinite(t) for t in (self.omega_star, self.chi, self.v)):
            raise CovarianceError("decision covariance entries must be finite")
        if self.omega_star < 0 or self.v < 0:
            raise CovarianceError("variances must be nonnegative")
        bound = self.omega_star * self.v
        if self.chi * self.chi > bound + _PSD_SLACK * max(1.0, bound):
            raise CovarianceError(
                f"chi^2 = {self.chi**2:.6g} exceeds omega_star * v = {bound:.6g}"
            )


def decision_cov(beta_star, beta_hat, pair, which):
    """DecisionCov of (x^T beta*, x^T beta_hat) under x ~ N(0, Sigma_which / d)."""
    side = _select_side(which)
    e = pair.eigvals(side)
    bs = pair.rotate(np.asarray(beta_star, dtype=np.float64))
    bh = pair.rotate(np.asarray(beta_hat, dtype=np.float64))
    if not (np.all(np.isfinite(bs)) and np.all(np.isfinite(bh))):
        raise NumericInputError("decision vectors must be finite")
    d = pair.d
    return DecisionCov(
        omega_star=float(np.sum(e * bs * bs)) / d,
        chi=float(np.sum(e * bs * bh)) / d,
        v=float(np.sum(e * bh * bh)) / d,
    )


def squared_risk(cov):
    """E (z* - z)^2 = omega_star - 2 chi + v."""
    return cov.omega_star - 2.0 * cov.chi + cov.v


def misclassification_risk(cov):
    """Pr(z* z < 0) = arccos(corr) / pi for a centered Gaussian pair."""
    bound = cov.omega_star * cov.v
    if bound <= 0.0:
        raise DegenerateDecisionError(
            "misclassification risk needs both decision scores nondegenerate"
        )
    corr = cov.chi / math.sqrt(bound)
    return math.acos(min(1.0, max(-1.0, corr))) / math.pi


def _cholesky_2x2(cov):
    """Lower factor (l11, l21, l22) of [[omega_star, chi], [chi, v]].

    A diagonal jitter of 1e-14 is applied if the exact factorization fails;
    remaining deficits within a few ulps of v are clamped to zero.
    """
    for jitter in (0.0, _CHOL_JITTER):
        w = cov.omega_star + jitter
        vv = cov.v + jitter
        if w < 0.0:
            continue
        l11 = math.sqrt(w)
        if l11 == 0.0:
            if cov.chi != 0.0:
                continue
            l21 = 0.0
        else:
            l21 = cov.chi / l11
        rem = vv - l21 * l21
        if rem < 0.0:
            if rem >= -4.0 * np.finfo(np.float64).eps * max(vv, 1.0):
                rem = 0.0
            else:
                continue
        return l11, l21, math.sqrt(rem)
    raise CovarianceError("decision covariance is not PSD even after 1e-14 jitter")


def metric_values(z_star, z, metric):
    """Per-draw metric psi of paired decision values (z*, z)."""
    z_star = np.asarray(z_star, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if metric is MetricKind.SQUARED_ERROR:
        return (z_star - z) ** 2
    if metric is MetricKind.MISCLASSIFICATION:
        return (z_star * z < 0.0).astype(np.float64)
    # surrogate losses act on the estimator score signed by the true decision
    t = np.where(z_star >= 0.0, z, -z)
    if metric is MetricKind.LOGISTIC:
        return np.logaddexp(0.0, -t)
    if metric is MetricKind.HINGE:
        return np.maximum(0.0, 1.0 - t)
    raise NumericInputError(f"metric must be a MetricKind member, got {metric!r}")


def _validate_mc_args(metric, n_draws):
    if not isinstance(metric, MetricKind):
        raise NumericInputError(f"metric must be a MetricKind member, got {metric!r}")
    if int(n_draws) < 100:
        raise NumericInputError(f"n_draws must be >= 100, got {n_draws}")
    return int(n_draws)


def chunked_mc(draw, n_draws, seed, chunk_size):
    """Monte Carlo (mean, standard error) of per-draw values generated in seeded chunks.

    draw(rng, m) returns the m values of one chunk; chunk i draws from the
    child seed sequence that keeps the root's entropy and appends i to its
    spawn key, which is arithmetic on the key alone, so every chunk's draws
    are fixed however the chunks are scheduled.  Per-chunk (mean, M2) pairs
    are merged in ascending chunk order with the Chan-Golub-LeVeque update, so
    the variance does not cancel when the values barely vary and reruns are
    bitwise equal.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    n = 0
    mean = 0.0
    m2 = 0.0
    for index, start in enumerate(range(0, n_draws, chunk_size)):
        m = min(chunk_size, n_draws - start)
        child = np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, index))
        values = draw(np.random.default_rng(child), m)
        chunk_mean = float(np.mean(values))
        chunk_m2 = float(np.sum((values - chunk_mean) ** 2))
        delta = chunk_mean - mean
        total = n + m
        mean += delta * m / total
        m2 += chunk_m2 + delta * delta * n * m / total
        n = total
    return mean, math.sqrt(m2 / (n - 1) / n)


def mc_metric_risk(cov, metric, n_draws, seed):
    """Monte Carlo (estimate, standard error) of a metric under a DecisionCov.

    Draws are generated by chunked_mc in chunks of 2**18; each draw is one
    standard normal pair mapped through the Cholesky factor of cov.  The
    estimate is a function of (cov, metric, n_draws, seed) alone.
    """
    n_draws = _validate_mc_args(metric, n_draws)
    l11, l21, l22 = _cholesky_2x2(cov)

    def draw(rng, m):
        g = rng.standard_normal((m, 2))
        return metric_values(l11 * g[:, 0], l21 * g[:, 0] + l22 * g[:, 1], metric)

    return chunked_mc(draw, n_draws, seed, _MC_CHUNK)


def population_mc_risk(beta_star, beta_hat, pair, which, metric, n_draws, seed):
    """Monte Carlo metric estimate drawing fresh covariate vectors directly.

    Independent cross-check of mc_metric_risk: instead of sampling the 2x2
    Gaussian of decision scores it samples x ~ N(0, Sigma_which / d) and
    evaluates the scores exactly.  Chunk seeding follows the same (seed, i)
    scheme with chunks of 4096, smaller because each draw costs O(d).
    """
    n_draws = _validate_mc_args(metric, n_draws)
    side = _select_side(which)
    e = pair.eigvals(side)
    v = pair.eigenbasis
    sqrt_d = math.sqrt(pair.d)
    beta_star = np.asarray(beta_star, dtype=np.float64)
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    u_star = v @ (np.sqrt(e) * (v.T @ beta_star)) / sqrt_d
    u_hat = v @ (np.sqrt(e) * (v.T @ beta_hat)) / sqrt_d
    if not (np.all(np.isfinite(u_star)) and np.all(np.isfinite(u_hat))):
        raise NumericInputError("decision vectors must be finite")

    def draw(rng, m):
        g = rng.standard_normal((m, pair.d))
        return metric_values(g @ u_star, g @ u_hat, metric)

    return chunked_mc(draw, n_draws, seed, _POPULATION_MC_CHUNK)


def _cody_rational(t, num, den):
    """Cody's rational in t by Horner: numerator num[-1], num[0], ..., num[-2] over monic den."""
    xnum = num[-1] * t
    xden = t.copy()
    for a, b in zip(num[:-2], den[:-1]):
        xnum += a
        xnum *= t
        xden += b
        xden *= t
    xnum += num[-2]
    xden += den[-1]
    xnum /= xden
    return xnum


def _exp_minus_square(t):
    # exp(-t^2) as exp(-s^2) exp(-(t - s)(t + s)) with s = t rounded down to a
    # multiple of 1/16, so s^2 is exact and the rounding of t^2 is not
    # amplified by the exponential; in place, to keep the temporaries few
    s = np.floor(t * 16.0)
    s /= 16.0
    d = t - s
    d *= t + s
    s *= s
    s = np.exp(np.negative(s, out=s), out=s)
    s *= np.exp(np.negative(d, out=d), out=d)
    return s


def _erfc(z):
    """erfc of a 1-d float64 array by Cody's rational approximations.

    Each entry takes one of three branches by |z|, and its value depends on
    that entry alone.  Beyond |z| = 26.543 erfc underflows and is set to 0
    (or 2), which also covers +-inf, where the exponential split would give
    0 * nan; nan stays nan.
    """
    y = np.abs(z)
    out = np.zeros_like(y)
    near = y <= _ERF_NEAR_EDGE
    t = y[near]
    out[near] = 1.0 - z[near] * _cody_rational(t * t, *_ERF_NEAR)
    mid = ~near & (y <= _ERFC_MID_EDGE)
    t = y[mid]
    out[mid] = _exp_minus_square(t) * _cody_rational(t, *_ERFC_MID)
    # negated comparisons, so that nan falls in this branch and stays nan
    far = ~(y <= _ERFC_MID_EDGE) & ~(y >= _ERFC_ZERO_EDGE)
    t = y[far]
    s = 1.0 / (t * t)
    out[far] = _exp_minus_square(t) * ((_RSQRT_PI - s * _cody_rational(s, *_ERFC_FAR)) / t)
    flip = ~near & (z < 0.0)
    out[flip] = 2.0 - out[flip]
    return out


def _std_normal_cdf(x):
    """Standard normal CDF Phi(x) = erfc(-x / sqrt(2)) / 2, elementwise in float64.

    erfc is Cody's rational approximation evaluated over the whole array,
    which keeps the lower tail relative-accurate where 1 + erf would cancel
    (within 8.9e-16 of math.erfc wherever erfc > 1e-300 on [-30, 30]); it
    replaces scipy.special.ndtr so the package needs numpy alone.  It is not
    monotone in the last bits: the rationals and the exp factor round
    independently, so between ulp-adjacent arguments, where Phi moves by under
    an ulp, it can step down by up to 4 ulp.  The array is taken in flat
    blocks of 8192 so the temporaries stay small; every entry is bit for bit
    the value of the same argument alone (a nan result may differ in its sign
    bit).
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty(flat.size)
    for start in range(0, flat.size, _CDF_BLOCK):
        block = slice(start, start + _CDF_BLOCK)
        out[block] = _erfc(flat[block] / -math.sqrt(2.0))
    out *= 0.5
    # [()] turns a 0-d result into a scalar, as numpy arithmetic does
    return out.reshape(x.shape)[()]


def _mirrored_rule(nodes, weights):
    """Read-only ascending rule on [-1, 1] from float.hex strings of its ascending positive half."""
    x = np.array([float.fromhex(t) for t in nodes.split()])
    w = np.array([float.fromhex(t) for t in weights.split()])
    rule = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    for values in rule:
        values.flags.writeable = False
    return rule


# {order: rule}, each parsed from the table of riskshift._gauss_legendre on first use
_GAUSS_RULES = {}


def _gauss_rules(order):
    """Read-only ascending Gauss-Legendre rule (nodes, weights) on [-1, 1] of order 150 or 300."""
    if order not in _GAUSS_RULES:
        _GAUSS_RULES[order] = _mirrored_rule(_gauss_legendre.NODES[order], _gauss_legendre.WEIGHTS[order])
    return _GAUSS_RULES[order]


def _half_normal_rule(order, cuts):
    """Nodes and weights for E f(|g|), g ~ N(0, 1): Gauss-Legendre on each piece of cuts.

    cuts is one ascending sequence of cut points or an array with one such
    sequence per row; the nodes and weights have one row per row of cuts.
    """
    x, wx = _gauss_rules(order)
    cuts = np.asarray(cuts, dtype=np.float64)
    lo, hi = cuts[..., :-1, None], cuts[..., 1:, None]
    h = lo + 0.5 * (hi - lo) * (x + 1.0)
    w = wx * (hi - lo) * np.exp(-0.5 * h * h) / _SQRT_2PI
    shape = cuts.shape[:-1] + ((cuts.shape[-1] - 1) * order,)
    return h.reshape(shape), w.reshape(shape)


def _hinge_on_rule(l21, l22, h, wh):
    # E max(0, c - l22 w) over w = c Phi(c / l22) + l22 phi(c / l22) if l22 > 0
    c = 1.0 - l21[:, None] * h
    smooth = (l22 > 0.0)[:, None]
    scale = np.where(smooth, l22[:, None], 1.0)
    r = c / scale
    blurred = c * _std_normal_cdf(r) + scale * np.exp(-0.5 * r * r) / _SQRT_2PI
    return (wh * np.where(smooth, blurred, np.maximum(0.0, c))).sum(axis=-1)


def _surrogate_on_nodes(l21, l22, metric, order):
    # t = sign(z*) z = l21 |g1| + l22 w with w ~ N(0, 1) independent of |g1|.
    # Entry i is the risk of (l21[i], l22[i]) under the rule of this order,
    # computed elementwise and reduced by np.sum along its own row, so it does
    # not depend on the other rows; a BLAS matrix-vector product would not do:
    # OpenBLAS's dgemv rounds a row differently with the row count
    if metric is MetricKind.LOGISTIC:
        # t / s is skew-normal for s = hypot(l21, l22), so |t| has the law of
        # s |g|; with softplus(-t) = |t| / 2 - t / 2 + log1p(exp(-|t|)) and
        # E t = l21 sqrt(2 / pi), only the log1p term needs quadrature
        s = np.hypot(l21, l22)
        h, wh = _half_normal_rule(order, (0.0, _HALF_NORMAL_CUT))
        return (s - l21) / _SQRT_2PI + (wh * np.log1p(np.exp(-s[:, None] * h))).sum(axis=-1)
    # the hinge integrand in |g1| bends at l21 |g1| = 1; splitting there keeps
    # the Legendre rule exact on each side when l22 = 0 and accurate when small
    split = l21 * _HALF_NORMAL_CUT > 1.0
    k = np.count_nonzero(split)
    values = np.empty_like(l21)
    for rows, cuts in (
        (split, np.stack([np.zeros(k), 1.0 / l21[split], np.full(k, _HALF_NORMAL_CUT)], axis=1)),
        (~split, (0.0, _HALF_NORMAL_CUT)),
    ):
        values[rows] = _hinge_on_rule(l21[rows], l22[rows], *_half_normal_rule(order, cuts))
    return values


def quad_metric_risk(covs, metric):
    """Quadrature (values, error estimates) of the logistic or hinge risk under each DecisionCov.

    covs is a sequence of DecisionCov; both returned float arrays have one
    entry per covariance, and each entry depends on its own covariance alone,
    bit for bit, whatever else is in the batch.  Both risks are E psi(t) with
    t = sign(z*) z, which has the law of l21 |g1| + l22 w for the Cholesky
    factor of cov and independent standard normals g1, w.  Each remaining
    integral is over a half-normal |g| and uses Gauss-Legendre on [0, 9]
    against the half-normal density.  Logistic: |t| has the law of s |g|
    with s = hypot(l21, l22) (t / s is skew-normal), so E softplus(-t) =
    (s - l21) / sqrt(2 pi) + E log1p(exp(-s |g|)).  Hinge: the inner
    expectation over w is closed form and the rule over |g1| is split where
    the loss bends.  The value is the rule of order 2k, the error estimate
    its distance to the rule of order k (k = 150).  Both rules are tabulated,
    not built at run time: riskshift._gauss_legendre holds them bit for bit as
    Newton's method on the Legendre recurrence from Tricomi's guess gives them.
    The estimate measures convergence in the rule's order, not the error in
    its nodes and weights; at both orders, split or not, those integrate the
    half-normal mass, E|g| and E g^2 to within 4.5e-16.
    """
    if metric not in (MetricKind.LOGISTIC, MetricKind.HINGE):
        raise NumericInputError(f"quadrature covers the logistic and hinge metrics, got {metric!r}")
    factors = np.array([_cholesky_2x2(cov) for cov in covs], dtype=np.float64).reshape(-1, 3)
    _, l21, l22 = factors.T
    coarse = _surrogate_on_nodes(l21, l22, metric, _QUAD_ORDER)
    fine = _surrogate_on_nodes(l21, l22, metric, 2 * _QUAD_ORDER)
    return fine, np.abs(fine - coarse)
