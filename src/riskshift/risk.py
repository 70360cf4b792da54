"""Risks of linear decision rules via the joint law of (x^T beta*, x^T beta_hat).

Under Gaussian covariates the pair of decision scores is bivariate normal, so
every metric here depends only on the lower Cholesky factor (l11, l21, l22)
of its 2x2 covariance: z* = l11 g1 and z = l21 g1 + l22 g2 for independent
standard normals.  The factor is PSD by construction and is built without the
cancellation of v - chi^2 / omega*.  Squared error is (l11 - l21)^2 + l22^2,
misclassification is the angle atan2(l22, l21) between the scores over pi, and
the surrogate metrics (logistic, hinge) of a batch of factors are evaluated in
row blocks that bound every temporary whatever the batch size, each with an
error estimate.  The logistic risk is a 1-D integral over a half-normal
variable; the hinge risk is closed form in Phi and phi plus Owen's T function,
taken as Craig's finite-range integral over an angle.  Both integrals use
Gauss-Legendre rules (orders 150 and 300) read from the table in
riskshift._gauss_legendre, which holds bit for bit the rules of Newton's
method on the Legendre recurrence, and the normal CDF evaluates Cody's
rational approximations of erfc over an array at once.  Chunked Monte Carlo
with a deterministic per-chunk seeding scheme covers every metric as an
independent cross-check.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package, not inside a run

from riskshift import _gauss_legendre
from riskshift.errors import NumericInputError

# order k of the surrogate quadrature; the value uses the rule of order 2k
_QUAD_ORDER = 150
# |g1| > 9 has probability 2.3e-19, so the half-normal integral stops there
_HALF_NORMAL_CUT = 9.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
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
# quad_metric_risk takes its covariances in row blocks of at most this many
# (covariance x node) entries, which bounds every quadrature temporary
_QUAD_BLOCK = 16384
# chunk i of a Monte Carlo estimate draws from child seed i, so the chunk
# size fixes the draws
_MC_CHUNK = 2**18


class MetricKind(Enum):
    """Risk metrics; each value is the metric's name in CSV output."""

    SQUARED_ERROR = "squared_error"
    MISCLASSIFICATION = "misclassification"
    LOGISTIC = "logistic"
    HINGE = "hinge"


@dataclass(frozen=True)
class DecisionCov:
    """Lower Cholesky factor of the decision pair's covariance.

    z* = l11 g1 and z = l21 g1 + l22 g2 for independent standard normals, so
    Var z* = l11^2, Cov(z*, z) = l11 l21 and Var z = l21^2 + l22^2.
    """

    l11: float
    l21: float
    l22: float

    def __post_init__(self):
        if not all(math.isfinite(t) for t in (self.l11, self.l21, self.l22)):
            raise NumericInputError("decision covariance entries must be finite")
        if self.l11 < 0 or self.l22 < 0:
            raise NumericInputError("factor diagonal l11, l22 must be nonnegative")
        if self.l11 == 0 and self.l21 != 0:
            raise NumericInputError("l21 must be 0 where l11 = 0")


def decision_cov(beta_star, beta_hat, pair):
    """(cov_p, cov_q): DecisionCovs of (x^T beta*, x^T beta_hat) under the two laws.

    cov_p is taken under x ~ N(0, Sigma_P / d) and cov_q under x ~ N(0, Sigma_Q / d).
    With e the law's eigenvalues and b*, b the rotated vectors, l11^2 = sum e b*^2 / d
    and l21 = chi / l11 for chi = sum e b* b / d; l22^2 = sum e r^2 / d is taken from the
    residual r = b - (chi / l11^2) b*, so it does not cancel as v - l21^2 would.
    """
    bs = pair.rotate(np.asarray(beta_star, dtype=np.float64))
    bh = pair.rotate(np.asarray(beta_hat, dtype=np.float64))
    if not (np.all(np.isfinite(bs)) and np.all(np.isfinite(bh))):
        raise NumericInputError("decision vectors must be finite")
    # each vector is scaled by a power of two to a largest entry in [1/2, 1),
    # exactly, so that no square under- or overflows; the factor is scaled back
    (bs, ps), (bh, ph) = _unit_scaled(bs), _unit_scaled(bh)
    d = pair.d
    covs = []
    for e in (pair.eigvals_p, pair.eigvals_q):
        omega_star = float(np.sum(e * bs * bs)) / d
        chi = float(np.sum(e * bs * bh)) / d
        l11 = math.sqrt(omega_star)
        # with no energy in b* the factor is (0, 0, |b|)
        r = bh - chi / omega_star * bs if l11 > 0 else bh
        l21 = chi / l11 if l11 > 0 else 0.0
        l22 = math.sqrt(float(np.sum(e * r * r)) / d)
        # a factor past the float range is inf here, which DecisionCov refuses
        with np.errstate(over="ignore"):
            factor = np.ldexp([l11, l21, l22], [ps, ph, ph])
        covs.append(DecisionCov(*factor.tolist()))
    return tuple(covs)


def _unit_scaled(b):
    """(b 2^-p, p) with the largest |entry| of b 2^-p in [1/2, 1); p = 0 for b = 0."""
    top = float(np.max(np.abs(b)))
    p = math.frexp(top)[1] if top > 0 else 0
    return np.ldexp(b, -p), p


def squared_risk(cov):
    """E (z* - z)^2 = (l11 - l21)^2 + l22^2."""
    gap = cov.l11 - cov.l21
    return gap * gap + cov.l22 * cov.l22


def misclassification_risk(cov):
    """Pr(z* z < 0) = theta / pi for a centered Gaussian pair, theta = atan2(l22, l21)."""
    if cov.l11 == 0 or (cov.l21 == 0 and cov.l22 == 0):
        raise NumericInputError(
            "misclassification risk needs both decision scores nondegenerate"
        )
    return math.atan2(cov.l22, cov.l21) / math.pi


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
    standard normal pair mapped through the Cholesky factor cov.  The
    estimate is a function of (cov, metric, n_draws, seed) alone.
    """
    n_draws = _validate_mc_args(metric, n_draws)

    def draw(rng, m):
        g = rng.standard_normal((m, 2))
        return metric_values(cov.l11 * g[:, 0], cov.l21 * g[:, 0] + cov.l22 * g[:, 1], metric)

    return chunked_mc(draw, n_draws, seed, _MC_CHUNK)


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


def _erf_near(z):
    """erf of an array with |z| <= 0.46875 by Cody's near rational, z R(z^2)."""
    return z * _cody_rational(z * z, *_ERF_NEAR)


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
    out[near] = 1.0 - _erf_near(z[near])
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
    an ulp, it can step down by up to 4 ulp.  Every entry is bit for bit the
    value of the same argument alone (a nan result may differ in its sign
    bit); the temporaries are as large as x, so callers bound x.
    """
    x = np.asarray(x, dtype=np.float64)
    out = _erfc(x.ravel() / -math.sqrt(2.0))
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


def _half_normal_rule(order):
    """Nodes and weights for E f(|g|), g ~ N(0, 1): Gauss-Legendre on [0, 9]."""
    x, wx = _gauss_rules(order)
    h = 0.5 * _HALF_NORMAL_CUT * (x + 1.0)
    return h, wx * _HALF_NORMAL_CUT * np.exp(-0.5 * h * h) / _SQRT_2PI


def _craig_piece(h, lo, hi, x, wx):
    # Gauss-Legendre on [lo, hi] of exp(-h^2 / (2 sin^2 u)) for each row; a
    # huge h or a node at u = 0 sends h / sin u past the float range, and
    # exp(-inf) = 0 is then the right limit
    half = 0.5 * (hi - lo)
    u = (lo + half)[:, None] + half[:, None] * x
    with np.errstate(over="ignore", divide="ignore"):
        r = h[:, None] / np.sin(u)
        r *= r
    r *= -0.5
    return half * (wx * np.exp(r, out=r)).sum(axis=-1)


def _craig_integral(h, theta, order):
    """(1 / pi) int_0^theta exp(-h^2 / (2 sin^2 u)) du for each row, by Gauss-Legendre of this order.

    The integrand rises from 0 to nearly 1 in a layer of width about h at
    u = 0; where that layer is under theta / 30 wide, [0, 8h] is a piece of
    its own, so only rows with s = 1 / h above 60 / pi (theta <= pi / 2)
    take a second piece.  At theta / 100 the value was as accurate, but the
    order-150 rule, and so the error estimate, was off by up to 5e-11
    relative.
    """
    x, wx = _gauss_rules(order)
    layer = h < theta / 30.0
    edge = theta.copy()
    edge[layer] = 8.0 * h[layer]
    total = _craig_piece(h, np.zeros_like(h), edge, x, wx)
    if layer.any():
        total[layer] += _craig_piece(h[layer], edge[layer], theta[layer], x, wx)
    return total / math.pi


def _hinge_closed_form(l21, l22):
    """The hinge risk of each row less its signed Craig integral (see quad_metric_risk)."""
    # t = 0 where l21 = l22 = 0, and the risk is 1; such rows are evaluated
    # at l22 = 1 and then replaced, so that no 0 / 0 arises
    zero = (l21 == 0.0) & (l22 == 0.0)
    l22 = np.where(zero, 1.0, l22)
    s = np.hypot(l21, l22)
    # h or k past the float range, or k = 1 / 0 where l22 = 0, take the
    # limits Phi(-inf) = 0 and expm1(-inf) = -1
    with np.errstate(over="ignore", divide="ignore"):
        h = 1.0 / s
        em1 = np.expm1(-0.5 * h * h)
        # |delta| k, k = 1 / l22 and h as the three normal CDF arguments of a row
        args = np.concatenate([np.abs(l21) / s / l22, 1.0 / l22, h])
    q_dk, q_k, q_h = np.split(_std_normal_cdf(np.negative(args, out=args)), 3)
    z = h / math.sqrt(2.0)
    near = z <= _ERF_NEAR_EDGE
    erf = 1.0 - 2.0 * q_h
    erf[near] = _erf_near(z[near])
    # 2 phi(0) [s e^{-h^2/2} Phi(delta k) - l21 Phi(k)]; for l21 >= 0 it is
    # written so that neither s e^{-h^2/2} - l21 nor Phi(k) - Phi(delta k)
    # cancels: Phi(delta k) = 1 - Q(|delta| k) and Phi(k) = 1 - Q(k)
    rise = l22 * (l22 / (s + np.abs(l21))) + s * em1
    pos = l21 >= 0.0
    tilted = np.where(
        pos,
        rise * (1.0 - q_dk) - l21 * (q_dk - q_k),
        s * (1.0 + em1) * q_dk - l21 * (1.0 - q_k),
    )
    value = np.where(pos, erf, 1.0) + _SQRT_2_OVER_PI * tilted
    return np.where(zero, 1.0, value)


def _surrogate_on_nodes(l21, l22, metric, order):
    # t = sign(z*) z = l21 |g1| + l22 w with w ~ N(0, 1) independent of |g1|.
    # Entry i is the logistic risk of (l21[i], l22[i]), or the hinge's signed
    # Craig term, under the rule of this order, computed elementwise and
    # reduced by np.sum along its own row, so it does not depend on the other
    # rows; a BLAS matrix-vector product would not do: OpenBLAS's dgemv rounds
    # a row differently with the row count
    s = np.hypot(l21, l22)
    if metric is MetricKind.LOGISTIC:
        # t / s is skew-normal for s = hypot(l21, l22), so |t| has the law of
        # s |g|; with softplus(-t) = |t| / 2 - t / 2 + log1p(exp(-|t|)) and
        # E t = l21 sqrt(2 / pi), only the log1p term needs quadrature
        h, wh = _half_normal_rule(order)
        return (s - l21) / _SQRT_2PI + (wh * np.log1p(np.exp(-s[:, None] * h))).sum(axis=-1)
    # the hinge's Craig integral enters with the sign of l21 (+ for l21 = 0)
    with np.errstate(over="ignore", divide="ignore"):
        h = 1.0 / s
    term = _craig_integral(h, np.arctan2(l22, np.abs(l21)), order)
    return np.where(l21 < 0.0, -term, term)


def quad_metric_risk(covs, metric):
    """Quadrature (values, error estimates) of the logistic or hinge risk under each DecisionCov.

    covs is a sequence of DecisionCov; both returned float arrays have one
    entry per covariance, and each entry depends on its own covariance alone,
    bit for bit, whatever else is in the batch.  Both risks are E psi(t) with
    t = sign(z*) z, which has the law of l21 |g1| + l22 w for the Cholesky
    factor cov and independent standard normals g1, w, so t / s is
    skew-normal for s = hypot(l21, l22).

    Logistic: |t| has the law of s |g|, so E softplus(-t) = (s - l21) /
    sqrt(2 pi) + E log1p(exp(-s |g|)), and the last term is Gauss-Legendre on
    [0, 9] against the half-normal density.  At both orders that rule
    integrates the half-normal mass, E|g| and E g^2 to within 4.5e-16.

    Hinge: with h = 1 / s, k = 1 / l22, delta = l21 / s and theta =
    atan2(l22, |l21|), E (1 - t)^+ is erf(h / sqrt 2) + C for l21 >= 0 and
    1 - C for l21 < 0, plus 2 phi(0) [s e^{-h^2/2} Phi(delta k) - l21 Phi(k)],
    where C = (1 / pi) int_0^theta exp(-h^2 / (2 sin^2 u)) du is Craig's form
    of Owen's T term (for l21 < 0 the integral over [0, pi - theta] is
    reflected about pi / 2).  The closed-form part takes its three Phi
    arguments a row in one call, erf from Cody's near rational where h /
    sqrt 2 <= 0.46875, and for l21 >= 0 writes s e^{-h^2/2} - l21 and
    Phi(k) - Phi(delta k) so that neither cancels; l22 = 0 and s = 0 take
    their limits.  C is Gauss-Legendre on [0, theta], with the layer [0, 8h]
    as a piece of its own where h < theta / 30.

    The value is the rule of order 2k, the error estimate its distance to the
    rule of order k (k = 150).  The estimate measures convergence in the
    rule's order: it covers neither the error in the rule's nodes and weights
    nor the rounding of the hinge's closed-form terms, which is within a few
    eps relative for s <= 30 and grows like eps s^2 beyond (3.4e-12 at
    s = 316 against a 30-digit reference).  Both rules are tabulated, not
    built at run time: riskshift._gauss_legendre holds them bit for bit as
    Newton's method on the Legendre recurrence from Tricomi's guess gives
    them.  The covariances are taken in consecutive row blocks, for each
    order, of at most 16384 (covariance x node) entries, and the hinge's
    closed form in blocks of 16384 normal CDF arguments, so the working set
    stays near 1 MiB however long the batch is.
    """
    if metric not in (MetricKind.LOGISTIC, MetricKind.HINGE):
        raise NumericInputError(f"quadrature covers the logistic and hinge metrics, got {metric!r}")
    factors = np.array([(cov.l21, cov.l22) for cov in covs], dtype=np.float64).reshape(-1, 2)
    l21, l22 = factors.T
    coarse, fine = np.empty_like(l21), np.empty_like(l21)
    # the hinge's Craig integral takes a row in at most two pieces
    pieces = 2 if metric is MetricKind.HINGE else 1
    for order, out in ((_QUAD_ORDER, coarse), (2 * _QUAD_ORDER, fine)):
        rows = _QUAD_BLOCK // (pieces * order)
        for start in range(0, len(out), rows):
            block = slice(start, start + rows)
            out[block] = _surrogate_on_nodes(l21[block], l22[block], metric, order)
    errs = np.abs(fine - coarse)
    if metric is MetricKind.HINGE:
        # the closed-form part has three normal CDF arguments a row
        rows = _QUAD_BLOCK // 3
        for start in range(0, len(fine), rows):
            block = slice(start, start + rows)
            fine[block] += _hinge_closed_form(l21[block], l22[block])
    return fine, errs
