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
method on the Legendre recurrence; the normal CDF and erf are the standard
library's math.erfc and math.erf.  Chunked Monte Carlo with a deterministic
per-chunk seeding scheme covers every metric as an independent cross-check.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package, not inside a run

from riskshift import _gauss_legendre
from riskshift.errors import NumericInputError
from riskshift.subspace import _checked_array, _checked_count, _checked_real

# order k of the surrogate quadrature; the value uses the rule of order 2k
_QUAD_ORDER = 150
# |g1| > 9 has probability 2.3e-19, so the half-normal integral stops there
_HALF_NORMAL_CUT = 9.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
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
        object.__setattr__(self, "l11", _checked_real("l11", self.l11, (">=", 0)))
        object.__setattr__(self, "l21", _checked_real("l21", self.l21))
        object.__setattr__(self, "l22", _checked_real("l22", self.l22, (">=", 0)))
        if self.l11 == 0 and self.l21 != 0:
            raise NumericInputError("l21 must be 0 where l11 = 0")


def decision_cov(beta_star, beta_hat, pair):
    """(cov_p, cov_q): DecisionCovs of (x^T beta*, x^T beta_hat) under the two laws.

    cov_p is taken under x ~ N(0, Sigma_P / d) and cov_q under x ~ N(0, Sigma_Q / d).
    With e the law's eigenvalues and b*, b the rotated vectors, l11^2 = sum e b*^2 / d
    and l21 = chi / l11 for chi = sum e b* b / d; l22^2 = sum e r^2 / d is taken from the
    residual r = b - (chi / l11^2) b*, so it does not cancel as v - l21^2 would.
    """
    # each vector is scaled by a power of two before it is rotated, so neither
    # the rotation nor a square under- or overflows; the factor is scaled back
    (bs, ps), (bh, ph) = (_basis_coordinates(pair, v, "decision vectors") for v in (beta_star, beta_hat))
    d = pair.d
    covs = []
    for e in (pair.eigvals_p, pair.eigvals_q):
        omega_star = float(np.sum(e * bs * bs)) / d
        chi = float(np.sum(e * bs * bh)) / d
        l11 = math.sqrt(omega_star)
        # with no energy in b* the factor is (0, 0, |b|)
        r = _residual(bh, chi / omega_star, bs) if l11 > 0 else bh
        l21 = chi / l11 if l11 > 0 else 0.0
        l22 = math.sqrt(float(np.sum(e * r * r)) / d)
        # a factor past the float range is inf here, which DecisionCov refuses
        with np.errstate(over="ignore"):
            factor = np.ldexp([l11, l21, l22], [ps, ph, ph])
        covs.append(DecisionCov(*factor.tolist()))
    return tuple(covs)


# Dekker's splitter 2^27 + 1, and the largest factor it splits without overflow
_SPLITTER = 134217729.0
_SPLIT_MAX = 2.0**996


def _split(a):
    """(hi, lo) with a = hi + lo exactly, each with at most 26 significant bits."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _residual(b, c, b_star):
    """b - c b_star with each product c b*_j exact (Dekker's TwoProduct), not rounded.

    At a small angle b is close to c b*, so the difference of b and the rounded
    product is exact and the product's own rounding error would dominate l22.
    Where c is too large to split, the products are rounded as they are.
    """
    product = c * b_star
    r = b - product
    if abs(c) >= _SPLIT_MAX:
        return r
    (c_hi, c_lo), (b_hi, b_lo) = _split(c), _split(b_star)
    error = c_lo * b_lo - (((product - c_hi * b_hi) - c_lo * b_hi) - c_hi * b_lo)
    return r - error


def _basis_coordinates(pair, vec, name):
    """(b, p): coordinates b in pair's shared eigenbasis of vec 2^-p, whose largest |entry| is in [1/2, 1) or 0 (p = 0).

    Shape and finiteness are checked first.  The scaling is exact and a rotation rounds a vector scaled by a power
    of two as it rounds the vector (no entry subnormal), so b 2^p is the rotated vec wherever that is in range.
    """
    vec = _checked_array(name, vec, (pair.d,))
    top = float(np.max(np.abs(vec)))
    p = math.frexp(top)[1] if top > 0 else 0
    return pair.eigenbasis.columns.T @ np.ldexp(vec, -p), p


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
    return _checked_count("n_draws", n_draws, 100, NumericInputError)


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


def _std_normal_cdf(x):
    """Standard normal CDF Phi(x) = erfc(-x / sqrt(2)) / 2, elementwise in float64.

    erfc is the standard library's math.erfc, one entry at a time, which
    keeps the lower tail relative-accurate where 1 + erf would cancel and
    replaces scipy.special.ndtr so the package needs numpy alone.  Every entry
    is the value of its argument alone; +-inf saturate and nan propagates.
    """
    x = np.asarray(x, dtype=np.float64)
    z = (x.ravel() / -math.sqrt(2.0)).tolist()
    out = np.fromiter(map(math.erfc, z), dtype=np.float64, count=len(z))
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


def _unit_factor(l21, l22):
    """(a, b, s, h, p) for each row: (a, b) = (l21, l22) 2^-p, s = hypot(a, b) and h = 1 / hypot(l21, l22).

    p puts max(|a|, b) in [1/2, 1) (p = 0 and h = inf for a zero row), so a
    hypot or sum of (a, b) stays in the float range, and a result scaled back
    by 2^p has the bits of the unscaled one wherever that stays in range too.
    """
    p = np.frexp(np.maximum(np.abs(l21), l22))[1]
    a, b = np.ldexp(l21, -p), np.ldexp(l22, -p)
    s = np.hypot(a, b)
    with np.errstate(over="ignore", divide="ignore"):
        return a, b, s, np.ldexp(1.0 / s, -p), p


def _hinge_closed_form(l21, l22):
    """The hinge risk of each row less its signed Craig integral (see quad_metric_risk)."""
    # t = 0 where l21 = l22 = 0, and the risk is 1; such rows are evaluated
    # at l22 = 1 and then replaced, so that no 0 / 0 arises
    zero = (l21 == 0.0) & (l22 == 0.0)
    l22 = np.where(zero, 1.0, l22)
    # the bracket below is O(s), so it is taken in units of 2^p
    a, b, s, h, p = _unit_factor(l21, l22)
    # k past the float range, or k = 1 / 0 where l22 = 0, takes the limit
    # Phi(-inf) = 0
    with np.errstate(over="ignore", divide="ignore"):
        em1 = np.expm1(-0.5 * h * h)
        # |delta| k and k = 1 / l22 as the two normal CDF arguments of a row
        args = np.concatenate([np.abs(a) / s / l22, 1.0 / l22])
    q_dk, q_k = np.split(_std_normal_cdf(np.negative(args, out=args)), 2)
    erf = np.fromiter(map(math.erf, (h / math.sqrt(2.0)).tolist()), dtype=np.float64, count=len(h))
    # 2 phi(0) [s e^{-h^2/2} Phi(delta k) - l21 Phi(k)]; for l21 >= 0 it is
    # written so that neither s e^{-h^2/2} - l21 nor Phi(k) - Phi(delta k)
    # cancels: Phi(delta k) = 1 - Q(|delta| k) and Phi(k) = 1 - Q(k)
    pos = l21 >= 0.0
    # s e^{-h^2/2} - s = expm1(-h^2/2) / h unscaled, which is -h/2 to within
    # h^2/4 relative for h < 1e-8; it is added after the scaling back there,
    # as in units of 2^p it is about -h^2/2 and underflows once h < 1e-154
    far = h < 1e-8
    rise = b * (b / (s + np.abs(a))) + np.where(far, 0.0, s * em1)
    tilted = np.where(
        pos,
        rise * (1.0 - q_dk) - a * (q_dk - q_k),
        s * (1.0 + em1) * q_dk - a * (1.0 - q_k),
    )
    value = np.where(pos, erf, 1.0) + np.ldexp(_SQRT_2_OVER_PI * tilted, p)
    value -= np.where(far & pos, _SQRT_2_OVER_PI * (1.0 - q_dk) * 0.5 * h, 0.0)
    return np.where(zero, 1.0, value)


def _logistic_closed_form(l21, l22):
    """The logistic risk of each row less its log1p term: (s - l21) / sqrt(2 pi) (see quad_metric_risk)."""
    a, b, s, _, p = _unit_factor(l21, l22)
    # s - l21 as l22^2 / (s + l21) for l21 >= 0, where it would cancel
    gap = np.where(l21 >= 0.0, b * np.divide(b, s + np.abs(a), out=np.zeros_like(b), where=b > 0.0), s - a)
    return np.ldexp(gap / _SQRT_2PI, p)


def _log1p_term(l21, l22, order):
    # E log1p(exp(-s |g|)) for each row; s or s g past the float range takes
    # exp(-inf) = 0, and s = inf the limit 0 of the term, far below the
    # closed form's eps
    g, wg = _half_normal_rule(order)
    with np.errstate(over="ignore"):
        s = np.hypot(l21, l22)
        term = (wg * np.log1p(np.exp(-s[:, None] * g))).sum(axis=-1)
    # the term falls off in a layer of width 1 / s at g = 0, which the rule
    # on [0, 9] resolves to within 1.1e-15 relative for s <= 16 (2.3e-15 at
    # s = 30); beyond, the rule takes g = u / s for u in [0, 40], past which
    # the term is under e^-40 of its value
    layer = s > 16.0
    if layer.any():
        x, wx = _gauss_rules(order)
        u = 20.0 * (x + 1.0)
        wu = 20.0 * _SQRT_2_OVER_PI * wx * np.log1p(np.exp(-u))
        h = 1.0 / s[layer]
        v = h[:, None] * u
        term[layer] = h * (wu * np.exp(-0.5 * v * v)).sum(axis=-1)
    return term


def _signed_craig_term(l21, l22, order):
    # the hinge's Craig integral, which enters with the sign of l21 (+ for l21 = 0)
    term = _craig_integral(_unit_factor(l21, l22)[3], np.arctan2(l22, np.abs(l21)), order)
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
    sqrt(2 pi) + E log1p(exp(-s |g|)), where s - l21 is written l22^2 / (s +
    l21) for l21 >= 0 so that it does not cancel.  The last term is
    Gauss-Legendre on [0, 9] against the half-normal density, and for s > 16
    on g in [0, 40 / s], the layer where it falls off; at both orders the
    rule on [0, 9] integrates the half-normal mass, E|g| and E g^2 to within
    4.5e-16.

    Hinge: with h = 1 / s, k = 1 / l22, delta = l21 / s and theta =
    atan2(l22, |l21|), E (1 - t)^+ is erf(h / sqrt 2) + C for l21 >= 0 and
    1 - C for l21 < 0, plus 2 phi(0) [s e^{-h^2/2} Phi(delta k) - l21 Phi(k)],
    where C = (1 / pi) int_0^theta exp(-h^2 / (2 sin^2 u)) du is Craig's form
    of Owen's T term (for l21 < 0 the integral over [0, pi - theta] is
    reflected about pi / 2).  The closed-form part takes its two Phi
    arguments a row in one call and erf from math.erf, and for l21 >= 0
    writes s e^{-h^2/2} - l21 and Phi(k) - Phi(delta k) so that neither
    cancels; l22 = 0 and s = 0 take their limits.  C is Gauss-Legendre on
    [0, theta], with the layer [0, 8h] as a piece of its own where h <
    theta / 30.  Both metrics are finite for every factor DecisionCov
    accepts: a factor is scaled by a power of two before a hypot or sum of
    its entries is taken.

    The value is the closed-form part plus the integral by the rule of order
    2k, the error estimate the integral's distance to the rule of order k
    (k = 150).  The estimate measures convergence in the rule's order: it
    covers neither the error in the rule's nodes and weights nor the
    rounding of the closed-form parts; the hinge's is within a few
    eps relative for s <= 30 and grows like eps s^2 beyond (3.2e-12 at
    s = 1000 against a 30-digit reference).  Both rules are tabulated, not
    built at run time: riskshift._gauss_legendre holds them bit for bit as
    Newton's method on the Legendre recurrence from Tricomi's guess gives
    them.  The covariances are taken in consecutive row blocks, for each
    order, of at most 16384 (covariance x node) entries, and the closed
    forms in blocks of 8192 rows, so the working set stays near 1 MiB
    however long the batch is.
    """
    if metric not in (MetricKind.LOGISTIC, MetricKind.HINGE):
        raise NumericInputError(f"quadrature covers the logistic and hinge metrics, got {metric!r}")
    factors = np.array([(cov.l21, cov.l22) for cov in covs], dtype=np.float64).reshape(-1, 2)
    l21, l22 = factors.T
    hinge = metric is MetricKind.HINGE
    on_nodes, closed_form = (_signed_craig_term, _hinge_closed_form) if hinge else (_log1p_term, _logistic_closed_form)
    coarse, fine = np.empty_like(l21), np.empty_like(l21)
    # the hinge's Craig integral takes a row in at most two pieces
    pieces = 2 if hinge else 1
    # entry i of on_nodes is computed elementwise and reduced by np.sum along
    # its own row, so it does not depend on the other rows; a BLAS
    # matrix-vector product would not do: OpenBLAS's dgemv rounds a row
    # differently with the row count
    for order, out in ((_QUAD_ORDER, coarse), (2 * _QUAD_ORDER, fine)):
        rows = _QUAD_BLOCK // (pieces * order)
        for start in range(0, len(out), rows):
            block = slice(start, start + rows)
            out[block] = on_nodes(l21[block], l22[block], order)
    errs = np.abs(fine - coarse)
    # the hinge's closed form has two normal CDF arguments a row
    rows = _QUAD_BLOCK // 2
    for start in range(0, len(fine), rows):
        block = slice(start, start + rows)
        fine[block] += closed_form(l21[block], l22[block])
    return fine, errs
