"""Reference implementations that the tests compare the package against.

Each computes a quantity the package computes by another route: principal
angles by SVD where the package reads sum cos^2 off a Frobenius norm, Monte
Carlo over covariate vectors where the package reduces to a 2x2 decision
covariance, exact decision moments and angles from rational arithmetic where
the package rounds, the inverse of the classification relation for a round
trip, the hinge risk by adaptive quadrature over |g1| where the package takes
a closed form, the logistic risk by adaptive quadrature against the
skew-normal density where the package takes the law of |t|, and the dense
covariance and projector matrices the package never forms.
"""

import decimal
import math
from fractions import Fraction

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from riskshift.errors import NumericInputError
from riskshift.risk import _validate_mc_args, chunked_mc, metric_values
from riskshift.subspace import _check_same_ambient, _frozen_array
from riskshift.theory import _BELOW_HALF

# a population draw costs O(d), hence a smaller chunk than mc_metric_risk's
_POPULATION_MC_CHUNK = 4096


def _eigvals(pair, which):
    """Eigenvalues of Sigma_P (which = "P") or Sigma_Q (which = "Q") in the shared basis."""
    return {"P": pair.eigvals_p, "Q": pair.eigvals_q}[which]


def principal_angles(u_p, u_q):
    """Ascending principal angles (read-only array) via singular values of U_P^T U_Q."""
    _check_same_ambient(u_p, u_q)
    s = np.linalg.svd(u_p.columns.T @ u_q.columns, compute_uv=False)
    s = np.clip(s, 0.0, 1.0)
    # a cosine within fp noise of 1 is numerically indistinguishable from an
    # exact alignment, and arccos would amplify the ulp-level error to ~1e-8;
    # snap so construction-exact overlaps report exactly-zero angles
    s[s >= 1.0 - 1e-13] = 1.0
    return _frozen_array(np.sort(np.arccos(s)))


def population_mc_risk(beta_star, beta_hat, pair, which, metric, n_draws, seed):
    """Monte Carlo metric estimate drawing fresh covariate vectors directly.

    Independent cross-check of mc_metric_risk: instead of sampling the 2x2
    Gaussian of decision scores it samples x ~ N(0, Sigma_which / d) and
    evaluates the scores exactly.  Chunk seeding follows the same (seed, i)
    scheme with chunks of 4096, smaller because each draw costs O(d).
    """
    n_draws = _validate_mc_args(metric, n_draws)
    e = _eigvals(pair, which)
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


def exact_decision_moments(beta_star, beta_hat, pair):
    """Exact (omega*, chi, v) per law, as Fractions, of the rotated float vectors.

    Each is the exact sum of e * b* * b* (or b* * b, b * b) / d over the float
    eigenvalues e and the float rotated coordinates, with no rounding at all.
    """
    bs = [Fraction(t) for t in pair.rotate(beta_star).tolist()]
    bh = [Fraction(t) for t in pair.rotate(beta_hat).tolist()]
    moments = []
    for e in (pair.eigvals_p, pair.eigvals_q):
        terms = [(Fraction(w), s, h) for w, s, h in zip(e.tolist(), bs, bh) if w != 0.0]
        moments.append(tuple(
            sum((w * x * y for w, x, y in rows), Fraction(0)) / pair.d
            for rows in (
                ((w, s, s) for w, s, _ in terms),
                ((w, s, h) for w, s, h in terms),
                ((w, h, h) for w, _, h in terms),
            )
        ))
    return tuple(moments)


def _sqrt_40_digits(value):
    with decimal.localcontext(decimal.Context(prec=40)):
        return float((decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)).sqrt())


def exact_misclassification_risks(beta_star, beta_hat, pair):
    """(risk_p, risk_q) from the exact moments, rounded once per leg of the angle.

    l21^2 = chi^2 / omega* and l22^2 = v_perp = v - chi^2 / omega* are exact;
    their square roots are taken to 40 digits, so both legs are within about
    half an ulp, and math.atan2(l22, l21) / pi is within a few ulp of the
    exact risk.
    """
    risks = []
    for omega_star, chi, v in exact_decision_moments(beta_star, beta_hat, pair):
        l21_sq = chi * chi / omega_star
        l21 = math.copysign(_sqrt_40_digits(l21_sq), chi)
        risks.append(math.atan2(_sqrt_40_digits(v - l21_sq), l21) / math.pi)
    return tuple(risks)


def _sec_sq(risk):
    c = math.cos(math.pi * risk)
    return 1.0 / (c * c)


def _risk_from_sec_sq(s):
    if s < 1.0:
        if s < 1.0 - 1e-9:
            raise NumericInputError(f"sec^2 value {s} below 1; no risk in [0, 1/2) maps to it")
        s = 1.0
    # a huge s rounds acos to exactly pi / 2; the relations' domain is open at 1/2
    return min(math.acos(min(1.0, 1.0 / math.sqrt(s))) / math.pi, _BELOW_HALF)


def classification_relation_inverse(risk_q, shift):
    """Train risk whose image under classification_relation is risk_q."""
    if not (math.isfinite(risk_q) and 0.0 < risk_q < 0.5):
        raise NumericInputError(f"misclassification risk must lie in (0, 1/2), got {risk_q}")
    slope = shift.kappa * shift.mu / shift.gamma
    s_p = (_sec_sq(risk_q) - shift.mu) / slope + 1.0
    return _risk_from_sec_sq(s_p)


# the hinge oracle's g range; 2 phi(g) underflows well before it
_HINGE_G_MAX = 40.0
# the logistic oracle's u range, where 2 phi(u) has underflowed too
_LOGISTIC_U_MAX = 40.0


def hinge_risk_oracle(l21, l22):
    """E max(0, 1 - l21 |g1| - l22 w) by scipy.integrate.quad over g = |g1|.

    The inner expectation over w is c Phi(c / l22) + l22 phi(c / l22) for
    c = 1 - l21 g; it bends at the kink g = 1 / l21 over a width l22 / |l21|,
    so the kink and its neighbours g = 1 / l21 + m l22 / |l21|, m = +-1, +-8,
    are breakpoints, and for l21 > 0 the range stops where the inner term
    vanishes.  Against a 30-digit mpmath evaluation of the same integral it is
    within 6e-16 relative on l21 in +-[1e-3, 1e3], l22 in [1e-4, 1e3].
    """

    def integrand(g):
        c = 1.0 - l21 * g
        if l22 == 0.0:
            inner = max(c, 0.0)
        else:
            r = c / l22
            inner = c * ndtr(r) + l22 * math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)
        return 2.0 * math.exp(-0.5 * g * g) / math.sqrt(2.0 * math.pi) * inner

    top, points = _HINGE_G_MAX, [8.0]
    if l21 != 0.0:
        if l21 > 0.0:
            top = min(top, (1.0 + _HINGE_G_MAX * l22) / l21)
        width = l22 / abs(l21)
        points = [p for p in (1.0 / l21 + m * width for m in (-8.0, -1.0, 0.0, 1.0, 8.0)) if 0.0 < p < top]
    value, _ = integrate.quad(integrand, 0.0, top, points=points or None, epsabs=0.0, epsrel=1e-13, limit=500)
    return value


def logistic_risk_oracle(l21, l22):
    """E log(1 + exp(-t)) for t = l21 |g1| + l22 w, l22 > 0, by scipy.integrate.quad over u = t / s.

    u has the skew-normal density 2 phi(u) Phi(alpha u) for s = hypot(l21,
    l22) and alpha = l21 / l22, so the risk is the integral of softplus(-s u)
    against it, with no use of the law of |t| that the package takes.  The
    loss bends over a width 1 / s at u = 0 and the density over a width
    1 / |alpha|, so multiples of both are breakpoints.  Against a 30-digit
    mpmath evaluation it is within 6e-16 relative on l21 in +-[1e-3, 1e3],
    l22 in [1e-4, 1e3].
    """
    s = math.hypot(l21, l22)
    alpha = l21 / l22

    def integrand(u):
        x = s * u
        softplus = max(-x, 0.0) + math.log1p(math.exp(-abs(x)))
        return 2.0 * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) * ndtr(alpha * u) * softplus

    widths = [w for w in (1.0 / s, 1.0 / abs(alpha)) if math.isfinite(w)]
    points = sorted({0.0, *(m * w * side for w in widths for m in (1.0, 4.0, 16.0, 64.0) for side in (-1.0, 1.0))})
    points = [p for p in points if abs(p) < _LOGISTIC_U_MAX]
    value, _ = integrate.quad(
        integrand, -_LOGISTIC_U_MAX, _LOGISTIC_U_MAX, points=points, epsabs=0.0, epsrel=1e-13, limit=500
    )
    return value


def sigma_dense(pair, which):
    """Dense d x d covariance of a CovariancePair; for tests and finite-dimensional checks only."""
    e = _eigvals(pair, which)
    return (pair.eigenbasis * e) @ pair.eigenbasis.T


def projector(basis):
    """Dense projector U U^T onto the subspace spanned by an OrthonormalBasis."""
    return basis.columns @ basis.columns.T
