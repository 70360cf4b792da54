"""Reference implementations that the tests compare the package against.

Each computes a quantity the package computes by another route: principal
angles by SVD where the package reads sum cos^2 off a Frobenius norm, Monte
Carlo over covariate vectors where the package reduces to a 2x2 decision
covariance, exact decision moments and angles from rational arithmetic where
the package rounds, the inverse of the classification relation for a round
trip, the hinge risk by adaptive quadrature over |g1| where the package takes
a closed form, the logistic risk by adaptive quadrature against the
skew-normal density where the package takes the law of |t|, the
compressed-sensing risks from an exact Gauss-Jordan inverse where the package
takes an eigendecomposition, the monotonicity verdicts from the paper's
resolvent functionals for any eigenvalues at 16 shifts where the package takes
four support energies of a projector Sigma_P, and the dense covariance and
projector matrices the package never forms.
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
from riskshift.theory import _BELOW_HALF, _MONO_TOL, MonotonicityVerdict

# a population draw costs O(d), hence a smaller chunk than mc_metric_risk's
_POPULATION_MC_CHUNK = 4096
# the resolvent shifts b at which the reference monotonicity verdicts compare functionals
_RESOLVENT_SHIFTS = np.geomspace(1e-3, 1e3, 16)


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
    v = pair.eigenbasis.columns
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
    bs = [Fraction(t) for t in (pair.eigenbasis.columns.T @ beta_star).tolist()]
    bh = [Fraction(t) for t in (pair.eigenbasis.columns.T @ beta_hat).tolist()]
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


def _exact_dot(u, v):
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def _gauss_jordan_solve(a, b):
    """X with A X = B for square Fraction matrices (lists of rows); A must be nonsingular."""
    size = len(a)
    rows = [list(a_row) + list(b_row) for a_row, b_row in zip(a, b)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[size:] for row in rows]


def cs_risks_exact(sketch, problem):
    """(risk_P, risk_Q) of the ridge reconstruction in exact rational arithmetic, rounded once.

    From the float sketch B = [B_P B_Q] and the float bases, M = B_P^T B_P,
    N = B_P^T B_Q and G = U_P^T U_Q are formed exactly, S = eta (I + eta M)^{-1}
    for eta = 1/(sigma_P^2 + lam) by Gauss-Jordan elimination of
    (I + eta M) S = eta I, and
    risk_P = (||I - S M||_F^2 + sigma_P^2 tr(S^T S M)) / d_P,
    risk_Q = (||G - S N||_F^2 - ||G||_F^2 + d_Q + sigma_Q^2 tr(S^T S M)) / d_Q.
    """
    d_p, d_q = problem.d_p, problem.d_q
    cols = [[Fraction(x) for x in col] for col in np.asarray(sketch, dtype=np.float64).T.tolist()]
    b_p, b_q = cols[:d_p], cols[d_p:]
    m = [[_exact_dot(u, v) for v in b_p] for u in b_p]
    n = [[_exact_dot(u, v) for v in b_q] for u in b_p]
    u_p = [[Fraction(x) for x in col] for col in problem.u_p.columns.T.tolist()]
    u_q = [[Fraction(x) for x in col] for col in problem.u_q.columns.T.tolist()]
    g = [[_exact_dot(u, v) for v in u_q] for u in u_p]
    eta = 1 / (Fraction(problem.sigma_p_sq) + Fraction(problem.lam))
    eye = [[Fraction(int(i == j)) for j in range(d_p)] for i in range(d_p)]
    s = _gauss_jordan_solve(
        [[eye[i][j] + eta * m[i][j] for j in range(d_p)] for i in range(d_p)],
        [[eta * x for x in row] for row in eye],
    )

    def product(x, y):
        return [[_exact_dot(row, col) for col in zip(*y)] for row in x]

    s_m, s_n = product(s, m), product(s, n)
    s_ts = product([list(col) for col in zip(*s)], s)
    noise = sum((t * u for r, q in zip(s_ts, m) for t, u in zip(r, q)), Fraction(0))
    fit_p = sum(((eye[i][j] - s_m[i][j]) ** 2 for i in range(d_p) for j in range(d_p)), Fraction(0))
    fit_q = sum(((g[i][j] - s_n[i][j]) ** 2 for i in range(d_p) for j in range(d_q)), Fraction(0))
    g_sq = sum((x * x for row in g for x in row), Fraction(0))
    risk_p = (fit_p + Fraction(problem.sigma_p_sq) * noise) / d_p
    risk_q = (fit_q - g_sq + d_q + Fraction(problem.sigma_q_sq) * noise) / d_q
    return float(risk_p), float(risk_q)


def resolvent_functionals(eigvals_p, eigvals_q, beta_rotated):
    """The paper's resolvent functionals of (Sigma_P, Sigma_Q) at 16 log-spaced shifts b in [1e-3, 1e3].

    With s, q any nonnegative eigenvalues in the shared basis and b_j the
    rotated coordinates of beta*, each functional averages
    s^k q^l b_j^2 / (s + b)^m over j.  The omegas do not depend on the shift;
    every other entry is an array over the 16 shifts.
    """
    s = np.asarray(eigvals_p, dtype=np.float64)
    q = np.asarray(eigvals_q, dtype=np.float64)
    b_sq = np.asarray(beta_rotated, dtype=np.float64) ** 2
    d = s.size
    # one row per shift
    res = s + _RESOLVENT_SHIFTS[:, None]
    res_sq = res * res
    return {
        "omega_p": float(np.sum(s * b_sq)) / d,
        "gamma_p": np.sum(s * s * b_sq / res, axis=1) / d,
        "lambda_p": np.sum(s * s * s * b_sq / res_sq, axis=1) / d,
        "theta_p": np.sum(s * s / res_sq, axis=1) / d,
        "omega_q": float(np.sum(q * b_sq)) / d,
        "gamma_q": np.sum(q * s * b_sq / res, axis=1) / d,
        "lambda_q": np.sum(q * s * s * b_sq / res_sq, axis=1) / d,
        "theta_q": np.sum(q * s / res_sq, axis=1) / d,
    }


def resolvent_regression_verdict(eigvals_p, eigvals_q, beta_rotated):
    """Do the Gamma, Lambda and Theta ratios equal one rho at all 16 shifts, within 1e-8 relative?"""
    f = resolvent_functionals(eigvals_p, eigvals_q, beta_rotated)
    if np.any(f["gamma_p"] <= 0.0):
        raise NumericInputError("beta* carries no energy on the Sigma_P support; ratios are undefined")
    rho = float(f["gamma_q"][0] / f["gamma_p"][0])
    if rho <= 0.0:
        return MonotonicityVerdict(holds=False, rho=rho, u0=0.0, max_deviation=math.inf)
    num = np.stack([f["gamma_q"], f["lambda_q"], f["theta_q"]])
    den = rho * np.stack([f["gamma_p"], f["lambda_p"], f["theta_p"]])
    max_dev = float(np.max(np.abs(num - den) / np.abs(den)))
    return MonotonicityVerdict(holds=max_dev <= _MONO_TOL, rho=rho, u0=0.0, max_deviation=max_dev)


def resolvent_classification_verdict(eigvals_p, eigvals_q, beta_rotated):
    """Are the Q composites rho times and rho times plus u0 the P ones at all 16 shifts, within 1e-8?"""
    f = resolvent_functionals(eigvals_p, eigvals_q, beta_rotated)
    if np.any(f["gamma_p"] <= 0.0) or np.any(f["gamma_q"] <= 0.0):
        raise NumericInputError("beta* carries no energy on the Sigma_P support; composites are undefined")
    ct_p, ct_q = (f[f"omega_{w}"] * f[f"theta_{w}"] / f[f"gamma_{w}"] ** 2 for w in "pq")
    cl_p, cl_q = (f[f"omega_{w}"] * f[f"lambda_{w}"] / f[f"gamma_{w}"] ** 2 for w in "pq")
    rho = float(ct_q[0] / ct_p[0])
    u0 = float(cl_q[0] - rho * cl_p[0])
    max_dev = float(max(
        np.max(np.abs(ct_q - rho * ct_p) / np.abs(rho * ct_p)),
        np.max(np.abs(cl_q - rho * cl_p - u0) / np.maximum(np.abs(cl_q), 1e-300)),
    ))
    return MonotonicityVerdict(holds=max_dev <= _MONO_TOL, rho=rho, u0=u0, max_deviation=max_dev)


def sigma_dense(pair, which):
    """Dense d x d covariance of a CovariancePair; for tests and finite-dimensional checks only."""
    e = _eigvals(pair, which)
    v = pair.eigenbasis.columns
    return (v * e) @ v.T


def projector(basis):
    """Dense projector U U^T onto the subspace spanned by an OrthonormalBasis."""
    return basis.columns @ basis.columns.T
