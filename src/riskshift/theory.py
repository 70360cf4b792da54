"""Closed-form risk relations between train and shifted test distributions.

For ridge-type estimators on simultaneously diagonalizable covariance pairs,
the test risk is a deterministic function of the train risk.  This module
provides the regression relation (affine when gamma = kappa), the
classification relation (affine in sec^2 of pi times the risk), the
asymptotic 2x2 decision covariances of a three-parameter estimator family,
per-eigenvalue resolvent functionals evaluated at once over 16 fixed shifts,
ratio-based monotonicity checks on those shifts, finite-dimensional linearity
diagnostics, and the probit/arctan gap bound on a fixed grid of [-10, 10].
"""

import math
from dataclasses import dataclass

import numpy as np

from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.risk import DecisionCov, _std_normal_cdf
from riskshift.shiftmodel import ShiftParameters

_GAMMA_KAPPA_REL_TOL = 1e-6
_BELOW_HALF = math.nextafter(0.5, 0.0)
# resolvent shifts b at which the monotonicity checks compare functionals
_B_GRID = np.geomspace(1e-3, 1e3, 16)
_MONO_TOL = 1e-8


@dataclass(frozen=True)
class FunctionalTuple:
    """Resolvent functionals of a covariance pair, per distribution.

    The omegas do not depend on the shift; every other field is an array over
    the 16 shifts b of the monotonicity checks.
    """

    omega_p: float
    gamma_p: np.ndarray
    lambda_p: np.ndarray
    theta_p: np.ndarray
    omega_q: float
    gamma_q: np.ndarray
    lambda_q: np.ndarray
    theta_q: np.ndarray


@dataclass(frozen=True)
class MonotonicityVerdict:
    """Whether test-risk functionals are a fixed affine image of train ones."""

    holds: bool
    rho: float
    u0: float
    max_deviation: float


def asymptotic_decision_cov(a, b, c, shift):
    """Decision covariances (train, test) of the (a, b, c) estimator family.

    The family covers ridge-type estimators whose rotated coefficients are
    (a * beta_j + noise) / (1 + b) per eigendirection: a is the alignment,
    b the resolvent shift and c the variance of the noise energy per direction.
    """
    if not all(math.isfinite(t) for t in (a, b, c)):
        raise NumericInputError("asymptotic parameters must be finite")
    if b <= 0 or c <= 0:
        raise NumericInputError("b and c must be positive")
    if not isinstance(shift, ShiftParameters):
        raise NumericInputError("shift must be a ShiftParameters")
    base = shift.r_p * shift.sigma_beta_sq
    scale = 1.0 + b
    cov_p = DecisionCov(
        omega_star=base,
        chi=a * base / scale,
        v=(a * a * base + c * shift.r_p) / (scale * scale),
    )
    cov_q = DecisionCov(
        omega_star=shift.gamma * shift.mu * base,
        chi=a * shift.gamma * base / scale,
        v=(a * a * shift.gamma * base + c * shift.kappa * shift.r_p) / (scale * scale),
    )
    return cov_p, cov_q


def regression_relation(risk_p, shift):
    """Affine map of squared risks, valid when gamma = kappa.

    risk_q = gamma * risk_p + gamma * r_p * sigma_beta_sq * (mu - 1).
    """
    if not (math.isfinite(risk_p) and risk_p >= 0):
        raise NumericInputError(f"squared risk must be finite and >= 0, got {risk_p}")
    rel_gap = abs(shift.gamma - shift.kappa) / shift.gamma
    if rel_gap > _GAMMA_KAPPA_REL_TOL:
        raise NumericInputError(
            f"regression relation needs gamma = kappa; relative gap is {rel_gap:.3g}"
        )
    return shift.gamma * risk_p + shift.gamma * shift.r_p * shift.sigma_beta_sq * (shift.mu - 1.0)


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


def classification_relation(risk_p, shift):
    """Test misclassification risk from the train one.

    sec^2(pi * risk_q) = (kappa * mu / gamma) * (sec^2(pi * risk_p) - 1) + mu.
    """
    if not (math.isfinite(risk_p) and 0.0 < risk_p < 0.5):
        raise NumericInputError(f"misclassification risk must lie in (0, 1/2), got {risk_p}")
    s_q = (shift.kappa * shift.mu / shift.gamma) * (_sec_sq(risk_p) - 1.0) + shift.mu
    return _risk_from_sec_sq(s_q)


def covariance_functionals(pair, beta_star):
    """Resolvent functionals of (Sigma_P, Sigma_Q) at 16 log-spaced shifts b in [1e-3, 1e3].

    With s, q the shared-basis eigenvalues and b_j the rotated coordinates of
    beta*, each functional averages s^k q^l b_j^2 / (s + b)^m over j.
    """
    bb = pair.rotate(np.asarray(beta_star, dtype=np.float64))
    # a finite coordinate above ~1.3e154 squares to inf
    with np.errstate(over="ignore"):
        b_sq = bb * bb
    if not np.all(np.isfinite(b_sq)):
        raise NumericInputError("beta_star must be finite and its squared coordinates too")
    s = pair.eigvals_p
    q = pair.eigvals_q
    d = pair.d
    # one row per shift
    res = s + _B_GRID[:, None]
    res_sq = res * res
    return FunctionalTuple(
        omega_p=float(np.sum(s * b_sq)) / d,
        gamma_p=np.sum(s * s * b_sq / res, axis=1) / d,
        lambda_p=np.sum(s * s * s * b_sq / res_sq, axis=1) / d,
        theta_p=np.sum(s * s / res_sq, axis=1) / d,
        omega_q=float(np.sum(q * b_sq)) / d,
        gamma_q=np.sum(q * s * b_sq / res, axis=1) / d,
        lambda_q=np.sum(q * s * s * b_sq / res_sq, axis=1) / d,
        theta_q=np.sum(q * s / res_sq, axis=1) / d,
    )


def monotonicity_check_regression(pair, beta_star):
    """Do Gamma/Lambda/Theta under Q equal a single multiple rho of those under P?

    The squared-risk relation holds with slope rho exactly when the three
    resolvent ratios agree for every shift b > 0.  The check compares them at
    16 log-spaced shifts in [1e-3, 1e3] and holds within relative deviation 1e-8.
    """
    f = covariance_functionals(pair, beta_star)
    if np.any(f.gamma_p <= 0.0):
        raise NumericInputError(
            "beta* carries no energy on the Sigma_P support; ratios are undefined"
        )
    rho = float(f.gamma_q[0] / f.gamma_p[0])
    if rho <= 0.0:
        return MonotonicityVerdict(holds=False, rho=rho, u0=0.0, max_deviation=math.inf)
    num = np.stack([f.gamma_q, f.lambda_q, f.theta_q])
    den = rho * np.stack([f.gamma_p, f.lambda_p, f.theta_p])
    max_dev = float(np.max(np.abs(num - den) / np.abs(den)))
    return MonotonicityVerdict(holds=max_dev <= _MONO_TOL, rho=rho, u0=0.0, max_deviation=max_dev)


def monotonicity_check_classification(pair, beta_star):
    """Are the two scale-free composites affinely locked across distributions?

    The composites Omega*Theta/Gamma^2 and Omega*Lambda/Gamma^2 drive the
    misclassification relation; it holds iff the Q-composites equal
    rho * (P-composite) and rho * (P-composite) + u0 for all shifts b > 0.
    The check uses the same 16 shifts and 1e-8 tolerance as the regression one.
    """
    f = covariance_functionals(pair, beta_star)
    if np.any(f.gamma_p <= 0.0) or np.any(f.gamma_q <= 0.0):
        raise NumericInputError(
            "beta* carries no energy on the Sigma_P support; composites are undefined"
        )
    ct_p = f.omega_p * f.theta_p / (f.gamma_p * f.gamma_p)
    ct_q = f.omega_q * f.theta_q / (f.gamma_q * f.gamma_q)
    cl_p = f.omega_p * f.lambda_p / (f.gamma_p * f.gamma_p)
    cl_q = f.omega_q * f.lambda_q / (f.gamma_q * f.gamma_q)
    rho = float(ct_q[0] / ct_p[0])
    u0 = float(cl_q[0] - rho * cl_p[0])
    if rho <= 0.0:
        return MonotonicityVerdict(holds=False, rho=rho, u0=u0, max_deviation=math.inf)
    max_dev = float(max(
        np.max(np.abs(ct_q - rho * ct_p) / np.abs(rho * ct_p)),
        np.max(np.abs(cl_q - rho * cl_p - u0) / np.maximum(np.abs(cl_q), 1e-300)),
    ))
    return MonotonicityVerdict(holds=max_dev <= _MONO_TOL, rho=rho, u0=u0, max_deviation=max_dev)


def _ridge_inputs(beta_star, basis, sigma_q, sigma_p_sq, sigma_q_sq):
    """beta* and Sigma_Q as float64 arrays, checked for shape and finiteness with both noise variances."""
    beta_star = np.asarray(beta_star, dtype=np.float64)
    sigma_q = np.asarray(sigma_q, dtype=np.float64)
    d = basis.ambient_dim
    if beta_star.shape != (d,):
        raise InvalidDimensionError(f"beta_star must have shape ({d},)")
    if sigma_q.shape != (d, d):
        raise InvalidDimensionError(f"sigma_q must have shape ({d}, {d})")
    if not (np.all(np.isfinite(beta_star)) and np.all(np.isfinite(sigma_q))):
        raise NumericInputError("inputs must be finite")
    for name, noise_var in (("sigma_p_sq", sigma_p_sq), ("sigma_q_sq", sigma_q_sq)):
        if not (math.isfinite(noise_var) and noise_var >= 0):
            raise NumericInputError(f"{name} must be finite and >= 0")
    return beta_star, sigma_q


def finite_dim_linearity(beta_star, basis, sigma_q, sigma_p_sq, sigma_q_sq):
    """Slope and intercept of test risk as an affine function of train risk.

    For population ridge with train covariance the projector onto `basis`,
    both risks are affine in the shrinkage factor, so the test risk is affine
    in the train risk with slope beta_P*^T Sigma_Q beta_P* / ||beta_P*||^2.
    Returns (cross, slope, intercept) where cross =
    beta_P*^T Sigma_Q (beta* - beta_P*) measures the coupling that breaks
    exactness, and intercept = beta*^T Sigma_Q beta* - slope * ||beta_P*||^2
    + sigma_q_sq - slope * sigma_p_sq.
    """
    beta_star, sigma_q = _ridge_inputs(beta_star, basis, sigma_q, sigma_p_sq, sigma_q_sq)
    b_p = basis.project(beta_star)
    b_perp = beta_star - b_p
    denom = float(b_p @ b_p)
    # projection roundoff leaves O(eps^2) energy even for orthogonal inputs
    if denom <= 1e-20 * max(float(beta_star @ beta_star), 1e-300):
        raise NumericInputError("beta* has no energy in the projector range")
    sq_bp = sigma_q @ b_p
    slope = float(b_p @ sq_bp) / denom
    cross = float(sq_bp @ b_perp)
    total = float(beta_star @ (sigma_q @ beta_star))
    intercept = total - slope * denom + sigma_q_sq - slope * sigma_p_sq
    return cross, slope, intercept


def population_ridge_risks(beta_star, basis, sigma_q, sigma_p_sq, sigma_q_sq, lam):
    """Train and test predictive risks of the population ridge estimator.

    The estimator is alpha * beta_P* with alpha = 1 / (1 + lam); train risk is
    under the projector covariance with noise sigma_p_sq, test risk under
    sigma_q with noise sigma_q_sq.  Both include the label-noise floor.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise NumericInputError("lam must be finite and >= 0")
    beta_star, sigma_q = _ridge_inputs(beta_star, basis, sigma_q, sigma_p_sq, sigma_q_sq)
    alpha = 1.0 / (1.0 + lam)
    b_p = basis.project(beta_star)
    b_perp = beta_star - b_p
    shrink = 1.0 - alpha
    risk_p = shrink * shrink * float(b_p @ b_p) + sigma_p_sq
    err = b_perp + shrink * b_p
    risk_q = float(err @ (sigma_q @ err)) + sigma_q_sq
    return float(risk_p), float(risk_q)


def probit_arctan_gap():
    """Max gap between the Gaussian tail probit curve and arctan(e^u)/pi on [-10, 10].

    The 2001-point grid has spacing 0.01, so the reported maximum is a
    certified bound for the continuous gap up to curvature error.
    """
    u = np.linspace(-10.0, 10.0, 2001)
    probit = 0.5 * _std_normal_cdf(u / math.sqrt(2.0))
    arct = np.arctan(np.exp(u)) / math.pi
    return float(np.max(np.abs(probit - arct)))
