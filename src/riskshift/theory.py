"""Closed-form risk relations between train and shifted test distributions.

For ridge-type estimators on simultaneously diagonalizable covariance pairs,
the test risk is a deterministic function of the train risk.  This module
provides the regression relation (affine when gamma = kappa), the
classification relation (affine in sec^2 of pi times the risk), the
asymptotic 2x2 decision covariances of a three-parameter estimator family,
the monotonicity checks in closed form (for a projector Sigma_P every
resolvent ratio they compare is one ratio of beta*'s support energies at all
shifts, so no verdict depends on beta*'s scale), finite-dimensional linearity
diagnostics, and the probit/arctan gap bound on a fixed grid of [-10, 10].
"""

import math
from dataclasses import dataclass

import numpy as np

from riskshift.errors import NumericInputError
from riskshift.risk import DecisionCov, _std_normal_cdf
from riskshift.shiftmodel import _ZERO_ENERGY_SHARE, ShiftParameters, _shift_energies, _task_factor
from riskshift.subspace import _checked_array, _checked_real

_GAMMA_KAPPA_REL_TOL = 1e-6
_BELOW_HALF = math.nextafter(0.5, 0.0)
_MONO_TOL = 1e-8


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
    a, b, c = _checked_real("a", a), _checked_real("b", b, (">", 0)), _checked_real("c", c, (">", 0))
    if not isinstance(shift, ShiftParameters):
        raise NumericInputError("shift must be a ShiftParameters")
    base = shift.r_p * shift.sigma_beta_sq
    scale = 1.0 + b
    cov_p = DecisionCov(
        l11=math.sqrt(base),
        l21=a * math.sqrt(base) / scale,
        l22=math.sqrt(c * shift.r_p) / scale,
    )
    # a^2 gamma base (1 - 1/mu): the signal part of Var z that l21 does not carry
    tilted = a * a * shift.gamma * base * (shift.mu - 1.0) / shift.mu
    cov_q = DecisionCov(
        l11=math.sqrt(shift.gamma * shift.mu * base),
        l21=a * math.sqrt(shift.gamma * base / shift.mu) / scale,
        l22=math.sqrt(tilted + c * shift.kappa * shift.r_p) / scale,
    )
    return cov_p, cov_q


def regression_relation(risk_p, shift):
    """Affine map of squared risks, valid when gamma = kappa.

    risk_q = gamma * risk_p + gamma * r_p * sigma_beta_sq * (mu - 1).
    """
    risk_p = _checked_real("risk_p", risk_p, (">=", 0))
    rel_gap = abs(shift.gamma - shift.kappa) / shift.gamma
    if rel_gap > _GAMMA_KAPPA_REL_TOL:
        raise NumericInputError(
            f"regression relation needs gamma = kappa; relative gap is {rel_gap:.3g}"
        )
    return shift.gamma * risk_p + shift.gamma * shift.r_p * shift.sigma_beta_sq * (shift.mu - 1.0)


def classification_relation(risk_p, shift):
    """Test misclassification risk from the train one, for a train risk in [0, 1].

    sec^2(pi * risk_q) = (kappa * mu / gamma) * (sec^2(pi * risk_p) - 1) + mu,
    evaluated as tan^2(pi * risk_q) = (kappa * mu / gamma) * tan^2(pi * risk_p)
    + mu - 1, which does not cancel at small risks.  Above 1/2 it is 1 - (its
    value at 1 - risk_p): flipping the estimate's sign maps r to 1 - r on both laws.
    """
    risk_p = _checked_real("risk_p", risk_p, (">=", 0), ("<=", 1))
    if risk_p >= 0.5:
        # 1 - risk_p is exact here
        return 0.5 if risk_p == 0.5 else 1.0 - classification_relation(1.0 - risk_p, shift)
    tan_p = math.tan(math.pi * risk_p)
    tan_sq_q = (shift.kappa * shift.mu / shift.gamma) * tan_p * tan_p + (shift.mu - 1.0)
    # a huge tan^2 rounds atan to exactly pi / 2; a train risk below 1/2 keeps its image below 1/2
    return min(math.atan(math.sqrt(tan_sq_q)) / math.pi, _BELOW_HALF)


def monotonicity_check_regression(pair, beta_star):
    """Do Gamma/Lambda/Theta under Q equal a single multiple rho of those under P?

    The squared-risk relation holds with slope rho exactly when the three
    resolvent ratios agree for every shift b > 0.  For a projector Sigma_P the
    Gamma and Lambda ratios are both rho = e_QS / e_S and the Theta ratio is
    kappa at every b, so the check holds iff |kappa - rho| / rho <= 1e-8.
    """
    e_s, e_qs, _, _, kappa = _shift_energies(pair, beta_star)
    rho = e_qs / e_s
    # rho = 0 (Sigma_Q vanishes on beta*'s support energy) matches no kappa
    max_dev = abs(kappa - rho) / rho if rho > 0.0 else math.inf
    return MonotonicityVerdict(holds=max_dev <= _MONO_TOL, rho=rho, u0=0.0, max_deviation=max_dev)


def monotonicity_check_classification(pair, beta_star):
    """Are the two scale-free composites affinely locked across distributions?

    The composites Omega*Theta/Gamma^2 and Omega*Lambda/Gamma^2 drive the
    misclassification relation; it holds iff the Q-composites equal
    rho * (P-composite) and rho * (P-composite) + u0 for all shifts b > 0.
    For a projector Sigma_P all four composites are constant in b: d_P / e_S
    and 1 under P, mu * kappa * d_P / e_QS and mu = e_Q / e_QS under Q.  So
    rho = mu * kappa * e_S / e_QS, u0 = mu - rho, and the relation holds, with
    max_deviation 0, for every pair a CovariancePair can hold.
    """
    e_s, e_qs, e_q, _, kappa = _shift_energies(pair, beta_star)
    mu = _task_factor(e_qs, e_q)
    rho = mu * kappa * e_s / e_qs
    return MonotonicityVerdict(holds=True, rho=rho, u0=mu - rho, max_deviation=0.0)


def _ridge_inputs(beta_star, basis, sigma_q, sigma_p_sq, sigma_q_sq):
    """(beta*, its projection beta_P* onto basis, Sigma_Q, sigma_p_sq, sigma_q_sq), each checked."""
    d = basis.ambient_dim
    beta_star = _checked_array("beta_star", beta_star, (d,))
    sigma_q = _checked_array("sigma_q", sigma_q, (d, d))
    sigma_p_sq = _checked_real("sigma_p_sq", sigma_p_sq, (">=", 0))
    sigma_q_sq = _checked_real("sigma_q_sq", sigma_q_sq, (">=", 0))
    return beta_star, basis.columns @ (basis.columns.T @ beta_star), sigma_q, sigma_p_sq, sigma_q_sq


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
    beta_star, b_p, sigma_q, sigma_p_sq, sigma_q_sq = _ridge_inputs(beta_star, basis, sigma_q, sigma_p_sq, sigma_q_sq)
    b_perp = beta_star - b_p
    denom = float(b_p @ b_p)
    # projection roundoff leaves O(eps^2) energy even for orthogonal inputs, as rotation roundoff does
    if denom <= _ZERO_ENERGY_SHARE * max(float(beta_star @ beta_star), 1e-300):
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
    lam = _checked_real("lam", lam, (">=", 0))
    beta_star, b_p, sigma_q, sigma_p_sq, sigma_q_sq = _ridge_inputs(beta_star, basis, sigma_q, sigma_p_sq, sigma_q_sq)
    alpha = 1.0 / (1.0 + lam)
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
