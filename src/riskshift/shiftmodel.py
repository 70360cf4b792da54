"""Simultaneously diagonalizable covariance pairs and scalar shift descriptors.

A CovariancePair stores one shared eigenbasis V, a square OrthonormalBasis,
plus two eigenvalue vectors: Sigma_P = V diag(eigvals_p) V^T is a projector
(binary eigenvalues) and Sigma_Q = V diag(eigvals_q) V^T is PSD.  All formulas
in this package reduce to diagonal arithmetic after rotating vectors into that
basis, so covariances are never materialized densely.
"""

import math
from dataclasses import dataclass

import numpy as np

from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.risk import _basis_coordinates
from riskshift.subspace import OrthonormalBasis, SubspacePairSpec, _checked_array, _checked_real, _frozen_array, haar_basis


@dataclass(frozen=True)
class CovariancePair:
    """Shared eigenbasis plus eigenvalues of (Sigma_P, Sigma_Q)."""

    eigenbasis: OrthonormalBasis
    eigvals_p: np.ndarray
    eigvals_q: np.ndarray

    def __post_init__(self):
        v = self.eigenbasis
        if not isinstance(v, OrthonormalBasis) or v.rank != v.ambient_dim:
            raise InvalidDimensionError("eigenbasis must be a square OrthonormalBasis")
        d = v.ambient_dim
        e_p = _checked_array("eigvals_p", self.eigvals_p, (d,))
        e_q = _checked_array("eigvals_q", self.eigvals_q, (d,), (">=", 0))
        if not np.all((e_p == 0.0) | (e_p == 1.0)):
            raise NumericInputError("eigvals_p must be binary (projector spectrum)")
        object.__setattr__(self, "eigvals_p", _frozen_array(e_p))
        object.__setattr__(self, "eigvals_q", _frozen_array(e_q))

    @property
    def d(self):
        return self.eigenbasis.ambient_dim

    @property
    def d_p(self):
        return int(round(float(np.sum(self.eigvals_p))))


# each field's bounds; mu has a 1e-9 slack below 1
_SHIFT_BOUNDS = {"gamma": ((">", 0),), "mu": ((">=", 1.0 - 1e-9),), "kappa": ((">", 0),), "r_p": ((">", 0), ("<=", 1)),
                 "sigma_beta_sq": ((">", 0),)}


@dataclass(frozen=True)
class ShiftParameters:
    """Scalar shift descriptors: slope gamma, task factor mu, trace factor kappa, rank share r_p, beta*'s variance."""

    gamma: float
    mu: float
    kappa: float
    r_p: float
    sigma_beta_sq: float

    def __post_init__(self):
        for name, bounds in _SHIFT_BOUNDS.items():
            object.__setattr__(self, name, _checked_real(name, getattr(self, name), *bounds))
        # a mu within the slack is stored as 1, so every formula reads mu - 1 >= 0
        object.__setattr__(self, "mu", max(self.mu, 1.0))


def subspace_shift_model(spec, tau, seed):
    """Projector Sigma_P plus Sigma_Q = tau * (projector onto an overlapping subspace).

    eigvals_p is 1 on the first d_p shared-basis coordinates; eigvals_q is tau
    on d_q coordinates of which exactly d_pq fall inside the P support.  The
    shared eigenbasis is Haar-random.
    """
    if not isinstance(spec, SubspacePairSpec):
        raise InvalidDimensionError("spec must be a SubspacePairSpec")
    tau = _checked_real("tau", tau, (">", 0))
    v = haar_basis(spec.d, spec.d, seed)
    e_p = np.zeros(spec.d)
    e_p[: spec.d_p] = 1.0
    e_q = np.zeros(spec.d)
    e_q[spec.q_coords] = tau
    return CovariancePair(v, e_p, e_q)


# rotation roundoff leaves O(eps^2) of beta*'s energy on a coordinate that is 0 in exact arithmetic
_ZERO_ENERGY_SHARE = 1e-20


def _support_energy(pair, beta_star):
    """(e_S, b_sq, b, p): beta*'s energy e_S = sum s b^2 on the Sigma_P support, refused if 0, read from Sigma_P alone.

    b, p are _basis_coordinates'; b_sq is b^2 with each square <= _ZERO_ENERGY_SHARE sum b^2 set to 0, the one zero rule.
    """
    b, p = _basis_coordinates(pair, beta_star, "beta_star")
    b_sq = b * b
    b_sq[b_sq <= _ZERO_ENERGY_SHARE * np.sum(b_sq)] = 0.0
    e_s = float(np.sum(pair.eigvals_p * b_sq))
    if e_s == 0.0:
        raise NumericInputError("beta* carries no energy on the Sigma_P support")
    return e_s, b_sq, b, p


def _shift_energies(pair, beta_star):
    """beta*'s energies e_S = sum s b^2, e_QS = sum q s b^2, e_Q = sum q b^2 in units of 4^p, p, and kappa = sum q s / d_P.

    s, q are the shared-basis eigenvalues and b the rotated coordinates of beta* 2^-p, whose largest |entry| lies
    in [1/2, 1), so no square (nor the rotation) over- or underflows and the energies' ratios are free of its scale.
    Each energy reads _support_energy's squares; e_S > 0, so d_P >= 1.
    """
    e_s, b_sq, _, p = _support_energy(pair, beta_star)
    q = pair.eigvals_q
    qs = q * pair.eigvals_p
    # b^2 <= d, so only a Sigma_Q eigenvalue near the float range overflows a sum
    with np.errstate(over="ignore"):
        sums = np.array([np.sum(qs * b_sq), np.sum(q * b_sq), np.sum(qs)])
    if not np.all(np.isfinite(sums)):
        raise NumericInputError("Sigma_Q's eigenvalues put an energy or kappa past the float range at any scale of beta*")
    e_qs, e_q, trace = sums.tolist()
    return e_s, e_qs, e_q, p, trace / pair.d_p


def _task_factor(e_qs, e_q):
    """mu = e_Q / e_QS, refused where e_QS = 0."""
    if e_qs == 0.0:
        raise NumericInputError("beta* carries no Sigma_Q energy on the Sigma_P support")
    return e_q / e_qs


def shift_parameters(pair, beta_star, sigma_beta_sq):
    """Finite-dimensional plug-in values of the scalar shift descriptors.

    gamma = beta_P*^T Sigma_Q beta_P* / (d_p sigma_beta^2),
    mu    = beta*^T Sigma_Q beta* / beta_P*^T Sigma_Q beta_P*,
    kappa = tr(Sigma_Q Pi_P) / d_p,  r_p = d_p / d,
    with beta_P* the projection of beta* onto the Sigma_P support.  mu and
    kappa do not depend on beta*'s scale; a gamma that underflows to 0 is
    refused by name.
    """
    _, e_qs, e_q, p, kappa = _shift_energies(pair, beta_star)
    sigma_beta_sq = _checked_real("sigma_beta_sq", sigma_beta_sq, (">", 0))
    # the energies scaled back by 2^2p: a sum past the float range is inf here
    with np.errstate(over="ignore"):
        support_energy, total_energy = np.ldexp([e_qs, e_q], 2 * p).tolist()
    if not math.isfinite(total_energy):
        raise NumericInputError(f"beta*^T Sigma_Q beta* is {total_energy}, past the float range")
    mu = _task_factor(e_qs, e_q)
    gamma = support_energy / (pair.d_p * sigma_beta_sq)
    if gamma == 0.0:
        raise NumericInputError(f"gamma underflows to 0 at sigma_beta_sq = {sigma_beta_sq}")
    return ShiftParameters(gamma=gamma, mu=mu, kappa=kappa, r_p=pair.d_p / pair.d, sigma_beta_sq=sigma_beta_sq)


def _support_mean_square(pair, beta_star):
    """(m, b, p): beta*'s mean square m on the Sigma_P support, read from Sigma_P alone, and _basis_coordinates' b, p."""
    e_s, _, b, p = _support_energy(pair, beta_star)
    try:
        return math.ldexp(e_s, 2 * p) / pair.d_p, b, p
    except OverflowError:
        raise NumericInputError("beta*'s mean square on the Sigma_P support is inf, past the float range") from None


def _ratio_of_exponent(log_v, b_sq_sup, s):
    # kappa/gamma of the power family q_j = v_j^s on the support; a sum past the
    # float range or underflowing to 0 gives 0, inf or nan, which callers refuse
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = np.exp(s * log_v)
        return float(np.sum(w) / np.sum(w * b_sq_sup))


def task_dependent_model(pair, beta_star, target_ratio):
    """New Sigma_Q on the Sigma_P support whose eigenvalues track beta*'s energy.

    gamma and kappa/gamma are shift_parameters' plug-ins at sigma_beta_sq = 1,
    i.e. for a beta* with unit-variance coordinates.  In the shared eigenbasis,
    support eigenvalues follow the one-parameter power family
    q_j = (b_j^2 + eps0)^s with eps0 = 1e-8.  The realized kappa/gamma is
    strictly decreasing in s (s < 0 makes the shift harder, kappa > gamma), so
    bisection on s in [-8, 8] meets target_ratio to within 1e-10 relative; a
    final global scale sets gamma to beta*'s mean square on the Sigma_P
    support, the gamma of Sigma_Q = Sigma_P, so the input's Sigma_Q is not read.
    """
    target_ratio = _checked_real("target_ratio", target_ratio, (">", 0))
    # also rejects a non-finite beta_star and one with no energy on the Sigma_P support
    target_gamma, b_unit, p = _support_mean_square(pair, beta_star)
    sup = pair.eigvals_p == 1.0
    # the mean square is finite, so no square on the support overflows
    b_sq_sup = np.ldexp(b_unit[sup], p) ** 2

    log_v = np.log(b_sq_sup + 1e-8)
    lo, hi = -8.0, 8.0
    # ratio is decreasing in s, so the reachable band is [ratio(hi), ratio(lo)]
    ratio_lo = _ratio_of_exponent(log_v, b_sq_sup, lo)
    ratio_hi = _ratio_of_exponent(log_v, b_sq_sup, hi)
    if not all(0.0 < r < math.inf for r in (ratio_hi, ratio_lo)):
        raise NumericInputError("kappa/gamma of the power family leaves the float range at this scale of beta*")
    if not ratio_hi <= target_ratio <= ratio_lo:
        raise NumericInputError(
            f"target kappa/gamma {target_ratio} outside reachable band "
            f"[{ratio_hi:.6g}, {ratio_lo:.6g}] of the power family"
        )
    for _ in range(200):
        s_mid = 0.5 * (lo + hi)
        ratio_mid = _ratio_of_exponent(log_v, b_sq_sup, s_mid)
        if abs(ratio_mid - target_ratio) <= 1e-10 * target_ratio:
            break
        if ratio_mid > target_ratio:
            lo = s_mid
        else:
            hi = s_mid
    else:
        raise NumericInputError(f"bisection ended at kappa/gamma {ratio_mid!r}, not within 1e-10 of {target_ratio}")
    q_sup = np.exp(s_mid * log_v)
    e_q = np.zeros(pair.d)
    e_q[sup] = q_sup * (target_gamma / (float(np.sum(q_sup * b_sq_sup)) / pair.d_p))
    return CovariancePair(pair.eigenbasis, pair.eigvals_p, e_q)
