"""Tests for covariance pairs, plug-in shift parameters, and the task-dependent model."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from riskshift.datagen import sample_beta
from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.harness.selftest import _block_normalized_beta
from riskshift.risk import _basis_coordinates, decision_cov
from riskshift.shiftmodel import (
    CovariancePair,
    ShiftParameters,
    _support_mean_square,
    shift_parameters,
    subspace_shift_model,
    task_dependent_model,
)
from riskshift.subspace import OrthonormalBasis, SubspacePairSpec, haar_basis
from riskshift.theory import monotonicity_check_classification, monotonicity_check_regression

from oracles import sigma_dense


def _random_beta(d, sigma_beta_sq, seed):
    rng = np.random.default_rng(seed)
    return np.sqrt(sigma_beta_sq) * rng.standard_normal(d)


def test_covariance_pair_validation():
    basis = haar_basis(6, 6, 0)
    v = basis.columns
    p = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    q = np.array([2.0, 2.0, 0.0, 0.0, 1.0, 0.0])
    pair = CovariancePair(eigenbasis=basis, eigvals_p=p, eigvals_q=q)
    assert pair.d == 6 and pair.d_p == 3

    with pytest.raises(NumericInputError):
        CovariancePair(eigenbasis=basis, eigvals_p=p * 0.5, eigvals_q=q)  # non-binary
    with pytest.raises(NumericInputError):
        CovariancePair(eigenbasis=basis, eigvals_p=p, eigvals_q=q - 0.5)  # negative
    # Sigma_Q's spectrum is >= 0 exactly: no rounding slack below 0
    with pytest.raises(NumericInputError, match="eigvals_q must be >= 0, got -1e-13"):
        CovariancePair(eigenbasis=basis, eigvals_p=p, eigvals_q=np.where(q > 0, q, -1e-13))
    # orthonormality is checked once, by OrthonormalBasis, so a raw array is refused
    with pytest.raises(InvalidDimensionError, match="square OrthonormalBasis"):
        CovariancePair(eigenbasis=v, eigvals_p=p, eigvals_q=q)
    with pytest.raises(InvalidDimensionError, match="square OrthonormalBasis"):
        CovariancePair(eigenbasis=OrthonormalBasis(v[:, :5]), eigvals_p=p, eigvals_q=q)
    with pytest.raises(InvalidDimensionError):
        CovariancePair(eigenbasis=OrthonormalBasis(2 * v), eigvals_p=p, eigvals_q=q)


@pytest.mark.parametrize(
    "basis, eigvals_q, error",
    [
        (np.eye(3), [np.nan, 0.0, 0.0], NumericInputError),
        (np.eye(3), [np.inf, 0.0, 0.0], NumericInputError),
        (np.full((3, 3), np.nan), [1.0, 0.0, 0.0], InvalidDimensionError),
    ],
    ids=["nan-eigvals-q", "inf-eigvals-q", "nan-eigenbasis"],
)
def test_covariance_pair_rejects_non_finite_input(basis, eigvals_q, error):
    with pytest.raises(error):
        CovariancePair(OrthonormalBasis(basis), [1.0, 0.0, 0.0], eigvals_q)


def test_sigma_dense_and_rotated_quadratic_form_agree():
    pair = subspace_shift_model(SubspacePairSpec(12, 8, 6, 4), 1.5, 9)
    x = np.random.default_rng(1).standard_normal(12)
    xr = pair.eigenbasis.columns.T @ x
    for which, e in (("P", pair.eigvals_p), ("Q", pair.eigvals_q)):
        dense = sigma_dense(pair, which)
        npt.assert_allclose(np.sum(e * xr * xr), x @ dense @ x, rtol=1e-12)
    npt.assert_allclose(
        sigma_dense(pair, "P"), sigma_dense(pair, "P").T, atol=1e-12
    )


def test_subspace_model_eigenvalue_structure():
    pair = subspace_shift_model(SubspacePairSpec(20, 12, 10, 6), 2.5, 3)
    assert int(np.sum(pair.eigvals_p == 1.0)) == 12
    assert int(np.sum(pair.eigvals_q > 0)) == 10
    nonzero = pair.eigvals_q[pair.eigvals_q > 0]
    npt.assert_array_equal(nonzero, np.full(10, 2.5))
    # the overlap block carries Q-weight on exactly d_pq support coordinates
    both = (pair.eigvals_p == 1.0) & (pair.eigvals_q > 0)
    assert int(np.sum(both)) == 6


def test_shift_parameters_identity_shift():
    # Sigma_Q equal to the train projector: mu and kappa exact, gamma concentrates
    spec = SubspacePairSpec(400, 300, 300, 300)
    pair = subspace_shift_model(spec, 1.0, 5)
    beta = _random_beta(400, 1.0, 6)
    shift = shift_parameters(pair, beta, 1.0)
    assert shift.mu == pytest.approx(1.0, abs=1e-12)
    assert shift.kappa == pytest.approx(1.0, abs=1e-12)
    assert abs(shift.gamma - 1.0) < 5 / np.sqrt(300)
    assert shift.r_p == pytest.approx(0.75)


def test_shift_parameters_figure_geometry():
    # tau=2 with (d, d_p, d_q, d_pq) = (800, 720, 640, 560): kappa = 14/9 exactly
    spec = SubspacePairSpec(800, 720, 640, 560)
    pair = subspace_shift_model(spec, 2.0, 11)
    beta = _random_beta(800, 1.0, 12)
    shift = shift_parameters(pair, beta, 1.0)
    assert shift.kappa == pytest.approx(14 / 9, rel=1e-12)
    assert abs(shift.gamma - 14 / 9) < 0.2
    assert abs(shift.mu - 8 / 7) < 0.05
    assert shift.mu >= 1.0
    # beta*'s squares are subnormal here, and mu, kappa are ratios free of its scale
    tiny = shift_parameters(pair, 1e-160 * beta, 1.0)
    assert abs(tiny.mu - shift.mu) <= 1e-15 * shift.mu
    assert abs(tiny.kappa - shift.kappa) <= 1e-15 * shift.kappa


def test_shift_parameters_exact_for_block_equal_beta():
    spec = SubspacePairSpec(800, 720, 640, 560)
    pair = subspace_shift_model(spec, 2.0, 21)
    beta = _block_normalized_beta(pair, 22)
    shift = shift_parameters(pair, beta, 1.0)
    assert shift.gamma == pytest.approx(14 / 9, rel=1e-12)
    assert shift.mu == pytest.approx(8 / 7, rel=1e-12)


def test_shift_parameters_requires_support_energy():
    pair = subspace_shift_model(SubspacePairSpec(10, 4, 3, 2), 1.0, 7)
    # beta orthogonal to the support: zero support energy, refused by the one rule before Sigma_Q is read
    beta = pair.eigenbasis.columns @ np.concatenate([np.zeros(4), np.ones(6)])
    with pytest.raises(NumericInputError, match="no energy on the Sigma_P support"):
        shift_parameters(pair, beta, 1.0)
    with pytest.raises(NumericInputError, match="no energy on the Sigma_P support"):
        task_dependent_model(pair, beta, 1.0)
    # beta* has support energy, but gamma at sigma_beta_sq = 1 is below the smallest float
    with pytest.raises(NumericInputError, match="underflows to 0"):
        shift_parameters(pair, 1e-170 * _random_beta(10, 1.0, 8), 1.0)


_ENERGY_READERS = {
    "shift_parameters": lambda pair, beta: shift_parameters(pair, beta, 1.0),
    "check_regression": monotonicity_check_regression,
    "check_classification": monotonicity_check_classification,
    "task_dependent_model": lambda pair, beta: task_dependent_model(pair, beta, 2.0),
    "support_mean_square": _support_mean_square,
}


def _noise_probe(columns):
    # beta* spanned by some of the shared eigenvectors: its other rotated coordinates are rotation roundoff
    pair = subspace_shift_model(SubspacePairSpec(40, 30, 24, 18), 2.0, 1)
    v = pair.eigenbasis.columns[:, columns]
    return pair, v @ np.random.default_rng(3).standard_normal(v.shape[1])


@pytest.mark.parametrize("reader", _ENERGY_READERS.values(), ids=_ENERGY_READERS.keys())
def test_rounding_noise_on_the_support_is_no_energy(reader):
    # beta* orthogonal to the Sigma_P support leaves O(eps^2) energy there, which counts as 0 for every reader
    pair, beta = _noise_probe(slice(30, 40))
    with pytest.raises(NumericInputError, match=r"^beta\* carries no energy on the Sigma_P support$"):
        reader(pair, beta)


def test_rounding_noise_under_sigma_q_is_no_energy():
    # beta* on the support but orthogonal to Sigma_Q: e_QS is 0, not a ratio of rounding errors
    pair, beta = _noise_probe(slice(18, 30))
    for reader in (_ENERGY_READERS["shift_parameters"], monotonicity_check_classification):
        with pytest.raises(NumericInputError, match="no Sigma_Q energy on the Sigma_P support"):
            reader(pair, beta)
    verdict = monotonicity_check_regression(pair, beta)
    assert not verdict.holds and verdict.rho == 0.0 and verdict.max_deviation == math.inf
    # the rebuild reads no Sigma_Q, so it still has the support energy it needs
    task_dependent_model(pair, beta, 2.0)


def test_a_small_sigma_q_eigenvalue_is_a_genuine_energy():
    # the zero rule is on beta*'s squares, not on Sigma_Q's weights: e_QS = 2e-30 is kept
    pair = CovariancePair(OrthonormalBasis(np.eye(4)), [1.0, 1.0, 0.0, 0.0], [1e-30, 1e-30, 1.0, 1.0])
    shift = shift_parameters(pair, np.ones(4), 1.0)
    assert shift.mu == pytest.approx(1e30, rel=1e-12) and shift.gamma == pytest.approx(1e-30, rel=1e-12)
    assert monotonicity_check_classification(pair, np.ones(4)).rho == pytest.approx(1e30, rel=1e-12)


def test_shift_parameters_invariants_enforced():
    with pytest.raises(NumericInputError):
        ShiftParameters(gamma=0.0, mu=1.0, kappa=1.0, r_p=0.5, sigma_beta_sq=1.0)
    with pytest.raises(NumericInputError):
        ShiftParameters(gamma=1.0, mu=0.9, kappa=1.0, r_p=0.5, sigma_beta_sq=1.0)
    with pytest.raises(NumericInputError):
        ShiftParameters(gamma=1.0, mu=1.0, kappa=1.0, r_p=1.5, sigma_beta_sq=1.0)


def test_task_dependent_ratio_one_is_task_independent():
    pair = subspace_shift_model(SubspacePairSpec(200, 160, 120, 100), 2.0, 31)
    beta = _block_normalized_beta(pair, 32)
    built = task_dependent_model(pair, beta, target_ratio=1.0)
    on_support = built.eigvals_q[built.eigvals_p == 1.0]
    npt.assert_allclose(on_support, on_support[0], rtol=1e-9)
    shift = shift_parameters(built, beta, 1.0)
    assert shift.kappa == pytest.approx(shift.gamma, rel=1e-9)


def test_task_dependent_hits_ratio_and_gamma():
    pair = subspace_shift_model(SubspacePairSpec(300, 240, 200, 160), 2.0, 41)
    beta = _random_beta(300, 1.0, 42)
    # gamma is beta*'s mean square on the Sigma_P support, the gamma of Sigma_Q = Sigma_P
    support_ms = float(np.sum((pair.eigenbasis.columns.T @ beta)[:240] ** 2)) / 240
    for ratio in (0.3, 2.0, 5.0):
        built = task_dependent_model(pair, beta, target_ratio=ratio)
        # the rebuild keeps the input's basis object, so its frame is not checked again
        assert built.eigenbasis is pair.eigenbasis
        shift = shift_parameters(built, beta, 1.0)
        # the bisection stops within 1e-10 relative, and the plug-in rounds a few eps more
        assert shift.kappa / shift.gamma == pytest.approx(ratio, rel=1e-10 + 1e-14)
        assert shift.gamma == pytest.approx(support_ms, rel=1e-12)
        # same train-side law
        npt.assert_array_equal(built.eigvals_p, pair.eigvals_p)
        # Q-weights confined to the support
        assert np.all(built.eigvals_q[built.eigvals_p == 0.0] == 0.0)


def test_task_dependent_rebuild_reads_no_sigma_q():
    # why the classification sweep has no tau, d_q, d_pq or sigma_beta_sq: pairs that
    # share the eigenbasis and Sigma_P rebuild the same Sigma_Q, bit for bit, whatever
    # their own Sigma_Q, even one that is 0 or whose energies pass the float range
    beta = sample_beta(800, 1.0, 1)
    base = subspace_shift_model(SubspacePairSpec(800, 720, 640, 560), 2.0, 0)
    sigma_qs = (
        base.eigvals_q,
        base.eigvals_p,
        np.random.default_rng(2).uniform(0.0, 10.0, 800),
        np.zeros(800),
        np.full(800, 1e308),
    )
    built = [
        task_dependent_model(CovariancePair(base.eigenbasis, base.eigvals_p, e_q), beta, 5.0).eigvals_q
        for e_q in sigma_qs
    ]
    for eigvals_q in built[1:]:
        npt.assert_array_equal(eigvals_q, built[0])


def test_task_dependent_at_every_scale_of_beta_star_meets_its_target_or_names_its_refusal():
    # eps0 = 1e-8 is in unit-variance units, so the reachable band moves with beta*'s
    # scale; from 1e-160 to 1e300 the rebuild either meets kappa/gamma = 5 or refuses
    # by name, with no bare exception or numpy warning (warnings are errors here)
    pair = subspace_shift_model(SubspacePairSpec(40, 30, 24, 18), 2.0, 3)
    beta = np.random.default_rng(4).standard_normal(40)
    causes = ("outside reachable band", "leaves the float range", "past the float range")
    met = []
    for k in range(-160, 301):
        scaled = 10.0**k * beta
        try:
            built = task_dependent_model(pair, scaled, 5.0)
        except NumericInputError as exc:
            assert any(cause in str(exc) for cause in causes), (k, str(exc))
            continue
        shift = shift_parameters(built, scaled, 1.0)
        assert shift.kappa / shift.gamma == pytest.approx(5.0, rel=1e-10 + 1e-14), k
        met.append(k)
    assert 0 in met
    # the scales that meet the target form one run around 1
    assert met == list(range(met[0], met[-1] + 1))


@pytest.mark.parametrize("entry", [
    lambda pair, beta: shift_parameters(pair, beta, 1.0),
    monotonicity_check_regression,
    monotonicity_check_classification,
    lambda pair, beta: task_dependent_model(pair, beta, 2.0),
    lambda pair, beta: decision_cov(beta, np.ones(pair.d), pair),
], ids=["shift_parameters", "check_regression", "check_classification", "task_dependent_model", "decision_cov"])
def test_empty_beta_star_is_a_shape_error(entry):
    pair = subspace_shift_model(SubspacePairSpec(10, 6, 5, 3), 2.0, 5)
    with pytest.raises(InvalidDimensionError, match=r"must have shape \(10,\), got \(0,\)"):
        entry(pair, np.array([]))


def test_task_dependent_unreachable_ratio():
    pair = subspace_shift_model(SubspacePairSpec(60, 40, 30, 20), 2.0, 51)
    beta = _random_beta(60, 1.0, 52)
    with pytest.raises(NumericInputError, match="outside reachable band"):
        task_dependent_model(pair, beta, target_ratio=1e9)


def test_rotate_roundtrip():
    # the one way into the shared basis scales by 2^-p and rotates; rotating back and scaling by 2^p gives the input
    pair = subspace_shift_model(SubspacePairSpec(15, 9, 7, 5), 1.2, 61)
    x = np.random.default_rng(2).standard_normal(15)
    for scale in (1e-300, 1.0, 1e300):
        b, p = _basis_coordinates(pair, scale * x, "x")
        npt.assert_allclose(pair.eigenbasis.columns @ np.ldexp(b, p), scale * x, rtol=0, atol=1e-12 * scale)
