"""Tests for orthonormal bases, overlapping pairs, and principal angles."""

import math
import pickle
import re

import numpy as np
import numpy.testing as npt
import pytest

from riskshift.datagen import LinearGaussian, NoisySign, label, sample_beta, sample_covariates
from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.estimators import FittedModel, erm_fit, ridge_fit
from riskshift.inverse import (
    _OVERLAP_SLACK,
    InverseProblem,
    cs_risks,
    denoise_grid,
    gaussian_measurement,
    inner_product_preservation_stats,
    sketch_bases,
)
from riskshift.risk import DecisionCov, MetricKind, decision_cov, mc_metric_risk
from riskshift.shiftmodel import (
    CovariancePair,
    ShiftParameters,
    shift_parameters,
    subspace_shift_model,
    task_dependent_model,
)
from riskshift.subspace import (
    OrthonormalBasis,
    SubspacePairSpec,
    haar_basis,
    overlap_coefficient,
    overlapping_pair,
    subspace_similarity,
)
from riskshift.theory import (
    asymptotic_decision_cov,
    classification_relation,
    finite_dim_linearity,
    population_ridge_risks,
    regression_relation,
)

from oracles import principal_angles, projector


def test_haar_basis_is_orthonormal():
    rng = np.random.default_rng(1210)
    for _ in range(20):
        d = int(rng.integers(2, 40))
        k = int(rng.integers(1, d + 1))
        basis = haar_basis(d, k, rng)
        npt.assert_allclose(basis.columns.T @ basis.columns, np.eye(k), atol=1e-12)


def test_haar_basis_deterministic_per_seed():
    a = haar_basis(12, 5, 314)
    b = haar_basis(12, 5, 314)
    npt.assert_array_equal(a.columns, b.columns)
    c = haar_basis(12, 5, 315)
    assert np.max(np.abs(a.columns - c.columns)) > 1e-6


def test_haar_basis_rejects_bad_dims():
    with pytest.raises(InvalidDimensionError):
        haar_basis(3, 4, 0)
    with pytest.raises(InvalidDimensionError):
        haar_basis(0, 0, 0)


def test_orthonormal_basis_validates_columns():
    good = np.eye(4)[:, :2]
    OrthonormalBasis(good)
    with pytest.raises(InvalidDimensionError):
        OrthonormalBasis(2.0 * good)
    with pytest.raises(InvalidDimensionError):
        OrthonormalBasis(np.ones((2, 3)))


def test_orthonormal_basis_rejects_nan_columns():
    with pytest.raises(InvalidDimensionError):
        OrthonormalBasis(np.full((3, 2), np.nan))


def test_projector_and_project_agree():
    basis = haar_basis(9, 4, 11)
    x = np.random.default_rng(1).standard_normal(9)
    npt.assert_allclose(projector(basis) @ x, basis.project(x), atol=1e-12)
    npt.assert_allclose(basis.project(basis.project(x)), basis.project(x), atol=1e-12)


def test_pair_spec_validation():
    SubspacePairSpec(10, 4, 5, 2)
    with pytest.raises(InvalidDimensionError):
        SubspacePairSpec(10, 4, 5, 5)  # overlap exceeds d_p
    with pytest.raises(InvalidDimensionError):
        SubspacePairSpec(10, 11, 5, 2)
    with pytest.raises(InvalidDimensionError):
        SubspacePairSpec(10, 6, 6, 1)  # d_p + d_q - d_pq > d


def test_overlapping_pair_exact_overlap_count():
    rng = np.random.default_rng(7)
    for _ in range(15):
        d = int(rng.integers(4, 30))
        d_p = int(rng.integers(1, d + 1))
        d_q = int(rng.integers(1, d + 1))
        lo = max(0, d_p + d_q - d)
        d_pq = int(rng.integers(lo, min(d_p, d_q) + 1))
        u_p, u_q = overlapping_pair(SubspacePairSpec(d, d_p, d_q, d_pq), rng)
        angles = principal_angles(u_p, u_q)
        assert np.sum(angles < 1e-8) == d_pq
        assert angles.shape == (min(d_p, d_q),)
        assert np.all(np.diff(angles) >= -1e-12)
        assert not angles.flags.writeable


@pytest.mark.parametrize(
    "d,d_p,d_q,d_pq",
    [(17, 5, 4, 0), (17, 6, 5, 3), (17, 6, 4, 4), (12, 8, 6, 2)],
    ids=["disjoint", "partial", "nested", "spanning"],
)
def test_overlapping_pair_draws_the_full_rotation_block(d, d_p, d_q, d_pq):
    spec = SubspacePairSpec(d, d_p, d_q, d_pq)
    rng = np.random.default_rng(101)
    u_p, u_q = overlapping_pair(spec, rng)
    # a shared Generator advances by exactly d^2 normals, as for haar_basis(d, d, rng)
    full = np.random.default_rng(101)
    full.standard_normal((d, d))
    assert rng.bit_generator.state == full.bit_generator.state
    if d_p + d_q - d_pq < d:
        # drawing only the used columns would leave the stream elsewhere
        used = np.random.default_rng(101)
        used.standard_normal((d, d_p + d_q - d_pq))
        assert used.bit_generator.state != full.bit_generator.state
    # the pair is made of the matching columns of the full Haar rotation
    rot = haar_basis(d, d, 101).columns
    npt.assert_allclose(u_p.columns, rot[:, :d_p], rtol=0, atol=1e-14)
    npt.assert_allclose(u_q.columns, rot[:, spec.q_coords], rtol=0, atol=1e-14)


def test_overlap_coefficient_matches_construction():
    # the Fig. 2 geometry: a = d_pq / d_q
    u_p, u_q = overlapping_pair(SubspacePairSpec(800, 720, 640, 560), 3)
    assert overlap_coefficient(u_p, u_q) == pytest.approx(560 / 640, abs=1e-9)

    # half overlap gives a = 0.5
    u_p, u_q = overlapping_pair(SubspacePairSpec(40, 20, 10, 5), 4)
    assert overlap_coefficient(u_p, u_q) == pytest.approx(0.5, abs=1e-9)


def test_similarity_overlap_identity():
    rng = np.random.default_rng(21)
    u_p, u_q = overlapping_pair(SubspacePairSpec(30, 12, 9, 4), rng)
    k = len(principal_angles(u_p, u_q))
    lhs = subspace_similarity(u_p, u_q) ** 2 * k
    rhs = overlap_coefficient(u_p, u_q) * 9
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_principal_angles_symmetric_in_arguments():
    rng = np.random.default_rng(5)
    u_p = haar_basis(25, 7, rng)
    u_q = haar_basis(25, 4, rng)
    cos_a = np.cos(principal_angles(u_p, u_q))
    cos_b = np.cos(principal_angles(u_q, u_p))
    nonzero_a = np.sort(cos_a[cos_a > 1e-9])
    nonzero_b = np.sort(cos_b[cos_b > 1e-9])
    npt.assert_allclose(nonzero_a, nonzero_b, atol=1e-9)


def test_identical_subspaces_similarity_one():
    basis = haar_basis(15, 6, 2)
    npt.assert_allclose(principal_angles(basis, basis), 0.0, atol=1e-7)
    assert subspace_similarity(basis, basis) == pytest.approx(1.0, abs=1e-9)


def test_disjoint_subspaces_similarity_zero():
    u_p = OrthonormalBasis(np.eye(10)[:, :4])
    u_q = OrthonormalBasis(np.eye(10)[:, 4:8])
    assert subspace_similarity(u_p, u_q) == pytest.approx(0.0, abs=1e-12)
    assert overlap_coefficient(u_p, u_q) == pytest.approx(0.0, abs=1e-12)


def test_mismatched_ambient_dimensions_rejected():
    u_p = haar_basis(10, 3, 0)
    u_q = haar_basis(12, 3, 1)
    for fn in (principal_angles, overlap_coefficient, subspace_similarity):
        with pytest.raises(InvalidDimensionError):
            fn(u_p, u_q)


def _refusal_cases():
    """{id: (call, good, axis)}: call passes its one array argument to a public entry, good is accepted, and
    axis is the one whose length the other arguments pin (None if no length is pinned)."""
    pair = subspace_shift_model(SubspacePairSpec(6, 4, 3, 2), 2.0, 0)
    beta = np.linspace(-1.0, 1.0, 6)
    x = sample_covariates(pair, 8, 1)
    y = label(x, beta, LinearGaussian(0.0), 2)
    signs = label(x, beta, NoisySign(1.0), 2)
    u_p, u_q = overlapping_pair(SubspacePairSpec(6, 3, 2, 1), 3)
    problem = InverseProblem(u_p, u_q, 0.1, 0.1, 0.1)
    a_matrix = gaussian_measurement(8, 6, 4)
    sketch = sketch_bases(a_matrix, problem)
    sigma_q = np.eye(6)
    return {
        "label-x": (lambda v: label(v, beta, LinearGaussian(0.0), 0), x, 1),
        "label-beta_star": (lambda v: label(x, v, LinearGaussian(0.0), 0), beta, 0),
        "ridge_fit-x": (lambda v: ridge_fit(v, y, [1.0]), x, 0),
        "ridge_fit-y": (lambda v: ridge_fit(x, v, [1.0]), y, 0),
        "erm_fit-x": (lambda v: erm_fit(v, signs, [1.0]), x, 0),
        "erm_fit-y": (lambda v: erm_fit(x, v, [1.0]), signs, 0),
        "FittedModel": (lambda v: FittedModel(v, 1, True), beta, None),
        "sketch_bases": (lambda v: sketch_bases(v, problem), a_matrix, 1),
        "cs_risks": (lambda v: cs_risks(v, problem), sketch, 1),
        "inner_product_preservation_stats": (lambda v: inner_product_preservation_stats(v, problem), sketch, 1),
        "decision_cov-beta_star": (lambda v: decision_cov(v, beta, pair), beta, 0),
        "decision_cov-beta_hat": (lambda v: decision_cov(beta, v, pair), beta, 0),
        "shift_parameters": (lambda v: shift_parameters(pair, v, 1.0), beta, 0),
        "CovariancePair-eigvals_p": (lambda v: CovariancePair(pair.eigenbasis, v, pair.eigvals_q), pair.eigvals_p, 0),
        "CovariancePair-eigvals_q": (lambda v: CovariancePair(pair.eigenbasis, pair.eigvals_p, v), pair.eigvals_q, 0),
        "OrthonormalBasis.project": (u_p.project, beta, 0),
        "finite_dim_linearity-beta_star": (lambda v: finite_dim_linearity(v, u_p, sigma_q, 0.1, 0.1), beta, 0),
        "finite_dim_linearity-sigma_q": (lambda v: finite_dim_linearity(beta, u_p, v, 0.1, 0.1), sigma_q, 1),
        "population_ridge_risks-beta_star": (
            lambda v: population_ridge_risks(v, u_p, sigma_q, 0.1, 0.1, 1.0), beta, 0),
        "population_ridge_risks-sigma_q": (lambda v: population_ridge_risks(beta, u_p, v, 0.1, 0.1, 1.0), sigma_q, 1),
    }


_REFUSAL_CASES = _refusal_cases()


def _with_entry(good, value):
    bad = np.array(good, dtype=np.float64)
    bad.flat[-1] = value
    return bad


# each fault: (bad array from (good, axis), the class that refuses it)
_FAULTS = {
    "ndim": (lambda good, axis: good[None], InvalidDimensionError),
    "length": (lambda good, axis: np.delete(good, -1, axis), InvalidDimensionError),
    "empty": (lambda good, axis: good[:0], InvalidDimensionError),
    "nan": (lambda good, axis: _with_entry(good, np.nan), NumericInputError),
    "inf": (lambda good, axis: _with_entry(good, -np.inf), NumericInputError),
}


@pytest.mark.parametrize("case, fault", [
    pytest.param(case, fault, id=f"{case}-{fault}")
    for case, (_, _, axis) in _REFUSAL_CASES.items()
    for fault in _FAULTS
    if fault != "length" or axis is not None
])
def test_every_array_argument_is_refused_by_class(case, fault):
    call, good, axis = _REFUSAL_CASES[case]
    make_bad, error = _FAULTS[fault]
    call(good)
    with pytest.raises(error):
        call(make_bad(good, axis))


_PAIR = subspace_shift_model(SubspacePairSpec(6, 4, 3, 2), 2.0, 0)
# each count argument: (call on the count, a count it accepts, the class that refuses a non-integer)
_COUNT_CASES = {
    "SubspacePairSpec": (lambda n: SubspacePairSpec(n, 3, 2, 1), 6, InvalidDimensionError),
    "haar_basis": (lambda n: haar_basis(n, 2, 0), 4, InvalidDimensionError),
    "gaussian_measurement": (lambda n: gaussian_measurement(n, 5, 0), 3, InvalidDimensionError),
    "sample_beta": (lambda n: sample_beta(n, 1.0, 0), 4, InvalidDimensionError),
    "sample_covariates": (lambda n: sample_covariates(_PAIR, n, 0), 3, InvalidDimensionError),
    "mc_metric_risk": (
        lambda n: mc_metric_risk(DecisionCov(1.0, 0.5, 0.5), MetricKind.SQUARED_ERROR, n, 0), 1000, NumericInputError),
}


@pytest.mark.parametrize("case", _COUNT_CASES)
def test_every_count_argument_refuses_a_non_integer(case):
    # a float count was truncated (2.7 rows gave 2) or failed with a bare TypeError
    call, count, error = _COUNT_CASES[case]
    call(np.int64(count))
    for bad in (float(count), count + 0.7, True):
        with pytest.raises(error, match=re.escape(f"must be an integer, got {bad!r}")):
            call(bad)


_POSITIVE, _NONNEGATIVE = ((">", 0),), ((">=", 0),)


def _real_cases():
    """{id: (call on one real argument of a public entry, the argument's name, its (comparison, limit) bounds, a
    value in range that float32 holds exactly)}."""
    spec = SubspacePairSpec(6, 4, 3, 2)
    pair = subspace_shift_model(spec, 2.0, 0)
    beta = np.linspace(-1.0, 1.0, 6)
    u_p, u_q = overlapping_pair(SubspacePairSpec(6, 3, 2, 1), 3)
    sigma_q = np.eye(6)
    fields = dict(gamma=1.0, mu=1.5, kappa=2.0, r_p=0.5, sigma_beta_sq=1.0)
    shift = ShiftParameters(**fields)
    weights = dict(sigma_p_sq=0.1, sigma_q_sq=0.2, lam=0.3)
    cases = {
        "LinearGaussian-sigma": (LinearGaussian, "sigma", _NONNEGATIVE, 0.5),
        "NoisySign-p": (NoisySign, "p", ((">", 0.5), ("<=", 1)), 0.75),
        "sample_beta-sigma_beta_sq": (lambda v: sample_beta(4, v, 0), "sigma_beta_sq", _POSITIVE, 2.0),
        "subspace_shift_model-tau": (lambda v: subspace_shift_model(spec, v, 0), "tau", _POSITIVE, 2.0),
        # beta* at 2^-530 keeps gamma finite down to the least positive sigma_beta_sq
        "shift_parameters-sigma_beta_sq": (
            lambda v: shift_parameters(pair, np.ldexp(beta, -530), v), "sigma_beta_sq", _POSITIVE, 2.0),
        "task_dependent_model-target_ratio": (
            lambda v: task_dependent_model(pair, beta, v), "target_ratio", _POSITIVE, 1.5),
        "asymptotic_decision_cov-a": (lambda v: asymptotic_decision_cov(v, 1.0, 1.0, shift), "a", (), -2.0),
        "asymptotic_decision_cov-b": (lambda v: asymptotic_decision_cov(0.5, v, 1.0, shift), "b", _POSITIVE, 0.5),
        "asymptotic_decision_cov-c": (lambda v: asymptotic_decision_cov(0.5, 1.0, v, shift), "c", _POSITIVE, 3.0),
        "regression_relation-risk_p": (
            lambda v: regression_relation(v, ShiftParameters(**{**fields, "kappa": 1.0})), "risk_p", _NONNEGATIVE,
            0.25),
        "classification_relation-risk_p": (
            lambda v: classification_relation(v, shift), "risk_p", ((">=", 0), ("<=", 1)), 0.25),
        "population_ridge_risks-lam": (
            lambda v: population_ridge_risks(beta, u_p, sigma_q, 0.1, 0.1, v), "lam", _NONNEGATIVE, 0.5),
        "DecisionCov-l11": (lambda v: DecisionCov(v, 0.0, 1.0), "l11", _NONNEGATIVE, 0.5),
        "DecisionCov-l21": (lambda v: DecisionCov(1.0, v, 1.0), "l21", (), -0.5),
        "DecisionCov-l22": (lambda v: DecisionCov(1.0, 0.5, v), "l22", _NONNEGATIVE, 0.5),
        "denoise_grid-a": (
            lambda v: denoise_grid(v, 3, 2, 0.1, 0.1, 0.1), "a", ((">=", 0), ("<=", 1.0 + _OVERLAP_SLACK)), 0.5),
    }
    for name, bounds in [("gamma", _POSITIVE), ("mu", ((">=", 1.0 - 1e-9),)), ("kappa", _POSITIVE),
                         ("r_p", ((">", 0), ("<=", 1))), ("sigma_beta_sq", _POSITIVE)]:
        cases[f"ShiftParameters-{name}"] = (
            lambda v, name=name: ShiftParameters(**{**fields, name: v}), name, bounds, 1.25 if name == "mu" else 0.5)
    for name in ("sigma_p_sq", "sigma_q_sq"):
        noise = lambda v, name=name: {"sigma_p_sq": 0.1, "sigma_q_sq": 0.1, name: v}
        cases[f"finite_dim_linearity-{name}"] = (
            lambda v, noise=noise: finite_dim_linearity(beta, u_p, sigma_q, **noise(v)), name, _NONNEGATIVE, 0.5)
        cases[f"population_ridge_risks-{name}"] = (
            lambda v, noise=noise: population_ridge_risks(beta, u_p, sigma_q, **noise(v), lam=1.0), name, _NONNEGATIVE,
            0.5)
    for name in weights:
        cases[f"InverseProblem-{name}"] = (
            lambda v, name=name: InverseProblem(u_p, u_q, **{**weights, name: v}), name, _NONNEGATIVE, 0.5)
    return cases


_REAL_CASES = _real_cases()


def _past_and_inside(comparison, limit):
    """(values just past the bound, the value just inside it), as floats."""
    limit = float(limit)
    below, above = math.nextafter(limit, -math.inf), math.nextafter(limit, math.inf)
    return {">": ([limit, below], above), ">=": ([below], limit), "<=": ([above], limit)}[comparison]


@pytest.mark.parametrize("case", _REAL_CASES)
def test_every_real_argument_is_refused_by_one_message_form(case):
    # True was accepted as 1 and a string, None or an array escaped as a bare TypeError; each message was its own
    call, name, bounds, _ = _REAL_CASES[case]
    not_real = [True, np.bool_(False), "1", None, np.array([1.0, 2.0]), np.array(0.5)]
    # an int past the float range is the infinity of its sign
    not_finite = [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (10**400, "inf"), (-(10**400), "-inf")]
    for bad, message in [(v, f"must be a real number, got {v!r}") for v in not_real] + [
            (v, f"must be finite, got {shown}") for v, shown in not_finite]:
        with pytest.raises(NumericInputError, match=f"^{re.escape(f'{name} {message}')}$"):
            call(bad)
    for comparison, limit in bounds:
        past, inside = _past_and_inside(comparison, limit)
        for bad in past:
            message = f"{name} must be {comparison} {limit}, got {bad}"
            with pytest.raises(NumericInputError, match=f"^{re.escape(message)}$"):
                call(bad)
        # a later check of the result may refuse the edge (task_dependent_model's reachable band), this one does not
        try:
            call(inside)
        except NumericInputError as exc:
            assert not str(exc).startswith(f"{name} must be"), exc


@pytest.mark.parametrize("case", _REAL_CASES)
def test_numpy_scalars_in_range_give_the_float_result_bit_for_bit(case):
    call, _, _, good = _REAL_CASES[case]
    for scalar, plain in [(np.float32(good), good), (np.int64(1), 1.0), (1, 1.0)]:
        assert pickle.dumps(call(scalar)) == pickle.dumps(call(plain)), scalar
