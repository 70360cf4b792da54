"""Tests for closed-form train/test risk relations and monotonicity checks."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.harness.selftest import _block_normalized_beta
from riskshift.risk import _std_normal_cdf, misclassification_risk, squared_risk
from riskshift.shiftmodel import (
    CovariancePair,
    ShiftParameters,
    shift_parameters,
    subspace_shift_model,
    task_dependent_model,
)
from riskshift.subspace import OrthonormalBasis, SubspacePairSpec, haar_basis
from riskshift.theory import (
    asymptotic_decision_cov,
    classification_relation,
    finite_dim_linearity,
    monotonicity_check_classification,
    monotonicity_check_regression,
    population_ridge_risks,
    probit_arctan_gap,
    regression_relation,
)

from oracles import (
    classification_relation_inverse,
    resolvent_classification_verdict,
    resolvent_regression_verdict,
)


def _subspace_setup(seed=3, tau=2.0):
    spec = SubspacePairSpec(d=200, d_p=120, d_q=100, d_pq=80)
    pair = subspace_shift_model(spec, tau=tau, seed=seed)
    beta = _block_normalized_beta(pair, seed + 1)
    return pair, beta


def test_asymptotic_decision_cov_validates_parameters():
    shift = ShiftParameters(gamma=1.0, mu=1.0, kappa=1.0, r_p=0.5, sigma_beta_sq=1.0)
    asymptotic_decision_cov(-2.0, 0.5, 3.0, shift)
    with pytest.raises(NumericInputError, match="b and c must be positive"):
        asymptotic_decision_cov(1.0, 0.0, 1.0, shift)
    with pytest.raises(NumericInputError, match="b and c must be positive"):
        asymptotic_decision_cov(1.0, 1.0, -1.0, shift)
    with pytest.raises(NumericInputError, match="asymptotic parameters must be finite"):
        asymptotic_decision_cov(math.nan, 1.0, 1.0, shift)
    with pytest.raises(NumericInputError, match="asymptotic parameters must be finite"):
        asymptotic_decision_cov(1.0, math.inf, 1.0, shift)


def test_asymptotic_decision_cov_hand_values():
    # r_p = 0.9, unit signal, mu = 1.2, no spectral reweighting on the support
    shift = ShiftParameters(gamma=1.0, mu=1.2, kappa=1.0, r_p=0.9, sigma_beta_sq=1.0)
    cov_p, cov_q = asymptotic_decision_cov(1.0, 1.0, 1.0, shift)
    for cov, moments in ((cov_p, [0.9, 0.45, 0.45]), (cov_q, [1.08, 0.45, 0.45])):
        # (omega*, chi, v) from the factor
        npt.assert_allclose([cov.l11**2, cov.l11 * cov.l21, cov.l21**2 + cov.l22**2], moments, rtol=1e-14)
    assert misclassification_risk(cov_p) == pytest.approx(0.25, abs=1e-13)
    risk_q = misclassification_risk(cov_q)
    assert risk_q == pytest.approx(0.2766501895190568, abs=1e-13)
    # the closed-form relation reproduces the same test risk
    assert classification_relation(0.25, shift) == pytest.approx(risk_q, abs=1e-13)


def test_asymptotic_decision_cov_no_shift_collapses():
    shift = ShiftParameters(gamma=1.0, mu=1.0, kappa=1.0, r_p=0.7, sigma_beta_sq=2.0)
    cov_p, cov_q = asymptotic_decision_cov(0.8, 0.3, 1.7, shift)
    assert cov_p == cov_q


def test_asymptotic_decision_cov_rejects_bad_types():
    with pytest.raises(NumericInputError, match="shift must be a ShiftParameters"):
        asymptotic_decision_cov(1.0, 1.0, 1.0, (1.0, 1.0, 1.0, 0.5, 1.0))


def test_regression_relation_values_and_affinity():
    shift = ShiftParameters(gamma=14.0 / 9.0, mu=8.0 / 7.0, kappa=14.0 / 9.0, r_p=0.9, sigma_beta_sq=1.0)
    assert regression_relation(0.2, shift) == pytest.approx(23.0 / 45.0, rel=1e-12)
    # intercept alone at zero train risk
    intercept = shift.gamma * shift.r_p * shift.sigma_beta_sq * (shift.mu - 1.0)
    assert regression_relation(0.0, shift) == pytest.approx(intercept, rel=1e-12)
    # identity when there is no shift at all
    none = ShiftParameters(gamma=1.0, mu=1.0, kappa=1.0, r_p=0.9, sigma_beta_sq=1.0)
    for r in (0.0, 0.3, 2.5):
        assert regression_relation(r, none) == pytest.approx(r, abs=1e-15)
    # affine: vanishing second differences on a grid
    grid = np.linspace(0.0, 3.0, 11)
    vals = np.array([regression_relation(r, shift) for r in grid])
    npt.assert_allclose(np.diff(vals, n=2), 0.0, atol=1e-12)


def test_regression_relation_requires_matching_curvature():
    shift = ShiftParameters(gamma=1.0, mu=1.2, kappa=1.5, r_p=0.9, sigma_beta_sq=1.0)
    with pytest.raises(NumericInputError, match="needs gamma = kappa"):
        regression_relation(0.2, shift)
    # a relative gap within 1e-6 is accepted
    near = dataclasses.replace(shift, kappa=shift.gamma * (1.0 + 5e-7))
    regression_relation(0.2, near)
    with pytest.raises(NumericInputError, match="squared risk must be finite and >= 0"):
        regression_relation(-0.1, dataclasses.replace(shift, kappa=shift.gamma))


def test_mu_within_its_slack_below_one_is_stored_as_one():
    # one rule for mu - 1: the relations and the asymptotic factors all read the stored mu = 1,
    # so no squared risk comes out negative and l22 sees the same mu as l11 and l21
    near = ShiftParameters(gamma=1.0, mu=1.0 - 5e-10, kappa=1.0, r_p=1.0, sigma_beta_sq=1.0)
    one = dataclasses.replace(near, mu=1.0)
    assert near.mu == 1.0
    assert regression_relation(0.0, near) == 0.0
    assert classification_relation(0.2, near) == classification_relation(0.2, one)
    assert asymptotic_decision_cov(0.7, 1.0, 1.0, near) == asymptotic_decision_cov(0.7, 1.0, 1.0, one)
    with pytest.raises(NumericInputError, match="mu must be >= 1"):
        dataclasses.replace(near, mu=1.0 - 2e-9)


def test_classification_relation_identity_and_limits():
    none = ShiftParameters(gamma=1.0, mu=1.0, kappa=1.0, r_p=0.9, sigma_beta_sq=1.0)
    for r in (0.01, 0.25, 0.49):
        assert classification_relation(r, none) == pytest.approx(r, abs=1e-12)
    # vanishing train risk leaves the irreducible arccos(1/sqrt(mu)) / pi floor
    lifted = ShiftParameters(gamma=1.3, mu=1.2, kappa=1.3, r_p=0.9, sigma_beta_sq=1.0)
    floor = 0.13386023640061498
    assert classification_relation(1e-9, lifted) == pytest.approx(floor, abs=1e-6)
    assert classification_relation(1e-12, lifted) == pytest.approx(floor, abs=1e-6)


def test_classification_relation_log_tan_route_agrees():
    # with mu = 1 the map adds 1 to log tan(pi r); at r = 1/4 that gives atan(e) / pi
    shift = ShiftParameters(gamma=1.0, mu=1.0, kappa=math.e**2, r_p=0.9, sigma_beta_sq=1.0)
    via_sec = classification_relation(0.25, shift)
    via_log_tan = math.atan(math.exp(math.log(math.tan(math.pi * 0.25)) + 1.0)) / math.pi
    assert via_sec == pytest.approx(via_log_tan, abs=1e-12)
    assert via_sec == pytest.approx(0.3877914928357075, abs=1e-12)


def test_classification_relation_monotone_and_invertible():
    shift = ShiftParameters(gamma=1.4, mu=1.1, kappa=2.0, r_p=0.8, sigma_beta_sq=1.0)
    grid = np.linspace(0.01, 0.49, 97)
    vals = np.array([classification_relation(r, shift) for r in grid])
    assert np.all(np.diff(vals) > 0)
    assert np.all((vals > 0) & (vals < 0.5))
    for r, v in zip(grid, vals):
        assert classification_relation_inverse(v, shift) == pytest.approx(r, abs=1e-10)


@st.composite
def shift_descriptors(draw):
    """Shifts with gamma, kappa in [0.2, 5] and mu in [1, 3]."""
    slopes = st.floats(0.2, 5.0)
    return ShiftParameters(
        gamma=draw(slopes), mu=draw(st.floats(1.0, 3.0)), kappa=draw(slopes), r_p=0.9,
        sigma_beta_sq=1.0,
    )


# Below r = 1e-3 the inverse loses digits to sec^2(pi r) - 1 ~ (pi r)^2, so
# its error grows like 1/r (6e-12 measured at r = 1e-4).  The round trip is
# held to 1e-12 above that; the last 1e-9 below 1/2 has its own test.
_TRAIN_RISKS = st.floats(1e-3, 0.5 - 1e-9)


@settings(max_examples=300, deadline=None, database=None)
@given(_TRAIN_RISKS, _TRAIN_RISKS, shift_descriptors())
def test_classification_relation_inverse_round_trip_and_increasing(r1, r2, shift):
    for r in (r1, r2):
        risk_q = classification_relation(r, shift)
        assert abs(classification_relation_inverse(risk_q, shift) - r) <= 1e-12
    lo, hi = sorted((r1, r2))
    assume(hi - lo > 1e-9)
    assert classification_relation(lo, shift) < classification_relation(hi, shift)


@settings(max_examples=300, deadline=None, database=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), shift_descriptors())
@example(0.49999999999999994, 0.5, ShiftParameters(gamma=0.5, mu=1.0, kappa=2.0, r_p=0.9, sigma_beta_sq=1.0))
@example(0.5, 0.5000000000000001, ShiftParameters(gamma=0.5, mu=1.0, kappa=2.0, r_p=0.9, sigma_beta_sq=1.0))
@example(0.0, 1.0, ShiftParameters(gamma=1.0, mu=3.0, kappa=1.0, r_p=0.9, sigma_beta_sq=1.0))
def test_classification_relation_extends_to_the_unit_interval(r1, r2, shift):
    # flipping the estimate's sign maps a risk r to 1 - r on both laws
    lo, hi = sorted((r1, r2))
    assert classification_relation(lo, shift) <= classification_relation(hi, shift)
    for r in (r1, r2):
        risk_q = classification_relation(r, shift)
        assert 0.0 <= risk_q <= 1.0
        if r > 0.5:
            assert risk_q == 1.0 - classification_relation(1.0 - r, shift)
    assert classification_relation(0.5, shift) == 0.5


@settings(max_examples=300, deadline=None, database=None)
@given(st.floats(0.5 - 1e-9, 0.5, exclude_max=True), shift_descriptors())
@example(0.49999999999999994, ShiftParameters(gamma=0.5, mu=1.0, kappa=2.0, r_p=0.9, sigma_beta_sq=1.0))
def test_classification_relation_stays_below_half(r, shift):
    # sec^2(pi r) is huge here; the test risk must not round to 1/2 itself
    risk_q = classification_relation(r, shift)
    assert 0.0 < risk_q < 0.5
    back = classification_relation_inverse(risk_q, shift)
    assert 0.0 < back < 0.5
    assert abs(back - r) <= 1e-12


def test_classification_relation_domain_errors():
    shift = ShiftParameters(gamma=1.0, mu=1.1, kappa=1.0, r_p=0.9, sigma_beta_sq=1.0)
    for bad in (-0.2, -5e-324, math.nextafter(1.0, 2.0), math.nan, math.inf, -math.inf):
        with pytest.raises(NumericInputError, match=r"risk must lie in \[0, 1\]"):
            classification_relation(bad, shift)
    # the relation's inverse is the oracle's, on (0, 1/2) only
    for bad in (0.0, 0.5, -0.2, 0.7, math.nan):
        with pytest.raises(NumericInputError, match=r"risk must lie in \(0, 1/2\)"):
            classification_relation_inverse(bad, shift)
    # a risk below the lifted floor has no preimage in (0, 1/2)
    with pytest.raises(NumericInputError, match="below 1; no risk"):
        classification_relation_inverse(0.05, shift)


def test_relation_identities_of_asymptotic_family():
    # both closed-form relations are algebraic identities of the (a, b, c) covariances
    rng = np.random.default_rng(11)
    for i in range(50):
        # a negative alignment puts the train risk above 1/2, where the relation
        # is extended by the sign flip r -> 1 - r
        a = float(rng.uniform(0.05, 2.0)) * (-1.0) ** i
        b = float(rng.uniform(0.05, 4.0))
        c = float(rng.uniform(0.05, 4.0))
        shift = ShiftParameters(
            gamma=float(rng.uniform(0.2, 3.0)),
            mu=float(rng.uniform(1.0, 2.5)),
            kappa=float(rng.uniform(0.2, 3.0)),
            r_p=float(rng.uniform(0.1, 1.0)),
            sigma_beta_sq=float(rng.uniform(0.5, 2.0)),
        )
        cov_p, cov_q = asymptotic_decision_cov(a, b, c, shift)
        risk_p = misclassification_risk(cov_p)
        assert classification_relation(risk_p, shift) == pytest.approx(
            misclassification_risk(cov_q), abs=1e-10
        )
        eq = dataclasses.replace(shift, kappa=shift.gamma)
        cov_p, cov_q = asymptotic_decision_cov(a, b, c, eq)
        assert regression_relation(squared_risk(cov_p), eq) == pytest.approx(
            squared_risk(cov_q), abs=1e-10
        )


@pytest.mark.parametrize("mu", [1.0 - 5e-10, 1.0, 1.3])
def test_classification_identity_is_relative_exact_at_small_train_risks(mu):
    # criterion 10's identity on asymptotic factors, relative to the test risk, where
    # the train risk is tiny: a sec^2 - 1 route loses 6e-7 of it at risk_p = 1e-6
    shift = ShiftParameters(gamma=1.0, mu=mu, kappa=5.0, r_p=0.6, sigma_beta_sq=1.5)
    b, c = 0.7, 1.3
    base = shift.r_p * shift.sigma_beta_sq
    for target in (1e-6, 1e-5, 1e-4, 1.3e-3, 0.02, 0.3):
        # tan(pi risk_p) = l22 / l21 = sqrt(c r_p) / (a sqrt(base))
        a = math.sqrt(c * shift.r_p / base) / math.tan(math.pi * target)
        cov_p, cov_q = asymptotic_decision_cov(a, b, c, shift)
        risk_p = misclassification_risk(cov_p)
        assert risk_p == pytest.approx(target, rel=1e-12)
        risk_q = misclassification_risk(cov_q)
        assert abs(classification_relation(risk_p, shift) - risk_q) <= 1e-12 * risk_q


@st.composite
def checked_pairs(draw):
    """(pair, beta*) on d <= 30: a subspace pair, random binary Sigma_P with Sigma_Q >= 0, or a task-dependent pair."""
    kind = draw(st.sampled_from(["subspace", "binary", "task-dependent"]))
    d = draw(st.integers(2, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "binary":
        e_p = (rng.uniform(size=d) < draw(st.floats(0.0, 1.0))).astype(np.float64)
        # some zero Sigma_Q eigenvalues, or Sigma_Q = Sigma_P
        e_q = rng.uniform(0.0, 3.0, size=d) * (rng.uniform(size=d) < 0.7)
        pair = CovariancePair(haar_basis(d, d, seed), e_p, e_p.copy() if draw(st.booleans()) else e_q)
    else:
        d_p = draw(st.integers(1, d))
        d_q = draw(st.integers(1, d))
        d_pq = draw(st.integers(max(0, d_p + d_q - d), min(d_p, d_q)))
        pair = subspace_shift_model(SubspacePairSpec(d, d_p, d_q, d_pq), draw(st.floats(0.1, 10.0)), seed)
    # block-normalized beta* makes the regression relation hold on a subspace pair
    beta = _block_normalized_beta(pair, seed + 1) if draw(st.booleans()) else rng.standard_normal(d)
    if kind == "task-dependent":
        try:
            pair = task_dependent_model(pair, beta, target_ratio=draw(st.floats(0.5, 5.0)))
        except NumericInputError:
            assume(False)
    # the checks do not see beta*'s scale
    return pair, beta * 10.0 ** draw(st.floats(-3.0, 3.0))


def _gap(got, want):
    return 0.0 if got == want else abs(got - want)


@settings(max_examples=300, deadline=None, database=None)
@given(checked_pairs())
def test_monotonicity_checks_match_the_resolvent_functionals_at_16_shifts(case):
    # the closed form reads four support energies; the reference evaluates the
    # functionals for any eigenvalues at 16 shifts b in [1e-3, 1e3]
    pair, beta = case
    checks = (
        # max_deviation is |kappa - rho| / rho, and both routes round kappa - rho
        (monotonicity_check_regression, resolvent_regression_verdict, lambda v: max(1.0, v.max_deviation)),
        # the reference rounds composites of size rho / mu that the closed form reads as constants
        (monotonicity_check_classification, resolvent_classification_verdict, lambda v: max(1.0, v.rho / (v.rho + v.u0))),
    )
    for check, reference, deviation_scale in checks:
        try:
            want = reference(pair.eigvals_p, pair.eigvals_q, pair.eigenbasis.columns.T @ beta)
        except NumericInputError:
            # the reference refuses e_S = 0 and, for the composites, e_QS = 0
            with pytest.raises(NumericInputError, match="no (Sigma_Q )?energy on the Sigma_P support"):
                check(pair, beta)
            continue
        got = check(pair, beta)
        assert got.holds == want.holds
        assert _gap(got.rho, want.rho) <= 1e-12 * want.rho
        # u0 = mu - rho cancels to rounding where kappa = gamma: relative to the larger term
        assert _gap(got.u0, want.u0) <= 1e-12 * max(want.rho, want.rho + want.u0)
        assert _gap(got.max_deviation, want.max_deviation) <= 1e-12 * deviation_scale(want)


def test_monotonicity_verdicts_do_not_depend_on_beta_star_scale():
    # both verdicts are ratios of beta*'s energies, which are summed in units of a power of two
    pair = subspace_shift_model(SubspacePairSpec(20, 12, 10, 6), 2.0, 5)
    plain = CovariancePair(OrthonormalBasis(np.eye(4)), np.array([1.0, 1.0, 1.0, 0.0]), np.array([2.0, 2.0, 0.0, 1.0]))
    # squares of 1e-170 underflow and of 1e200 overflow; squares of 1e154 are finite, their sum is not
    cases = ((pair, np.random.default_rng(5).standard_normal(20), (1e-170, 1e-160, 1e200)), (plain, np.ones(4), (1e154, 1e300)))
    with np.errstate(over="raise", invalid="raise"):
        for built, beta, scales in cases:
            mu = shift_parameters(built, beta, 1.0).mu
            for check in (monotonicity_check_regression, monotonicity_check_classification):
                ref = check(built, beta)
                for scale in scales:
                    got = check(built, scale * beta)
                    assert got.holds == ref.holds
                    assert abs(got.rho - ref.rho) <= 1e-15 * ref.rho
                    assert abs(got.u0 - ref.u0) <= 1e-15 * max(ref.rho, mu)
                    assert abs(got.max_deviation - ref.max_deviation) <= 1e-15 * max(1.0, ref.max_deviation)
                with pytest.raises(NumericInputError, match="beta_star must be finite"):
                    check(built, np.full(len(beta), np.nan))
    # no scale of beta* brings sums over Sigma_Q's own eigenvalues back into range
    huge = CovariancePair(OrthonormalBasis(np.eye(2)), np.ones(2), np.full(2, 1e308))
    for check in (monotonicity_check_regression, monotonicity_check_classification):
        with pytest.raises(NumericInputError, match="past the float range at any scale of beta"):
            check(huge, np.ones(2))


def test_monotonicity_regression_subspace_model_holds():
    pair, beta = _subspace_setup(seed=13)
    shift = shift_parameters(pair, beta, 1.0)
    verdict = monotonicity_check_regression(pair, beta)
    assert verdict.holds
    assert verdict.rho == pytest.approx(shift.gamma, rel=1e-12)
    assert verdict.max_deviation <= 1e-8


def test_monotonicity_regression_task_dependent_fails():
    pair, beta = _subspace_setup(seed=17)
    built = task_dependent_model(pair, beta, target_ratio=5.0)
    verdict = monotonicity_check_regression(pair, beta)
    assert verdict.holds
    verdict_td = monotonicity_check_regression(built, beta)
    assert not verdict_td.holds
    # Theta ratio is kappa while Gamma ratio is gamma: deviation near ratio - 1
    assert verdict_td.max_deviation == pytest.approx(4.0, abs=0.05)
    # block-normalized beta* carries energy d_p on the support, so rho is the plug-in gamma
    td_shift = shift_parameters(built, beta, 1.0)
    assert verdict_td.rho == pytest.approx(td_shift.gamma, rel=1e-12)
    assert verdict_td.max_deviation == pytest.approx(abs(td_shift.kappa - td_shift.gamma) / td_shift.gamma, rel=1e-12)


def test_monotonicity_regression_no_shift_and_errors():
    rng = np.random.default_rng(19)
    d = 30
    v = haar_basis(d, d, seed=4)
    e_p = np.ones(d)
    pair = CovariancePair(v, e_p, e_p.copy())
    beta = rng.standard_normal(d)
    verdict = monotonicity_check_regression(pair, beta)
    assert verdict.holds and verdict.rho == pytest.approx(1.0, rel=1e-14)
    # beta confined to the complement of the support has no Gamma_P energy
    off = CovariancePair(OrthonormalBasis(np.eye(4)), np.array([1.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(NumericInputError, match="no energy on the Sigma_P support"):
        monotonicity_check_regression(off, np.array([0.0, 0.0, 1.0, 1.0]))
    # Sigma_Q vanishes on the support: rho = 0 holds for no kappa, and the composites have no Q scale
    verdict = monotonicity_check_regression(off, np.ones(4))
    assert not verdict.holds
    assert verdict.rho == 0.0 and verdict.max_deviation == math.inf
    with pytest.raises(NumericInputError, match="no Sigma_Q energy on the Sigma_P support"):
        monotonicity_check_classification(off, np.ones(4))


def test_monotonicity_classification_subspace_and_task_dependent():
    pair, beta = _subspace_setup(seed=23)
    shift = shift_parameters(pair, beta, 1.0)
    verdict = monotonicity_check_classification(pair, beta)
    assert verdict.holds
    assert verdict.rho == pytest.approx(shift.mu * shift.kappa / shift.gamma, abs=1e-6)
    assert verdict.u0 == pytest.approx(shift.mu * (1.0 - shift.kappa / shift.gamma), abs=1e-6)
    # classification tolerates task-dependent reweighting of the support
    built = task_dependent_model(pair, beta, target_ratio=5.0)
    td_shift = shift_parameters(built, beta, 1.0)
    verdict_td = monotonicity_check_classification(built, beta)
    assert verdict_td.holds
    assert verdict_td.rho == pytest.approx(
        td_shift.mu * td_shift.kappa / td_shift.gamma, rel=1e-6
    )


def test_monotonicity_classification_no_shift():
    rng = np.random.default_rng(29)
    d = 24
    v = haar_basis(d, d, seed=6)
    e_p = (rng.uniform(size=d) < 0.7).astype(np.float64)
    pair = CovariancePair(v, e_p, e_p.copy())
    beta = rng.standard_normal(d)
    verdict = monotonicity_check_classification(pair, beta)
    assert verdict.holds
    assert verdict.rho == pytest.approx(1.0, rel=1e-12)
    assert verdict.u0 == pytest.approx(0.0, abs=1e-12)


def test_finite_dim_linearity_nested_cases():
    rng = np.random.default_rng(31)
    d, k = 40, 20
    basis = haar_basis(d, k, seed=8)
    u = basis.columns
    beta = rng.standard_normal(d)
    # test covariance supported inside the training subspace
    w = rng.uniform(0.5, 2.0, size=k)
    sigma_q = (u * w) @ u.T
    cross, slope, intercept = finite_dim_linearity(beta, basis, sigma_q, 0.1, 0.2)
    assert abs(cross) <= 1e-12
    # signal confined to the training subspace
    beta_in = basis.project(rng.standard_normal(d))
    g = rng.standard_normal((d, d))
    sigma_gen = g @ g.T / d
    cross_in, _, _ = finite_dim_linearity(beta_in, basis, sigma_gen, 0.1, 0.2)
    assert abs(cross_in) <= 1e-12
    # generic pair couples the two halves
    cross_gen, _, _ = finite_dim_linearity(beta, basis, sigma_gen, 0.1, 0.2)
    assert abs(cross_gen) > 1e-8


def test_finite_dim_linearity_predicts_ridge_sweep():
    rng = np.random.default_rng(37)
    d, k = 40, 20
    basis = haar_basis(d, k, seed=10)
    u = basis.columns
    beta = rng.standard_normal(d)
    w = rng.uniform(0.5, 2.0, size=k)
    sigma_q = (u * w) @ u.T
    cross, slope, intercept = finite_dim_linearity(beta, basis, sigma_q, 0.1, 0.2)
    lams = np.geomspace(1e-3, 1e3, 20)
    risks = np.array([population_ridge_risks(beta, basis, sigma_q, 0.1, 0.2, l) for l in lams])
    predicted = slope * risks[:, 0] + intercept
    npt.assert_allclose(risks[:, 1], predicted, atol=1e-10)
    # least-squares affine fit leaves no residual either
    coeffs, res, *_ = np.polyfit(risks[:, 0], risks[:, 1], 1, full=True)
    assert float(res[0]) <= 1e-10 if res.size else True


def test_finite_dim_linearity_validation():
    rng = np.random.default_rng(41)
    d, k = 12, 6
    basis = haar_basis(d, k, seed=12)
    sigma_q = np.eye(d)
    beta = rng.standard_normal(d)
    with pytest.raises(InvalidDimensionError):
        finite_dim_linearity(beta[:-1], basis, sigma_q, 0.1, 0.1)
    with pytest.raises(InvalidDimensionError):
        finite_dim_linearity(beta, basis, sigma_q[:-1, :-1], 0.1, 0.1)
    with pytest.raises(NumericInputError):
        finite_dim_linearity(beta, basis, sigma_q, -0.1, 0.1)
    with pytest.raises(NumericInputError):
        finite_dim_linearity(beta, basis, sigma_q, 0.1, math.nan)
    # signal orthogonal to the training subspace is degenerate
    beta_perp = beta - basis.project(beta)
    with pytest.raises(NumericInputError, match="no energy in the projector range"):
        finite_dim_linearity(beta_perp, basis, sigma_q, 0.1, 0.1)


def test_population_ridge_risks_limits():
    rng = np.random.default_rng(43)
    d, k = 30, 15
    basis = haar_basis(d, k, seed=14)
    g = rng.standard_normal((d, d))
    sigma_q = g @ g.T / d
    beta_in = basis.project(rng.standard_normal(d))
    # interpolation with in-subspace signal and no train noise is perfect
    risk_p, _ = population_ridge_risks(beta_in, basis, sigma_q, 0.0, 0.3, 0.0)
    assert risk_p == pytest.approx(0.0, abs=1e-20)
    # infinite shrinkage leaves the null-estimator risks
    beta = rng.standard_normal(d)
    b_p = basis.project(beta)
    risk_p, risk_q = population_ridge_risks(beta, basis, sigma_q, 0.1, 0.3, 1e12)
    assert risk_p == pytest.approx(float(b_p @ b_p) + 0.1, rel=1e-9)
    assert risk_q == pytest.approx(float(beta @ sigma_q @ beta) + 0.3, rel=1e-9)
    with pytest.raises(NumericInputError):
        population_ridge_risks(beta, basis, sigma_q, 0.1, 0.3, -1.0)
    with pytest.raises(InvalidDimensionError):
        population_ridge_risks(beta[:-1], basis, sigma_q, 0.1, 0.3, 1.0)


_BAD_RIDGE_INPUTS = {
    "negative sigma_p_sq": lambda args: dict(args, sigma_p_sq=-1.0),
    "nan sigma_q_sq": lambda args: dict(args, sigma_q_sq=math.nan),
    "nan in sigma_q": lambda args: dict(args, sigma_q=np.where(args["sigma_q"] > 0, math.nan, 0.0)),
    "infinite beta_star": lambda args: dict(args, beta_star=np.r_[math.inf, args["beta_star"][1:]]),
}


@pytest.mark.parametrize("spoil", _BAD_RIDGE_INPUTS.values(), ids=_BAD_RIDGE_INPUTS)
def test_ridge_risk_functions_reject_the_same_inputs(spoil):
    d = 12
    basis = haar_basis(d, 6, seed=15)
    good = {"beta_star": np.random.default_rng(47).standard_normal(d), "sigma_q": np.eye(d),
            "sigma_p_sq": 0.1, "sigma_q_sq": 0.2}
    bad = spoil(good)
    args = [bad[k] for k in ("beta_star", "sigma_q", "sigma_p_sq", "sigma_q_sq")]
    with pytest.raises(NumericInputError):
        finite_dim_linearity(args[0], basis, *args[1:])
    with pytest.raises(NumericInputError):
        population_ridge_risks(args[0], basis, *args[1:], 0.5)


def test_probit_arctan_gap_certified_bound():
    gap = probit_arctan_gap()
    assert gap == pytest.approx(0.008503672025927389, rel=1e-9)
    assert gap <= 0.01
    # a finer, wider grid does not move the maximum materially
    u = np.linspace(-12.0, 12.0, 24001)
    fine = np.max(np.abs(0.5 * _std_normal_cdf(u / math.sqrt(2.0)) - np.arctan(np.exp(u)) / math.pi))
    assert fine == pytest.approx(gap, abs=1e-6)
