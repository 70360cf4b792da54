"""Tests for decision covariances, closed-form risks, and Monte Carlo metrics."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr

from riskshift import _gauss_legendre
from riskshift.errors import NumericInputError
from riskshift.datagen import LinearGaussian, label
from riskshift.estimators import ridge_fit
from riskshift.harness.config import KIND_CLASSIFICATION, KIND_COUNTEREXAMPLE, config_from_mapping
from riskshift.harness.runners import _draw_trial, stream
from riskshift.risk import (
    DecisionCov,
    _QUAD_BLOCK,
    _QUAD_ORDER,
    _gauss_rules,
    _half_normal_rule,
    _std_normal_cdf,
    MetricKind,
    decision_cov,
    mc_metric_risk,
    misclassification_risk,
    quad_metric_risk,
    squared_risk,
)
from riskshift.shiftmodel import CovariancePair, ShiftParameters, subspace_shift_model, task_dependent_model
from riskshift.subspace import OrthonormalBasis, SubspacePairSpec
from riskshift.theory import asymptotic_decision_cov

from oracles import (
    exact_decision_moments,
    exact_misclassification_risks,
    hinge_risk_oracle,
    logistic_risk_oracle,
    population_mc_risk,
    sigma_dense,
)

# E max(0, 1 - |Z|) for Z standard normal: hinge value of a perfectly
# aligned unit-variance decision pair, 2*(Phi(1) - Phi(0) - phi(0) + phi(1))
_HINGE_ALIGNED = 0.3687463803725073


def _moments_cov(omega_star, chi, v):
    # the DecisionCov of a positive definite [[omega*, chi], [chi, v]]
    l11 = math.sqrt(omega_star)
    l21 = chi / l11
    return DecisionCov(l11, l21, math.sqrt(v - l21 * l21))


def test_decision_cov_quadratic_forms():
    pair = subspace_shift_model(SubspacePairSpec(12, 8, 6, 4), 2.0, 0)
    rng = np.random.default_rng(1)
    beta_star = rng.standard_normal(12)
    beta_hat = rng.standard_normal(12)
    for which, cov in zip("PQ", decision_cov(beta_star, beta_hat, pair)):
        sigma = sigma_dense(pair, which) / 12
        assert cov.l11 * cov.l11 == pytest.approx(beta_star @ sigma @ beta_star, rel=1e-12)
        assert cov.l11 * cov.l21 == pytest.approx(beta_star @ sigma @ beta_hat, rel=1e-12)
        assert cov.l21 * cov.l21 + cov.l22 * cov.l22 == pytest.approx(beta_hat @ sigma @ beta_hat, rel=1e-12)


def test_decision_cov_rejects_psd_violations():
    # a lower factor with a nonnegative diagonal is PSD; nothing else is accepted
    with pytest.raises(NumericInputError, match="l11 must be >= 0, got -1.0"):
        DecisionCov(-1.0, 0.0, 1.0)
    with pytest.raises(NumericInputError, match="l22 must be >= 0, got -1e-300"):
        DecisionCov(1.0, 0.5, -1e-300)
    with pytest.raises(NumericInputError, match="l21 must be 0 where l11 = 0"):
        DecisionCov(0.0, 5e-324, 1.0)
    with pytest.raises(NumericInputError, match="l21 must be finite, got inf"):
        DecisionCov(1.0, math.inf, 1.0)
    DecisionCov(0.0, 0.0, 0.0)
    DecisionCov(0.0, -0.0, 1.0)


_D = 12
# magnitudes up to 1e50 keep every product e * b * b below overflow
_VECTORS = arrays(np.float64, _D, elements=st.floats(-1e50, 1e50, allow_nan=False))


@settings(max_examples=300, deadline=None, database=None)
@given(_VECTORS, _VECTORS, st.floats(0.01, 10.0), st.integers(0, 2**32 - 1))
def test_decision_cov_of_any_finite_vectors_is_psd(beta_star, beta_hat, tau, seed):
    pair = subspace_shift_model(SubspacePairSpec(_D, 8, 6, 4), tau, seed)
    covs = decision_cov(beta_star, beta_hat, pair)  # DecisionCov raises on an invalid factor
    assert len(covs) == 2
    for cov in covs:
        assert cov.l11 >= 0.0 and cov.l22 >= 0.0


# one entry of either sign anywhere in [1e-100, 1e100], or 0: no product e * b * b
# underflows or overflows, so each moment is held to its own scale
_SPREAD_VECTORS = arrays(np.float64, _D, elements=st.one_of(
    st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100),
))


@settings(max_examples=200, deadline=None, database=None)
@given(_SPREAD_VECTORS, _SPREAD_VECTORS, st.floats(0.01, 10.0), st.integers(0, 2**32 - 1))
def test_decision_cov_factor_reproduces_exact_moments(beta_star, beta_hat, tau, seed):
    # l11^2, l11 l21 and l21^2 + l22^2 against the exact omega*, chi and v of the same
    # rotated floats, each within a few eps of its scale (sqrt(omega* v) for chi)
    pair = subspace_shift_model(SubspacePairSpec(_D, 8, 6, 4), tau, seed)
    tol = 8 * np.finfo(np.float64).eps
    for cov, (omega_star, chi, v) in zip(decision_cov(beta_star, beta_hat, pair),
                                         exact_decision_moments(beta_star, beta_hat, pair)):
        omega_star, chi, v = float(omega_star), float(chi), float(v)
        assert abs(cov.l11 * cov.l11 - omega_star) <= tol * omega_star
        assert abs(cov.l11 * cov.l21 - chi) <= tol * math.sqrt(omega_star) * math.sqrt(v)
        assert abs(cov.l21 * cov.l21 + cov.l22 * cov.l22 - v) <= tol * v


def _unit_pair(d):
    return CovariancePair(OrthonormalBasis(np.eye(d)), np.ones(d), np.ones(d))


def test_misclassification_is_exact_at_huge_scale():
    # omega* v overflowed the old correlation route to inf, giving risk 1/2
    beta = np.array([1e100, -2e100, 3e100])
    for cov in decision_cov(beta, beta, _unit_pair(3)):
        assert misclassification_risk(cov) == 0.0


def test_misclassification_is_exact_at_tiny_scale():
    # omega* = v = 1e-200 and chi = 5e-201: omega* v underflowed to 0 on the old
    # correlation route, which then called the scores degenerate
    beta_star = 1e-100 * np.array([math.sqrt(2.0), 0.0])
    beta_hat = 1e-100 * np.array([math.sqrt(0.5), math.sqrt(1.5)])
    for cov in decision_cov(beta_star, beta_hat, _unit_pair(2)):
        assert misclassification_risk(cov) == pytest.approx(1.0 / 3.0, rel=4 * np.finfo(np.float64).eps)


def test_misclassification_is_the_same_at_extreme_scales():
    # b* and b-hat each scaled by 2^-560, 1 or 2^560, where their squares would
    # underflow or overflow: the angle does not see the scale, bit for bit
    pair = subspace_shift_model(SubspacePairSpec(12, 8, 6, 4), 2.0, 3)
    beta_star, beta_hat = np.random.default_rng(33).standard_normal((2, 12))
    want = [misclassification_risk(cov) for cov in decision_cov(beta_star, beta_hat, pair)]
    for e_star in (-560, 0, 560):
        for e_hat in (-560, 0, 560):
            covs = decision_cov(np.ldexp(beta_star, e_star), np.ldexp(beta_hat, e_hat), pair)
            assert [misclassification_risk(cov) for cov in covs] == want, (e_star, e_hat)
    # every square of b* underflows unscaled, though chi does not
    tiny = decision_cov(1e-170 * np.array([1.0, 0.0]), np.array([1.0, 1.0]), _unit_pair(2))
    unit = decision_cov(np.array([1.0, 0.0]), np.array([1.0, 1.0]), _unit_pair(2))
    assert [misclassification_risk(cov) for cov in tiny] == [misclassification_risk(cov) for cov in unit]


def test_decision_cov_scales_before_it_rotates():
    # b-hat = 2^1023 u lies close to the basis's first column v0, so its first
    # rotated coordinate is past the float range though every entry is finite;
    # scaled first, it is rotated as u is, and the risks are u's bit for bit
    pair = subspace_shift_model(SubspacePairSpec(40, 30, 24, 18), 2.0, 3)
    beta_star = np.random.default_rng(4).standard_normal(40)
    v0 = pair.eigenbasis.columns[:, 0]
    u = v0 / np.max(np.abs(v0)) + 0.01 * beta_star / np.max(np.abs(beta_star))
    u /= np.max(np.abs(u))
    want = [misclassification_risk(cov) for cov in decision_cov(beta_star, u, pair)]
    got = [misclassification_risk(cov) for cov in decision_cov(beta_star, np.ldexp(u, 1023), pair)]
    assert got == want


def test_decision_cov_stays_finite_where_its_ratio_cannot_be_split():
    # Sigma_Q weighs only the coordinate where b* is 2^-1021, so chi / omega*
    # is 2^1020, past the 2^996 at which Dekker's split overflows; the residual
    # product is rounded there, and the Q factor is (l11, 2^-3 / l11, 0) for
    # l11 = sqrt(2^-1023)
    pair = CovariancePair(OrthonormalBasis(np.eye(2)), np.ones(2), np.array([2.0**1020, 0.0]))
    cov_p, cov_q = decision_cov(np.array([2.0**-1021, 0.5]), np.array([0.5, 0.5]), pair)
    assert all(math.isfinite(x) for x in (cov_p.l11, cov_p.l21, cov_p.l22))
    assert (cov_q.l11, cov_q.l22) == (math.sqrt(2.0**-1023), 0.0)
    assert cov_q.l21 == 0.125 / math.sqrt(2.0**-1023)
    assert misclassification_risk(cov_q) == 0.0


def test_classification_sweep_noiseless_ridge_risks_match_exact_angle():
    # the default classification sweep's ridge-noiseless fits at its 6 smallest
    # lambdas, drawn as run_classification_sweep draws them: risks near 1e-3,
    # where an arccos of the score correlation was off by up to 9e-12 relative.
    # Trial 1 at seed 7 has the smallest angle, where rounding each product of
    # the residual b - (chi / omega*) b* put risk_P 1.12e-15 off (2 threads)
    for seed, trials in ((0, None), (7, (1,))):
        config = config_from_mapping(KIND_CLASSIFICATION, {}, seed_override=seed)
        spec = SubspacePairSpec(config["d"], config["d_p"], config["d_p"], config["d_p"])
        lams = config["lambda_grid"][:6]
        for t in trials or range(config["trials"]):
            pair, beta_star, x = _draw_trial(config, t, spec, 1.0, 1.0)
            pair = task_dependent_model(pair, beta_star, target_ratio=config["kappa_over_gamma"])
            y = label(x, beta_star, LinearGaussian(0.0), stream(seed, t, 3))
            for beta_hat in ridge_fit(x, y, lams):
                exact = exact_misclassification_risks(beta_star, beta_hat, pair)
                for cov, want in zip(decision_cov(beta_star, beta_hat, pair), exact):
                    assert abs(misclassification_risk(cov) - want) <= 1e-15 * want, (seed, t)


def test_std_normal_cdf_matches_ndtr():
    x = np.concatenate([np.linspace(-38.0, 38.0, 7601), [0.0, -0.0, -37.5, 37.5]])
    got = _std_normal_cdf(x)
    want = ndtr(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert np.all(np.abs(got - want) <= np.maximum(1e-12 * np.abs(want), 1e-300))
    assert _std_normal_cdf(0.0) == _std_normal_cdf(-0.0) == 0.5
    scalar = _std_normal_cdf(-1.25)
    assert np.ndim(scalar) == 0
    assert abs(scalar - ndtr(-1.25)) <= 1e-12 * ndtr(-1.25)
    # the edges math.erfc handles: infinities saturate, nan propagates
    assert _std_normal_cdf(-np.inf) == 0.0 and _std_normal_cdf(np.inf) == 1.0
    assert np.isnan(_std_normal_cdf(np.nan))
    edges = _std_normal_cdf(np.array([[-np.inf, np.nan], [np.inf, 0.0]]))
    assert edges.shape == (2, 2)
    assert np.array_equal(edges, [[0.0, np.nan], [1.0, 0.5]], equal_nan=True)
    assert _std_normal_cdf(np.zeros((3, 0, 2))).shape == (3, 0, 2)
    assert _std_normal_cdf(np.full((3, 4, 5), -1.25)).shape == (3, 4, 5)


def _bits(values):
    # the bits of a float64 array, every nan as one pattern: SIMD and scalar
    # loops may give a nan result either sign, and no nan reaches a CSV
    values = np.where(np.isnan(values), np.nan, values)
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=100, deadline=None, database=None)
@given(
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=5), elements=st.floats()),
    st.integers(0, 64),
)
def test_std_normal_cdf_entry_equals_lone_value(x, offset):
    # Phi of a whole array equals Phi of each entry alone, bit for bit, also
    # when an offset moves the entries to other positions of the array
    got = _std_normal_cdf(x)
    assert np.shape(got) == x.shape
    padded = np.concatenate([np.full(offset, 0.3), x.ravel()])
    shifted = _std_normal_cdf(padded)[offset:]
    lone = np.array([_std_normal_cdf(v) for v in x.flat])
    assert np.array_equal(_bits(got).ravel(), _bits(lone))
    assert np.array_equal(_bits(shifted), _bits(lone))


@settings(max_examples=200, deadline=None, database=None)
@given(arrays(np.float64, st.integers(1, 60), elements=st.floats(allow_nan=False)))
def test_std_normal_cdf_is_monotone_and_symmetric(x):
    x = np.sort(x)
    p = _std_normal_cdf(x)
    assert np.all(np.diff(p) >= 0.0)
    assert np.all(np.abs(p + _std_normal_cdf(-x) - 1.0) <= 2 * np.spacing(1.0))


def test_std_normal_cdf_steps_between_adjacent_floats():
    # between ulp-adjacent arguments, where Phi itself moves by under an ulp,
    # Phi never steps down; these runs start where a vectorized rational erfc
    # stepped down by up to 4 ulp
    for start in (-1.157, -1.133, -0.892, 0.294, 0.5, 0.857, 3.0):
        x = start + np.arange(400) * abs(np.spacing(start))
        p = _std_normal_cdf(x)
        assert np.all(np.diff(p) >= 0.0)


def test_squared_risk_formula():
    # omega* = 2, chi = 0.5, v = 1
    cov = DecisionCov(math.sqrt(2.0), 0.5 / math.sqrt(2.0), math.sqrt(0.875))
    assert squared_risk(cov) == pytest.approx(2.0 - 1.0 + 1.0)


def test_misclassification_closed_form_anchors():
    # independent scores mismatch half the time; aligned never; anti-aligned always
    assert misclassification_risk(DecisionCov(1.0, 0.0, 1.0)) == 0.5
    assert misclassification_risk(DecisionCov(1.0, 1.0, 0.0)) == 0.0
    assert misclassification_risk(DecisionCov(1.0, -1.0, 0.0)) == 1.0
    # the arccos law at correlation 1/2
    cov = DecisionCov(1.0, 0.5, math.sqrt(0.75))
    assert misclassification_risk(cov) == pytest.approx(math.acos(0.5) / math.pi, rel=1e-12)
    # scale invariance: rescaling either score leaves the sign law unchanged
    base = misclassification_risk(DecisionCov(1.3, 0.4, 0.9))
    for t in (2.0**-600, 2.0**-7, 8.0, 2.0**600):
        assert misclassification_risk(DecisionCov(1.3, 0.4 * t, 0.9 * t)) == base
        assert misclassification_risk(DecisionCov(1.3 * t, 0.4, 0.9)) == base


def test_degenerate_decision_risks():
    # correlation undefined once either score has zero variance
    for cov in (DecisionCov(1.0, 0.0, 0.0), DecisionCov(0.0, 0.0, 1.0)):
        with pytest.raises(NumericInputError, match="both decision scores nondegenerate"):
            misclassification_risk(cov)


def test_mc_squared_matches_closed_form():
    cov = _moments_cov(1.3, 0.4, 0.9)
    est, se = mc_metric_risk(cov, MetricKind.SQUARED_ERROR, 400_000, 7)
    assert abs(est - squared_risk(cov)) <= 4 * se
    assert se < 0.02


def test_mc_misclassification_matches_closed_form():
    cov = _moments_cov(1.0, 0.35, 0.8)
    closed = misclassification_risk(cov)
    est, se = mc_metric_risk(cov, MetricKind.MISCLASSIFICATION, 400_000, 8)
    assert abs(est - closed) <= 4 * se


def test_mc_hinge_frozen_oracle():
    cov = DecisionCov(1.0, 1.0, 0.0)
    est, se = mc_metric_risk(cov, MetricKind.HINGE, 1_000_000, 9)
    assert abs(est - _HINGE_ALIGNED) <= 4 * se


def _normal_trapezoid(f):
    # E f(Z) for Z standard normal via a dense trapezoid rule on [-10, 10]
    z = np.linspace(-10, 10, 400_001)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    return np.trapezoid(f(z) * phi, z)


def _logistic_aligned_oracle():
    # aligned unit pair: E log(1 + exp(-|Z|))
    return _normal_trapezoid(lambda z: np.logaddexp(0.0, -np.abs(z)))


def test_mc_logistic_quadrature_oracle():
    cov = DecisionCov(1.0, 1.0, 0.0)
    est, se = mc_metric_risk(cov, MetricKind.LOGISTIC, 1_000_000, 10)
    assert abs(est - _logistic_aligned_oracle()) <= 4 * se


def test_mc_determinism_and_seed_sensitivity():
    cov = _moments_cov(1.0, 0.2, 1.5)
    a = mc_metric_risk(cov, MetricKind.HINGE, 300_000, 11)
    b = mc_metric_risk(cov, MetricKind.HINGE, 300_000, 11)
    assert a == b
    c = mc_metric_risk(cov, MetricKind.HINGE, 300_000, 12)
    assert a[0] != c[0]


def test_mc_standard_error_stable_for_nearly_constant_values():
    # psi = log(1 + exp(-t)) with |t| ~ 1e-8: sum psi^2 - n mean^2 cancels to 0
    cov = DecisionCov(1.0, 0.0, 1e-8)
    # mc_metric_risk's fixed chunk of 2**18 draws, three times over
    chunk, chunks = 2**18, 3
    n = chunk * chunks
    est, se = mc_metric_risk(cov, MetricKind.LOGISTIC, n, 20)
    root = np.random.SeedSequence(20)
    psi = []
    for i in range(chunks):
        child = np.random.SeedSequence(root.entropy, spawn_key=(i,))
        g = np.random.default_rng(child).standard_normal((chunk, 2))
        z = 1e-8 * g[:, 1]
        psi.append(np.logaddexp(0.0, -np.where(g[:, 0] >= 0.0, z, -z)))
    psi = np.concatenate(psi)
    assert se > 0.0
    assert se == pytest.approx(np.std(psi, ddof=1) / math.sqrt(n), rel=1e-6)
    assert est == pytest.approx(np.mean(psi), rel=1e-14)


def test_mc_validates_arguments():
    cov = DecisionCov(1.0, 0.0, 1.0)
    with pytest.raises(NumericInputError):
        mc_metric_risk(cov, MetricKind.LOGISTIC, 10, 0)  # too few draws
    with pytest.raises(NumericInputError):
        mc_metric_risk(cov, "hinge", 1000, 0)  # not a MetricKind


def test_population_mc_matches_decision_cov():
    pair = subspace_shift_model(SubspacePairSpec(40, 30, 24, 18), 2.0, 14)
    rng = np.random.default_rng(15)
    beta_star = rng.standard_normal(40)
    beta_hat = beta_star + 0.3 * rng.standard_normal(40)
    for which, cov in zip("PQ", decision_cov(beta_star, beta_hat, pair)):
        closed = squared_risk(cov)
        est, se = population_mc_risk(
            beta_star, beta_hat, pair, which, MetricKind.SQUARED_ERROR, 200_000, 16
        )
        assert abs(est - closed) <= 4 * se


def test_population_mc_misclassification():
    pair = subspace_shift_model(SubspacePairSpec(30, 20, 16, 12), 1.5, 17)
    rng = np.random.default_rng(18)
    beta_star = rng.standard_normal(30)
    beta_hat = beta_star + rng.standard_normal(30)
    _, cov = decision_cov(beta_star, beta_hat, pair)
    closed = misclassification_risk(cov)
    est, se = population_mc_risk(
        beta_star, beta_hat, pair, "Q", MetricKind.MISCLASSIFICATION, 200_000, 19
    )
    assert abs(est - closed) <= 4 * se


def _quad_one(cov, metric):
    values, errs = quad_metric_risk([cov], metric)
    return float(values[0]), float(errs[0])


def test_quad_hinge_matches_aligned_closed_form():
    # t = sign(z*) z = l21 |g1| for an aligned pair, whatever the scale l11 of z*
    for cov in (DecisionCov(1.0, 1.0, 0.0), DecisionCov(2.0, 1.0, 0.0), DecisionCov(1e-200, 1.0, 0.0)):
        assert misclassification_risk(cov) == 0.0
        value, err = _quad_one(cov, MetricKind.HINGE)
        assert abs(value - _HINGE_ALIGNED) <= 1e-9
        assert err <= 1e-9


def test_quad_hinge_keeps_its_limit_on_a_far_aligned_pair():
    # E (1 - l21 |g1|)^+ = phi(0) / l21 (1 + O(1 / l21^2)); from l21 = 1e154
    # on, h = 1 / l21 has a subnormal or zero square
    l21s = [1e8, 1e150, 1e154, 1e155, 1e160, 1e170, 1e200, 1e300]
    values, _ = quad_metric_risk([DecisionCov(1.0, l21, 0.0) for l21 in l21s], MetricKind.HINGE)
    for l21, value in zip(l21s, values):
        want = 1.0 / (math.sqrt(2.0 * math.pi) * l21)
        assert abs(value - want) <= 1e-15 * want, (l21, value, want)


def _wide_grid():
    # l21 over six decades of either sign, l22 over seven: 220 factors
    l21s = np.concatenate([-np.geomspace(1e-3, 1e3, 7), np.geomspace(1e-3, 1e3, 13)])
    return [DecisionCov(1.0, float(a), float(b)) for a in l21s for b in np.geomspace(1e-4, 1e3, 11)]


def test_quad_hinge_matches_oracle_on_a_wide_grid():
    # down to l22 << l21, where a rule over |g1| misses the kink's blur of
    # width l22 / l21
    covs = _wide_grid()
    values, errs = quad_metric_risk(covs, MetricKind.HINGE)
    for cov, value, err in zip(covs, values, errs):
        want = hinge_risk_oracle(cov.l21, cov.l22)
        assert abs(value - want) <= max(err, 1e-11 * value), (cov, value, want, err)
        # both rule orders converge, so the estimate vouches for the value too
        assert err <= 1e-12 * value, (cov, value, err)
        if math.hypot(cov.l21, cov.l22) <= 30.0:
            assert abs(value - want) <= 1e-12 * want, (cov, value, want)


def test_quad_logistic_matches_oracle_on_a_wide_grid():
    # down to l22 << l21, where s - l21 cancels, and up to s = 1414, where
    # the log1p term falls off in a layer of width 1 / s that a rule on
    # [0, 9] does not resolve
    covs = _wide_grid()
    values, errs = quad_metric_risk(covs, MetricKind.LOGISTIC)
    for cov, value, err in zip(covs, values, errs):
        want = logistic_risk_oracle(cov.l21, cov.l22)
        assert abs(value - want) <= 1e-14 * want, (cov, value, want)
        assert err <= 1e-14 * value, (cov, value, err)


def test_quad_logistic_matches_dense_trapezoid():
    value, err = _quad_one(DecisionCov(1.0, 1.0, 0.0), MetricKind.LOGISTIC)
    assert abs(value - _logistic_aligned_oracle()) <= 1e-8
    assert err <= 1e-9


def _seeded_covariances(n, seed):
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(n):
        b = rng.standard_normal((2, 2))
        factor = np.linalg.cholesky(b.T @ b)
        covs.append(DecisionCov(float(factor[0, 0]), float(factor[1, 0]), float(factor[1, 1])))
    return covs


def test_quad_agrees_with_mc_on_random_covariances():
    covs = _seeded_covariances(10, 21)
    covs += [
        _moments_cov(1.0, -0.6, 0.8),
        # singular and near-singular, positive and negative l21
        DecisionCov(math.sqrt(0.7), 1.3 * math.sqrt(0.7), 0.0),
        DecisionCov(math.sqrt(2.0), -math.sqrt(0.5), math.sqrt(5e-10)),
    ]
    assert any(c.l21 < 0 for c in covs)
    for j, metric in enumerate((MetricKind.LOGISTIC, MetricKind.HINGE)):
        values, errs = quad_metric_risk(covs, metric)
        for i, (cov, value, err) in enumerate(zip(covs, values, errs)):
            est, se = mc_metric_risk(cov, metric, 1_000_000, [22, i, j])
            assert err <= 1e-9
            assert abs(value - est) <= 4 * se, (cov, metric, value, est, se)


def _counterexample_covs():
    # the decision covariances of criterion 6's default counterexample grid
    cfg = config_from_mapping(KIND_COUNTEREXAMPLE, {})
    shift = ShiftParameters(
        gamma=cfg["gamma"], mu=cfg["mu"], kappa=cfg["kappa"], r_p=cfg["r_p"],
        sigma_beta_sq=cfg["sigma_beta_sq"],
    )
    return [
        cov
        for a in cfg["a_grid"]
        for cov in asymptotic_decision_cov(a, cfg["b"], cfg["c"], shift)
    ]


def test_quad_error_estimate_small_on_counterexample_grid():
    covs = _counterexample_covs()
    for metric in (MetricKind.LOGISTIC, MetricKind.HINGE):
        assert np.max(quad_metric_risk(covs, metric)[1]) <= 1e-6


def test_quad_rejects_closed_form_metrics():
    cov = DecisionCov(1.0, 0.3, 1.0)
    for metric in (MetricKind.SQUARED_ERROR, MetricKind.MISCLASSIFICATION, "logistic"):
        with pytest.raises(NumericInputError):
            quad_metric_risk([cov], metric)


_MAX = np.finfo(np.float64).max


@st.composite
def edge_factors(draw):
    """Any DecisionCov.

    l11 = 0, l21 = 0, l22 = 0, the smallest subnormal l22, and |l21| and l22
    at the largest float are each drawn with positive probability.
    """
    l11 = draw(st.one_of(st.just(0.0), st.floats(0.0, _MAX)))
    l21 = draw(st.one_of(st.just(0.0), st.just(-_MAX), st.just(_MAX), st.floats(-_MAX, _MAX))) if l11 > 0.0 else 0.0
    l22 = draw(st.one_of(st.just(0.0), st.just(5e-324), st.just(_MAX), st.floats(0.0, _MAX)))
    return DecisionCov(l11, l21, l22)


@settings(max_examples=300, deadline=None, database=None)
@given(edge_factors())
@example(DecisionCov(0.0, 0.0, 1.0))
@example(DecisionCov(1e-150, 1.0, 1e-3))
@example(DecisionCov(1.0, -1e-6, 0.0))
# the hinge's h = 1 / s or k = 1 / l22, or their squares, are past the float range
@example(DecisionCov(1.0, 0.0, math.sqrt(5e-324)))
@example(DecisionCov(0.0, 0.0, 2.2250738585072014e-308))
@example(DecisionCov(1.0, 2.2250738585072014e-308, 0.0))
# hypot(l21, l22), s + |l21| or a square of either is past the float range
@example(DecisionCov(1.0, 1e308, 1e308))
@example(DecisionCov(1.0, -1e308, 1e308))
@example(DecisionCov(1.0, _MAX, _MAX))
@example(DecisionCov(1.0, -_MAX, _MAX))
@example(DecisionCov(1.0, -_MAX, 0.0))
@example(DecisionCov(1.0, 1e200, 1e-200))
def test_quad_is_finite_on_every_accepted_factor(cov):
    # finite value and error estimate, with no floating-point warning but underflow
    for metric in (MetricKind.LOGISTIC, MetricKind.HINGE):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            values, errs = quad_metric_risk([cov], metric)
        assert np.isfinite(values[0]) and np.isfinite(errs[0])


def _logistic_tensor_rule(cov, order):
    # the 2-D rule the 1-D identity replaced: Gauss-Legendre over |g1| on
    # [0, 9] against the half-normal density, Gauss-Hermite over w
    l21, l22 = cov.l21, cov.l22
    x, wx = leggauss(order)
    h = 4.5 * (x + 1.0)
    wh = 9.0 * wx * np.exp(-0.5 * h * h) / math.sqrt(2 * math.pi)
    w, ww = hermegauss(order)
    inner = np.logaddexp(0.0, -(l21 * h[:, None] + l22 * w[None, :])) @ (ww / math.sqrt(2 * math.pi))
    return float(wh @ inner)


@st.composite
def factored_covariances(draw):
    """DecisionCov with s = hypot(l21, l22) <= 15.

    l21 = 0 (uncorrelated scores), l21 < 0 and l22 = 0 (aligned or opposed
    scores) are each drawn with positive probability.
    """
    l11 = draw(st.floats(1e-3, 10.0))
    l21 = draw(st.one_of(st.just(0.0), st.floats(-15.0, 15.0)))
    l22 = draw(st.one_of(st.just(0.0), st.floats(0.0, math.sqrt(225.0 - l21 * l21))))
    return DecisionCov(l11, l21, l22)


@settings(max_examples=150, deadline=None, database=None)
@given(factored_covariances())
@example(_moments_cov(1.0, -0.6, 0.8))
@example(DecisionCov(math.sqrt(0.7), 1.3 * math.sqrt(0.7), 0.0))
@example(DecisionCov(math.sqrt(2.0), 0.0, math.sqrt(0.5)))
def test_quad_logistic_identity_matches_tensor_rule(cov):
    value, err = _quad_one(cov, MetricKind.LOGISTIC)
    assert err <= 1e-12
    fine = _logistic_tensor_rule(cov, 300)
    # the Gauss-Hermite rule loses accuracy once l22 exceeds about 3; compare
    # only where its own error estimate vouches for it
    if abs(fine - _logistic_tensor_rule(cov, 150)) <= 1e-13:
        assert abs(value - fine) <= 1e-12 * value


def test_quad_logistic_wide_independent_part():
    # l22 = 10: the 2-D rule's Gauss-Hermite error estimate was 9.5e-5 here
    value, err = _quad_one(DecisionCov(1e-2, 0.0, 10.0), MetricKind.LOGISTIC)
    assert err <= 1e-9
    assert abs(value - _normal_trapezoid(lambda z: np.logaddexp(0.0, 10.0 * z))) <= 1e-8


# padding rows of every hinge kind: l21 >= 0, l21 < 0, and s = 141, where the
# Craig integral takes its layer as a second piece
_PADDING = (
    _moments_cov(1.0, 0.6, 0.8),
    _moments_cov(1.0, 0.05, 1.0),
    _moments_cov(2.0, -1.0, 0.7),
    DecisionCov(1.0, 100.0, 100.0),
)


@settings(max_examples=60, deadline=None, database=None)
@given(
    factored_covariances(),
    st.lists(factored_covariances(), max_size=9),
    st.integers(0, 9),
    # enough rows ahead to reach the third row block at either order
    st.integers(0, 3 * _QUAD_BLOCK // _QUAD_ORDER),
    st.sampled_from([MetricKind.LOGISTIC, MetricKind.HINGE]),
)
def test_quad_batch_entry_equals_lone_evaluation(cov, others, position, padding, metric):
    # a covariance gives the same (value, err) bit for bit in any batch and in
    # any row block of it, so CSV bytes do not depend on how a runner groups
    # its rows
    ahead = [_PADDING[j % len(_PADDING)] for j in range(padding)]
    batch = ahead + others[:position] + [cov] + others[position:]
    values, errs = quad_metric_risk(batch, metric)
    i = padding + min(position, len(others))
    assert values.shape == errs.shape == (len(batch),)
    assert (values[i], errs[i]) == _quad_one(cov, metric)


def test_quad_counterexample_batch_equals_lone_evaluations():
    covs = _counterexample_covs()
    assert len(covs) == 80
    for metric in (MetricKind.LOGISTIC, MetricKind.HINGE):
        values, errs = quad_metric_risk(covs, metric)
        lone = np.array([_quad_one(cov, metric) for cov in covs])
        assert np.array_equal(_bits(values), _bits(lone[:, 0]))
        assert np.array_equal(_bits(errs), _bits(lone[:, 1]))
        reversed_values, reversed_errs = quad_metric_risk(covs[::-1], metric)
        assert np.array_equal(_bits(reversed_values), _bits(values[::-1]))
        assert np.array_equal(_bits(reversed_errs), _bits(errs[::-1]))


# the traced peak of a quadrature call on 4000 covariances; a single pass over
# the whole batch would trace 58 MiB (hinge) and 19 MiB (logistic)
_QUAD_PEAK_BOUND = 4 * 2**20


def test_quad_working_set_is_bounded():
    covs = _seeded_covariances(4000, 31)
    for metric in (MetricKind.LOGISTIC, MetricKind.HINGE):
        tracemalloc.start()
        try:
            quad_metric_risk(covs, metric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < _QUAD_PEAK_BOUND, (metric, peak)


def test_quad_accepts_empty_batches_and_generators():
    covs = _seeded_covariances(3, 32)
    for metric in (MetricKind.LOGISTIC, MetricKind.HINGE):
        values, errs = quad_metric_risk([], metric)
        assert values.shape == errs.shape == (0,)
        assert values.dtype == errs.dtype == np.float64
        from_generator = quad_metric_risk((cov for cov in covs), metric)
        for got, want in zip(from_generator, quad_metric_risk(covs, metric)):
            assert np.array_equal(_bits(got), _bits(want))


def _gauss_rule_alone(n):
    # one order at a time: Newton from Tricomi's guess on P_n by its own
    # recurrence passes, the construction the shared pass must reproduce
    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    theta = math.pi * (4.0 * np.arange(1, n // 2 + 1) - 1.0) / (4 * n + 2)
    x = np.cos(theta) * (
        1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    )
    for _ in range(2):
        p, dp = legendre(x)
        x = x - p / dp
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


_GAUSS_TABLE_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "riskshift", "_gauss_legendre.py")
_GAUSS_TABLE_COMMAND = 'PYTHONPATH=src:tests python -c "import test_risk; test_risk._write_gauss_table()"'


def _gauss_table_source():
    # the text of riskshift/_gauss_legendre.py: the positive half of
    # _gauss_rule_alone at both quadrature orders, three float.hex values a line
    orders = (_QUAD_ORDER, 2 * _QUAD_ORDER)

    def entries(halves):
        lines = []
        for order, half in zip(orders, halves):
            values = [float(t).hex() for t in half]
            rows = [" ".join(values[i:i + 3]) + " " for i in range(0, len(values), 3)]
            rows[-1] = rows[-1].rstrip()
            body = "\n".join(f'        "{row}"' for row in rows)
            lines.append(f"    {order}: (\n{body}\n    ),")
        return "\n".join(lines)

    rules = [_gauss_rule_alone(order) for order in orders]
    return f'''"""Gauss-Legendre rules of orders {orders[0]} and {orders[1]} on [-1, 1]; generated, do not edit.

NODES maps each order n to its n / 2 positive nodes in ascending order and
WEIGHTS to their weights, as whitespace-separated float.hex strings, exact to
the bit; each rule is symmetric, so its negative half is the mirror image.
The values are those of two Newton steps on the Legendre three-term recurrence
from Tricomi's asymptotic guess (Hale & Townsend 2013, "Fast and accurate
computation of Gauss-Legendre and Gauss-Jacobi quadrature nodes and weights"),
weighted by w = 2 / ((1 - x^2) P_n'(x)^2): the construction of
tests/test_risk.py::_gauss_rule_alone, which they must equal bit for bit.
Regenerate from the repository root with

    {_GAUSS_TABLE_COMMAND}
"""

NODES = {{
{entries(x[order // 2:] for order, (x, _) in zip(orders, rules))}
}}

WEIGHTS = {{
{entries(w[order // 2:] for order, (_, w) in zip(orders, rules))}
}}
'''


def _write_gauss_table():
    with open(_GAUSS_TABLE_PATH, "w", encoding="utf-8") as fh:
        fh.write(_gauss_table_source())


def test_gauss_table_holds_the_quadrature_orders():
    # a new _QUAD_ORDER needs a regenerated table, or _gauss_rules has no rule for it
    hint = f"regenerate riskshift/_gauss_legendre.py with: {_GAUSS_TABLE_COMMAND}"
    assert set(_gauss_legendre.NODES) == set(_gauss_legendre.WEIGHTS) == {_QUAD_ORDER, 2 * _QUAD_ORDER}, hint
    with open(_GAUSS_TABLE_PATH, encoding="utf-8") as fh:
        assert fh.read() == _gauss_table_source(), hint


@pytest.mark.parametrize("order", [150, 300])
def test_gauss_rule_matches_leggauss(order):
    x, w = _gauss_rules(order)
    alone_x, alone_w = _gauss_rule_alone(order)
    assert np.array_equal(_bits(x), _bits(alone_x)) and np.array_equal(_bits(w), _bits(alone_w))
    ref_x, ref_w = leggauss(order)
    assert not x.flags.writeable and not w.flags.writeable
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) <= 1e-15
    assert np.all(np.abs(x - ref_x) <= 4 * np.spacing(np.abs(ref_x)))
    # leggauss's own end weights are off by up to 6.3e-11 at order 300
    assert np.all(np.abs(w - ref_w) <= 1e-10 * ref_w)


@pytest.mark.parametrize("order", [150, 300])
def test_half_normal_rule_moments(order):
    # the error estimate of quad_metric_risk cannot see an error shared by
    # both orders, so the rule's own moments are pinned here
    h, w = _half_normal_rule(order)
    assert abs(w.sum() - 1.0) <= 5e-15
    assert abs(w @ h - math.sqrt(2.0 / math.pi)) <= 5e-15
    assert abs(w @ (h * h) - 1.0) <= 5e-15
