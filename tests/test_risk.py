"""Tests for decision covariances, closed-form risks, and Monte Carlo metrics."""

import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr

from riskshift import _gauss_legendre
from riskshift.errors import CovarianceError, NumericInputError
from riskshift.harness.config import KIND_COUNTEREXAMPLE, config_from_mapping
from riskshift.risk import (
    DecisionCov,
    _CDF_BLOCK,
    _QUAD_ORDER,
    _cholesky_2x2,
    _gauss_rules,
    _half_normal_rule,
    _std_normal_cdf,
    MetricKind,
    decision_cov,
    mc_metric_risk,
    misclassification_risk,
    population_mc_risk,
    quad_metric_risk,
    squared_risk,
)
from riskshift.shiftmodel import ShiftParameters, subspace_shift_model
from riskshift.subspace import SubspacePairSpec
from riskshift.theory import AsymParams, asymptotic_decision_cov

# E max(0, 1 - |Z|) for Z standard normal: hinge value of a perfectly
# aligned unit-variance decision pair, 2*(Phi(1) - Phi(0) - phi(0) + phi(1))
_HINGE_ALIGNED = 0.3687463803725073


def test_decision_cov_quadratic_forms():
    pair = subspace_shift_model(SubspacePairSpec(12, 8, 6, 4), 2.0, 0)
    rng = np.random.default_rng(1)
    beta_star = rng.standard_normal(12)
    beta_hat = rng.standard_normal(12)
    for which in ("P", "Q"):
        cov = decision_cov(beta_star, beta_hat, pair, which)
        sigma = pair.sigma_dense(which) / 12
        assert cov.omega_star == pytest.approx(beta_star @ sigma @ beta_star, rel=1e-12)
        assert cov.chi == pytest.approx(beta_star @ sigma @ beta_hat, rel=1e-12)
        assert cov.v == pytest.approx(beta_hat @ sigma @ beta_hat, rel=1e-12)


def test_decision_cov_rejects_psd_violations():
    with pytest.raises(CovarianceError):
        DecisionCov(omega_star=1.0, chi=2.0, v=1.0)
    with pytest.raises(CovarianceError):
        DecisionCov(omega_star=-1.0, chi=0.0, v=1.0)


_D = 12
# magnitudes up to 1e50 keep every product omega_star * v below overflow
_VECTORS = arrays(np.float64, _D, elements=st.floats(-1e50, 1e50, allow_nan=False))


@settings(max_examples=300, deadline=None, database=None)
@given(_VECTORS, _VECTORS, st.floats(0.01, 10.0), st.integers(0, 2**32 - 1), st.sampled_from("PQ"))
def test_decision_cov_of_any_finite_vectors_is_psd(beta_star, beta_hat, tau, seed, which):
    pair = subspace_shift_model(SubspacePairSpec(_D, 8, 6, 4), tau, seed)
    cov = decision_cov(beta_star, beta_hat, pair, which)  # DecisionCov raises if not PSD
    assert cov.omega_star >= 0.0 and cov.v >= 0.0


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


def test_std_normal_cdf_matches_math_erfc():
    # a dense grid plus each side of Cody's branch edges |x| / sqrt(2) = 0.46875,
    # 4 and 26.543, so a mistyped coefficient in any branch shows
    edges = math.sqrt(2.0) * np.array([0.46875, 4.0, 26.543])
    edges = np.concatenate([edges, -edges])
    x = np.concatenate([
        np.linspace(-38.0, 38.0, 152_001), edges, np.nextafter(edges, np.inf),
        np.nextafter(edges, -np.inf),
    ])
    got = _std_normal_cdf(x)
    want = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    normal = want >= 1e-300
    assert np.all(np.abs(got[normal] - want[normal]) <= 2e-15 * want[normal])
    assert np.all(np.abs(got[~normal] - want[~normal]) <= 1e-300)


def _bits(values):
    # the bits of a float64 array, every nan as one pattern: SIMD and scalar
    # loops may give a nan result either sign, and no nan reaches a CSV
    values = np.where(np.isnan(values), np.nan, values)
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=100, deadline=None, database=None)
@given(
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=5), elements=st.floats()),
    st.integers(0, 2 * _CDF_BLOCK),
)
def test_std_normal_cdf_entry_equals_lone_value(x, offset):
    # Phi of a whole array equals Phi of each entry alone, bit for bit, also
    # when an offset puts the entries on either side of a block boundary
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
    # the rounding of Cody's rationals can step Phi down; measured on 2.4e6
    # adjacent pairs over [-40, 40] the largest such step is 4 ulp
    for start in (-1.157, -1.133, -0.892, 0.294, 0.5, 0.857, 3.0):
        x = start + np.arange(400) * abs(np.spacing(start))
        p = _std_normal_cdf(x)
        assert np.all(np.diff(p) >= -4 * np.spacing(p[:-1]))


def test_squared_risk_formula():
    cov = DecisionCov(omega_star=2.0, chi=0.5, v=1.0)
    assert squared_risk(cov) == pytest.approx(2.0 - 1.0 + 1.0)


def test_misclassification_closed_form_anchors():
    # independent scores mismatch half the time; aligned never; anti-aligned always
    assert misclassification_risk(DecisionCov(1.0, 0.0, 1.0)) == pytest.approx(0.5)
    assert misclassification_risk(DecisionCov(1.0, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-7)
    assert misclassification_risk(DecisionCov(1.0, -1.0, 1.0)) == pytest.approx(1.0, abs=1e-7)
    # the arccos law at correlation 1/2
    cov = DecisionCov(1.0, 0.5, 1.0)
    assert misclassification_risk(cov) == pytest.approx(math.acos(0.5) / math.pi, rel=1e-12)
    # scale invariance: rescaling the estimator leaves the sign law unchanged
    base = misclassification_risk(DecisionCov(1.3, 0.4, 0.9))
    for t in (0.01, 7.0):
        scaled = misclassification_risk(DecisionCov(1.3, 0.4 * t, 0.9 * t * t))
        assert scaled == pytest.approx(base, abs=1e-12)


def test_degenerate_decision_risks():
    # correlation undefined once either score has zero variance
    from riskshift.errors import DegenerateDecisionError

    with pytest.raises(DegenerateDecisionError):
        misclassification_risk(DecisionCov(omega_star=1.0, chi=0.0, v=0.0))


def test_mc_squared_matches_closed_form():
    cov = DecisionCov(omega_star=1.3, chi=0.4, v=0.9)
    est, se = mc_metric_risk(cov, MetricKind.SQUARED_ERROR, 400_000, 7)
    assert abs(est - squared_risk(cov)) <= 4 * se
    assert se < 0.02


def test_mc_misclassification_matches_closed_form():
    cov = DecisionCov(omega_star=1.0, chi=0.35, v=0.8)
    closed = misclassification_risk(cov)
    est, se = mc_metric_risk(cov, MetricKind.MISCLASSIFICATION, 400_000, 8)
    assert abs(est - closed) <= 4 * se


def test_mc_hinge_frozen_oracle():
    cov = DecisionCov(omega_star=1.0, chi=1.0, v=1.0)
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
    cov = DecisionCov(omega_star=1.0, chi=1.0, v=1.0)
    est, se = mc_metric_risk(cov, MetricKind.LOGISTIC, 1_000_000, 10)
    assert abs(est - _logistic_aligned_oracle()) <= 4 * se


def test_mc_determinism_and_seed_sensitivity():
    cov = DecisionCov(omega_star=1.0, chi=0.2, v=1.5)
    a = mc_metric_risk(cov, MetricKind.HINGE, 300_000, 11)
    b = mc_metric_risk(cov, MetricKind.HINGE, 300_000, 11)
    assert a == b
    c = mc_metric_risk(cov, MetricKind.HINGE, 300_000, 12)
    assert a[0] != c[0]


def test_mc_standard_error_stable_for_nearly_constant_values():
    # psi = log(1 + exp(-t)) with |t| ~ 1e-8: sum psi^2 - n mean^2 cancels to 0
    cov = DecisionCov(omega_star=1.0, chi=0.0, v=1e-16)
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
    cov = DecisionCov(omega_star=1.0, chi=0.0, v=1.0)
    with pytest.raises(NumericInputError):
        mc_metric_risk(cov, MetricKind.LOGISTIC, 10, 0)  # too few draws
    with pytest.raises(NumericInputError):
        mc_metric_risk(cov, "hinge", 1000, 0)  # not a MetricKind


def test_population_mc_matches_decision_cov():
    pair = subspace_shift_model(SubspacePairSpec(40, 30, 24, 18), 2.0, 14)
    rng = np.random.default_rng(15)
    beta_star = rng.standard_normal(40)
    beta_hat = beta_star + 0.3 * rng.standard_normal(40)
    for which in ("P", "Q"):
        cov = decision_cov(beta_star, beta_hat, pair, which)
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
    cov = decision_cov(beta_star, beta_hat, pair, "Q")
    closed = misclassification_risk(cov)
    est, se = population_mc_risk(
        beta_star, beta_hat, pair, "Q", MetricKind.MISCLASSIFICATION, 200_000, 19
    )
    assert abs(est - closed) <= 4 * se


def _quad_one(cov, metric):
    values, errs = quad_metric_risk([cov], metric)
    return float(values[0]), float(errs[0])


def test_quad_hinge_matches_aligned_closed_form():
    value, err = _quad_one(DecisionCov(omega_star=1.0, chi=1.0, v=1.0), MetricKind.HINGE)
    assert abs(value - _HINGE_ALIGNED) <= 1e-9
    assert err <= 1e-9


def test_quad_logistic_matches_dense_trapezoid():
    value, err = _quad_one(DecisionCov(omega_star=1.0, chi=1.0, v=1.0), MetricKind.LOGISTIC)
    assert abs(value - _logistic_aligned_oracle()) <= 1e-8
    assert err <= 1e-9


def test_quad_agrees_with_mc_on_random_covariances():
    rng = np.random.default_rng(21)
    covs = []
    for _ in range(10):
        b = rng.standard_normal((2, 2))
        gram = b.T @ b
        covs.append(DecisionCov(float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1])))
    covs += [
        DecisionCov(omega_star=1.0, chi=-0.6, v=0.8),
        # near-singular: chi^2 = omega_star * v up to rounding, positive and negative chi
        DecisionCov(omega_star=0.7, chi=0.7 * 1.3, v=0.7 * 1.3 * 1.3),
        DecisionCov(omega_star=2.0, chi=-1.0, v=0.5 * (1.0 + 1e-9)),
    ]
    assert any(c.chi < 0 for c in covs)
    for j, metric in enumerate((MetricKind.LOGISTIC, MetricKind.HINGE)):
        values, errs = quad_metric_risk(covs, metric)
        for i, (cov, value, err) in enumerate(zip(covs, values, errs)):
            est, se = mc_metric_risk(cov, metric, 1_000_000, [22, i, j])
            assert err <= 1e-9
            assert abs(value - est) <= 4 * se, (cov, metric, value, est, se)


def test_quad_error_estimate_small_on_counterexample_grid():
    cfg = config_from_mapping(KIND_COUNTEREXAMPLE, {})
    shift = ShiftParameters(
        gamma=cfg["gamma"], mu=cfg["mu"], kappa=cfg["kappa"], r_p=cfg["r_p"],
        sigma_beta_sq=cfg["sigma_beta_sq"],
    )
    covs = [
        cov
        for a in np.geomspace(cfg["a_min"], cfg["a_max"], cfg["a_points"])
        for cov in asymptotic_decision_cov(AsymParams(a=float(a), b=cfg["b"], c=cfg["c"]), shift)
    ]
    for metric in (MetricKind.LOGISTIC, MetricKind.HINGE):
        assert np.max(quad_metric_risk(covs, metric)[1]) <= 1e-6


def test_quad_rejects_closed_form_metrics():
    cov = DecisionCov(omega_star=1.0, chi=0.3, v=1.0)
    for metric in (MetricKind.SQUARED_ERROR, MetricKind.MISCLASSIFICATION, "logistic"):
        with pytest.raises(NumericInputError):
            quad_metric_risk([cov], metric)


def _logistic_tensor_rule(cov, order):
    # the 2-D rule the 1-D identity replaced: Gauss-Legendre over |g1| on
    # [0, 9] against the half-normal density, Gauss-Hermite over w
    _, l21, l22 = _cholesky_2x2(cov)
    x, wx = leggauss(order)
    h = 4.5 * (x + 1.0)
    wh = 9.0 * wx * np.exp(-0.5 * h * h) / math.sqrt(2 * math.pi)
    w, ww = hermegauss(order)
    inner = np.logaddexp(0.0, -(l21 * h[:, None] + l22 * w[None, :])) @ (ww / math.sqrt(2 * math.pi))
    return float(wh @ inner)


@st.composite
def factored_covariances(draw):
    """DecisionCov from a Cholesky factor with s = hypot(l21, l22) <= 15.

    l21 = 0 (chi = 0), l21 < 0 (chi < 0) and l22 = 0 (chi^2 = omega_star * v)
    are each drawn with positive probability.
    """
    l11 = draw(st.floats(1e-3, 10.0))
    l21 = draw(st.one_of(st.just(0.0), st.floats(-15.0, 15.0)))
    l22 = draw(st.one_of(st.just(0.0), st.floats(0.0, math.sqrt(225.0 - l21 * l21))))
    return DecisionCov(omega_star=l11 * l11, chi=l11 * l21, v=l21 * l21 + l22 * l22)


@settings(max_examples=150, deadline=None, database=None)
@given(factored_covariances())
@example(DecisionCov(omega_star=1.0, chi=-0.6, v=0.8))
@example(DecisionCov(omega_star=0.7, chi=0.7 * 1.3, v=0.7 * 1.3 * 1.3))
@example(DecisionCov(omega_star=2.0, chi=0.0, v=0.5))
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
    value, err = _quad_one(DecisionCov(omega_star=1e-4, chi=0.0, v=100.0), MetricKind.LOGISTIC)
    assert err <= 1e-9
    assert abs(value - _normal_trapezoid(lambda z: np.logaddexp(0.0, 10.0 * z))) <= 1e-8


@settings(max_examples=60, deadline=None, database=None)
@given(
    factored_covariances(),
    st.lists(factored_covariances(), max_size=9),
    st.integers(0, 9),
    st.sampled_from([MetricKind.LOGISTIC, MetricKind.HINGE]),
)
def test_quad_batch_entry_equals_lone_evaluation(cov, others, position, metric):
    # a covariance gives the same (value, err) bit for bit in any batch, so
    # CSV bytes do not depend on how a runner groups its rows
    batch = others[:position] + [cov] + others[position:]
    values, errs = quad_metric_risk(batch, metric)
    i = min(position, len(others))
    assert values.shape == errs.shape == (len(batch),)
    assert (values[i], errs[i]) == _quad_one(cov, metric)


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


@pytest.mark.parametrize("cuts", [(0.0, 9.0), (0.0, 0.37, 9.0)])
@pytest.mark.parametrize("order", [150, 300])
def test_half_normal_rule_moments(order, cuts):
    # the error estimate of quad_metric_risk cannot see an error shared by
    # both orders, so the rule's own moments are pinned here
    h, w = _half_normal_rule(order, cuts)
    assert abs(w.sum() - 1.0) <= 5e-15
    assert abs(w @ h - math.sqrt(2.0 / math.pi)) <= 5e-15
    assert abs(w @ (h * h) - 1.0) <= 5e-15
