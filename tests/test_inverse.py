"""Tests for subspace denoising and compressed-sensing risk identities."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.inverse import (
    _OVERLAP_SLACK,
    InverseProblem,
    cs_relation_residual,
    cs_risks,
    denoise_grid,
    gaussian_measurement,
    inner_product_preservation_stats,
    sketch_bases,
)
from riskshift.subspace import (
    OrthonormalBasis,
    SubspacePairSpec,
    haar_basis,
    overlap_coefficient,
    overlapping_pair,
    subspace_similarity,
)

from oracles import cs_risks_exact, principal_angles


def _coordinate_problem(d=40, d_p=10, shared=5, d_q=10, **kw):
    """Axis-aligned subspaces with overlap shared / d_q."""
    eye = np.eye(d)
    u_p = OrthonormalBasis(eye[:, :d_p])
    cols = list(range(shared)) + list(range(d_p, d_p + d_q - shared))
    u_q = OrthonormalBasis(eye[:, cols])
    defaults = dict(sigma_p_sq=0.01, sigma_q_sq=0.01, lam=0.1)
    defaults.update(kw)
    return InverseProblem(u_p, u_q, **defaults)


def _risks(a_matrix, problem):
    """cs_risks of the measurements a_matrix: (risk_P, risk_Q)."""
    return cs_risks(sketch_bases(a_matrix, problem), problem)


def _denoise_point(problem):
    """denoise_grid at the problem's one point: (risk_P, risk_Q, alpha, residual)."""
    return denoise_grid(
        problem.overlap, problem.d_p, problem.d_q, problem.sigma_p_sq, problem.sigma_q_sq, problem.lam
    )


_PROPERTY = settings(max_examples=150, deadline=None, database=None)


@st.composite
def inverse_problems(draw):
    """Any valid problem: d <= 24, seeded overlapping pair, noise and ridge weights >= 0."""
    d = draw(st.integers(1, 24))
    d_p = draw(st.integers(1, d))
    d_q = draw(st.integers(1, d))
    d_pq = draw(st.integers(max(0, d_p + d_q - d), min(d_p, d_q)))
    u_p, u_q = overlapping_pair(SubspacePairSpec(d, d_p, d_q, d_pq), draw(st.integers(0, 2**32 - 1)))
    weights = st.floats(0.0, 10.0)
    return InverseProblem(u_p, u_q, draw(weights), draw(weights), draw(st.floats(0.0, 100.0)))


def test_inverse_problem_validation():
    u_p = haar_basis(20, 5, seed=0)
    u_q = haar_basis(30, 5, seed=1)
    with pytest.raises(InvalidDimensionError):
        InverseProblem(u_p, u_q, 0.1, 0.1, 0.0)
    with pytest.raises(InvalidDimensionError):
        InverseProblem(u_p.columns, u_p, 0.1, 0.1, 0.0)
    u_q = haar_basis(20, 7, seed=1)
    with pytest.raises(NumericInputError):
        InverseProblem(u_p, u_q, -0.1, 0.1, 0.0)
    with pytest.raises(NumericInputError):
        InverseProblem(u_p, u_q, 0.1, 0.1, np.inf)
    prob = InverseProblem(u_p, u_q, 0.1, 0.2, 0.3)
    assert (prob.d, prob.d_p, prob.d_q) == (20, 5, 7)
    # each weight is one problem's real number; grids of weights go to denoise_grid
    for weights, name in [
        ((np.array([0.1, 0.2]), 0.1, 0.1), "sigma_p_sq"),
        ((0.1, np.array([[0.1]]), 0.1), "sigma_q_sq"),
        ((0.1, 0.1, [0.1]), "lam"),
        ((0.1, np.array(0.2), 0.3), "sigma_q_sq"),
    ]:
        with pytest.raises(NumericInputError, match=f"{name} must be a real number"):
            InverseProblem(u_p, u_q, *weights)
    # a numpy scalar is stored as its float
    scalars = InverseProblem(u_p, u_q, np.float64(0.1), np.float64(0.2), 0.3)
    assert type(scalars.sigma_p_sq) is float
    assert _risks(np.eye(20), scalars) == _risks(np.eye(20), prob)


def test_denoise_risks_hand_values():
    # noiseless interpolation recovers the signal on P and leaves 1 - a on Q
    prob = _coordinate_problem(sigma_p_sq=0.0, sigma_q_sq=0.0, lam=0.0)
    risk_p, risk_q, alpha, _ = _denoise_point(prob)
    assert alpha == 1.0
    assert risk_p == pytest.approx(0.0, abs=1e-15)
    assert risk_q == pytest.approx(1.0 - prob.overlap, rel=1e-12)
    assert prob.overlap == pytest.approx(0.5, abs=1e-12)
    # identical subspaces and noise levels: no shift at all
    u = haar_basis(30, 8, seed=3)
    same = InverseProblem(u, u, 0.3, 0.3, 0.7)
    risk_p, risk_q, *_ = _denoise_point(same)
    assert risk_q == pytest.approx(risk_p, rel=1e-12)
    # unit signal-to-noise ratio halves the shrinkage
    snr_one = _coordinate_problem(sigma_p_sq=1.0, lam=0.0)
    risk_p, _, alpha, _ = _denoise_point(snr_one)
    assert alpha == pytest.approx(0.5, rel=1e-14)
    assert risk_p == pytest.approx(0.5, rel=1e-14)


def test_denoise_relation_is_identity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(10, 40))
        d_p = int(rng.integers(1, d // 2 + 1))
        d_q = int(rng.integers(1, d // 2 + 1))
        rot = haar_basis(d, d, seed=int(rng.integers(2**31))).columns
        u_p = OrthonormalBasis(rot[:, :d_p])
        u_q = OrthonormalBasis(rot[:, d // 2 : d // 2 + d_q])
        prob = InverseProblem(
            u_p,
            u_q,
            float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(0.0, 5.0)),
        )
        risk_p, risk_q, _, residual = _denoise_point(prob)
        assert residual <= 1e-12
        assert risk_p >= -1e-12 and risk_q >= -1e-12


@_PROPERTY
@given(inverse_problems())
def test_denoise_relation_exact_for_any_problem(prob):
    assert _denoise_point(prob)[3] <= 1e-12


@st.composite
def subspace_pairs(draw):
    """Any pair of bases of one ambient dimension d <= 24: a seeded overlapping pair or two Haar bases."""
    d = draw(st.integers(1, 24))
    d_p = draw(st.integers(1, d))
    d_q = draw(st.integers(1, d))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        d_pq = draw(st.integers(max(0, d_p + d_q - d), min(d_p, d_q)))
        return overlapping_pair(SubspacePairSpec(d, d_p, d_q, d_pq), seed)
    return haar_basis(d, d_p, seed), haar_basis(d, d_q, seed + 1)


@_PROPERTY
@given(subspace_pairs())
def test_overlap_and_similarity_match_principal_angles(pair):
    u_p, u_q = pair
    cos_sq = float(np.sum(np.cos(principal_angles(u_p, u_q)) ** 2))
    assert abs(overlap_coefficient(u_p, u_q) - cos_sq / u_q.rank) <= 1e-12
    assert abs(subspace_similarity(u_p, u_q) ** 2 - cos_sq / min(u_p.rank, u_q.rank)) <= 1e-12
    prob = InverseProblem(u_p, u_q, 0.0, 0.0, 0.0)
    assert prob.overlap == overlap_coefficient(u_p, u_q)


@_PROPERTY
@given(inverse_problems())
def test_cs_identity_measurement_matches_denoising_for_any_problem(prob):
    denom = prob.sigma_p_sq + prob.lam
    # eta = 1/(sigma_P^2 + lam) must exist as a finite float (subnormal sums overflow it)
    if not (denom > 0.0 and math.isfinite(1.0 / denom)):
        with pytest.raises(NumericInputError):
            _risks(np.eye(prob.d), prob)
        return
    risk_p, risk_q = _risks(np.eye(prob.d), prob)
    den_p, den_q, *_ = _denoise_point(prob)
    assert risk_p == pytest.approx(den_p, abs=1e-10)
    assert risk_q == pytest.approx(den_q, abs=1e-10)


@_PROPERTY
@given(inverse_problems(), st.integers(0, 2**32 - 1), st.integers(0, 20))
def test_risks_are_rotation_equivariant(prob, seed, extra):
    # the risks see the bases only through V-invariant products, so ulp-level
    # changes in the Haar frame cannot move them beyond roundoff
    v = haar_basis(prob.d, prob.d, seed).columns
    rotated = InverseProblem(
        OrthonormalBasis(v @ prob.u_p.columns),
        OrthonormalBasis(v @ prob.u_q.columns),
        prob.sigma_p_sq,
        prob.sigma_q_sq,
        prob.lam,
    )
    npt.assert_allclose(_denoise_point(rotated)[:3], _denoise_point(prob)[:3], rtol=0, atol=1e-12)
    # the compressed-sensing half needs a finite eta * M, eta = 1/(sigma_P^2 + lam)
    if prob.sigma_p_sq + prob.lam < 1e-200:
        return
    # well-conditioned measurements: n at least twice each subspace dimension
    a = gaussian_measurement(2 * max(prob.d_p, prob.d_q) + extra, prob.d, seed)
    npt.assert_allclose(_risks(a @ v.T, rotated), _risks(a, prob), rtol=0, atol=1e-12)


def test_denoise_grid_validates_every_weight():
    snr_column = np.array([[0.1], [0.2]])
    lams = np.array([0.0, 1.0])
    # the first entry that is negative or not finite is named, in a grid as in a problem
    with pytest.raises(NumericInputError, match="sigma_p_sq must be >= 0, got -0.1"):
        denoise_grid(0.5, 10, 10, np.array([[0.1], [-0.1]]), snr_column, lams)
    with pytest.raises(NumericInputError, match="sigma_q_sq must be finite, got inf"):
        denoise_grid(0.5, 10, 10, snr_column, np.array([[math.inf], [0.1]]), lams)
    with pytest.raises(NumericInputError, match="lam must be finite, got nan"):
        denoise_grid(0.5, 10, 10, snr_column, snr_column, np.array([1.0, math.nan]))
    with pytest.raises(NumericInputError, match="lam must be finite, got nan"):
        _coordinate_problem(lam=math.nan)
    risk_p, risk_q, alpha, residual = denoise_grid(0.5, 10, 10, snr_column, snr_column, lams)
    assert risk_p.shape == risk_q.shape == alpha.shape == residual.shape == (2, 2)


def test_denoise_grid_refuses_ranks_and_overlaps_outside_their_domain():
    # a zero rank divided by zero, and a negative rank, an overlap of 1.7 (risk_q < 0) or nan gave risks
    for d_p, d_q in [(3, 0), (-3, 3), (3.5, 3), (3, True)]:
        with pytest.raises(InvalidDimensionError, match="^d_[pq] must be"):
            denoise_grid(0.5, d_p, d_q, 0.1, 0.1, 0.1)
    for a in (1.7, math.nextafter(1.0 + _OVERLAP_SLACK, 2.0), -5e-324, math.nan, math.inf):
        with pytest.raises(NumericInputError, match="^a must be"):
            denoise_grid(a, 3, 3, 0.1, 0.1, 0.1)
    # a nested pair's realized overlap rounds past 1 (the default denoise run has 1.0000000000000002)
    rng = np.random.default_rng(39)
    for _ in range(200):
        d = int(rng.integers(1, 61))
        d_p = int(rng.integers(1, d + 1))
        d_q = int(rng.integers(1, d_p + 1))
        u_p, u_q = overlapping_pair(SubspacePairSpec(d, d_p, d_q, d_q), rng)
        residual = denoise_grid(overlap_coefficient(u_p, u_q), d_p, d_q, 0.1, 0.1, 0.1)[3]
        assert residual <= 1e-12


def test_denoise_curve_linearity_depends_on_snr():
    lams = np.geomspace(1e-3, 1e2, 50)

    def sweep_ssr(sigma_sq, shared):
        pts = []
        for lam in lams:
            prob = _coordinate_problem(
                shared=shared, sigma_p_sq=sigma_sq, sigma_q_sq=sigma_sq, lam=float(lam)
            )
            risk_p, risk_q, _, residual = _denoise_point(prob)
            assert residual <= 1e-12
            pts.append((risk_p, risk_q))
        pts = np.asarray(pts)
        _, res, *_ = np.polyfit(pts[:, 0], pts[:, 1], 1, full=True)
        return float(res[0]) if res.size else 0.0

    # low noise: the quadratic alpha^2 term is negligible and the curve is near affine
    assert sweep_ssr(0.01, shared=5) <= 1e-3
    # unit noise with disjoint subspaces: visibly curved
    assert sweep_ssr(1.0, shared=0) > 1e-2


def test_gaussian_measurement_moments_and_determinism():
    npt.assert_array_equal(gaussian_measurement(50, 20, 7), gaussian_measurement(50, 20, 7))
    assert not np.array_equal(gaussian_measurement(50, 20, 7), gaussian_measurement(50, 20, 8))
    with pytest.raises(InvalidDimensionError):
        gaussian_measurement(0, 20, 7)
    with pytest.raises(InvalidDimensionError):
        gaussian_measurement(50, 0, 7)
    # E||Au||^2 = 1 for unit u, and column variance is 1/n
    n, d, reps = 100, 30, 1000
    u = np.zeros(d)
    u[0] = 1.0
    norms = np.empty(reps)
    col_vars = np.empty(reps)
    for seed in range(reps):
        a = gaussian_measurement(n, d, seed)
        norms[seed] = float(np.sum((a @ u) ** 2))
        col_vars[seed] = float(np.var(a[:, 0]))
    # ||Au||^2 is a chi-square with n dofs scaled by 1/n: variance 2/n
    se = np.sqrt(2.0 / n / reps)
    assert abs(np.mean(norms) - 1.0) <= 3.0 * se
    assert abs(np.mean(col_vars) - 1.0 / n) <= 3.0 * se / n


def test_cs_risks_reduce_to_denoiser_scale():
    # orthogonal measurements make M the identity and S the denoising shrinkage
    q = haar_basis(40, 40, seed=9).columns
    for lam in (0.5, 1e12):
        prob = _coordinate_problem(sigma_p_sq=0.5, lam=lam)
        npt.assert_allclose(_risks(q, prob), _denoise_point(prob)[:2], rtol=0, atol=1e-12)


def test_cs_risks_concentrate_for_many_measurements():
    d, d_p = 200, 40
    rot = haar_basis(d, d, seed=11).columns
    u_p = OrthonormalBasis(rot[:, :d_p])
    u_q = OrthonormalBasis(rot[:, d_p : 2 * d_p])
    prob = InverseProblem(u_p, u_q, 0.01, 0.01, 0.1)
    denoised = np.array(_denoise_point(prob)[:2])
    # relative gaps of (risk_P, risk_Q) to the denoising risks, which Gaussian
    # measurements approach as n grows
    gaps = [
        np.abs(np.array(_risks(gaussian_measurement(n, d, seed=13), prob)) - denoised) / denoised
        for n in (500, 2000, 8000)
    ]
    assert np.all(gaps[-1] <= 0.02)
    assert gaps[0][0] > gaps[1][0] > gaps[2][0]


def test_cs_risks_validation():
    prob = _coordinate_problem()
    with pytest.raises(InvalidDimensionError):
        sketch_bases(np.zeros((50, prob.d + 1)), prob)
    with pytest.raises(NumericInputError):
        sketch_bases(np.full((50, prob.d), np.nan), prob)
    # the risks check the sketch they are given: one column per basis vector, finite
    with pytest.raises(InvalidDimensionError):
        cs_risks(np.zeros((50, prob.d_p + prob.d_q + 1)), prob)
    with pytest.raises(NumericInputError):
        cs_risks(np.full((50, prob.d_p + prob.d_q), np.inf), prob)
    # fewer measurements than either subspace dimension is underdetermined
    with pytest.raises(InvalidDimensionError):
        _risks(np.zeros((prob.d_p - 1, prob.d)), prob)
    noiseless = _coordinate_problem(sigma_p_sq=0.0, lam=0.0)
    with pytest.raises(NumericInputError):
        _risks(np.eye(prob.d), noiseless)
    # a subnormal sigma_P^2 + lam overflows eta = 1/(sigma_P^2 + lam)
    with pytest.raises(NumericInputError):
        _risks(np.eye(prob.d), _coordinate_problem(sigma_p_sq=0.0, lam=1e-310))
    # a finite eta whose product with M overflows
    with pytest.raises(NumericInputError), np.errstate(over="ignore"):
        _risks(1e5 * np.eye(prob.d), _coordinate_problem(sigma_p_sq=0.0, lam=1e-300))


@st.composite
def small_cs_cases(draw):
    """(d, d_p, d_q, d_pq, pair seed, n, A seed, sigma_P^2, sigma_Q^2, lam), sigma_P^2 + lam in [1e-3, 1e2]."""
    d = draw(st.integers(1, 10))
    d_p = draw(st.integers(1, min(4, d)))
    d_q = draw(st.integers(1, min(4, d)))
    d_pq = draw(st.integers(max(0, d_p + d_q - d), min(d_p, d_q)))
    n = draw(st.integers(2 * max(d_p, d_q), 16))
    total = draw(st.floats(1e-3, 1e2))
    sigma_p_sq = total * draw(st.floats(0.0, 1.0))
    seeds = st.integers(0, 2**32 - 1)
    return (d, d_p, d_q, d_pq, draw(seeds), n, draw(seeds), sigma_p_sq, draw(st.floats(0.0, 10.0)), total - sigma_p_sq)


@_PROPERTY
@given(small_cs_cases())
# sum ||I - S M||^2 from an explicit inverse cancels here: 7.1e-13 relative off
@example((6, 1, 3, 0, 4007042974, 14, 900510677, 0.0, 0.0, 1e-3))
def test_cs_risks_match_their_exact_rational_definition(case):
    d, d_p, d_q, d_pq, pair_seed, n, a_seed, sigma_p_sq, sigma_q_sq, lam = case
    u_p, u_q = overlapping_pair(SubspacePairSpec(d, d_p, d_q, d_pq), pair_seed)
    prob = InverseProblem(u_p, u_q, sigma_p_sq, sigma_q_sq, lam)
    sketch = sketch_bases(gaussian_measurement(n, d, a_seed), prob)
    (risk_p, risk_q), (want_p, want_q) = cs_risks(sketch, prob), cs_risks_exact(sketch, prob)
    assert abs(risk_p - want_p) <= 1e-13 * want_p
    # risk_Q adds d_Q - d_Q a to ||G - S N||^2, terms of size d_Q, so it is
    # exact only to a few ulp of 1: 1.3e-10 relative where U_Q lies in U_P
    # and risk_Q is 2e-6, and the same with an explicit inverse
    assert abs(risk_q - want_q) <= 1e-13 * want_q + 4 * np.finfo(float).eps


def test_cs_risks_identity_measurement_matches_denoising():
    prob = _coordinate_problem(sigma_p_sq=0.3, sigma_q_sq=0.7, lam=0.4)
    sketch = sketch_bases(np.eye(prob.d), prob)
    risk_p, risk_q = cs_risks(sketch, prob)
    den_p, den_q, *_ = _denoise_point(prob)
    assert risk_p == pytest.approx(den_p, abs=1e-10)
    assert risk_q == pytest.approx(den_q, abs=1e-10)
    assert cs_relation_residual(sketch, prob) <= 1e-12


def test_cs_risks_limits_and_self_shift():
    prob = _coordinate_problem(sigma_p_sq=0.2, sigma_q_sq=0.2, lam=1e12)
    a = gaussian_measurement(100, prob.d, seed=17)
    risk_p, risk_q = _risks(a, prob)
    assert risk_p == pytest.approx(1.0, abs=1e-9)
    assert risk_q == pytest.approx(1.0, abs=1e-9)
    # same subspace and noise on both sides: no shift in the exact risks
    u = haar_basis(60, 12, seed=19)
    same = InverseProblem(u, u, 0.4, 0.4, 0.8)
    sketch = sketch_bases(gaussian_measurement(150, 60, seed=23), same)
    risk_p, risk_q = cs_risks(sketch, same)
    assert risk_q == pytest.approx(risk_p, abs=1e-10)
    # a sketch of another problem's bases has the wrong column count for this one
    with pytest.raises(InvalidDimensionError):
        cs_risks(sketch, _coordinate_problem())


def test_cs_relation_residual_shrinks_with_measurements():
    d, d_p, d_q = 200, 40, 40
    rot = haar_basis(d, d, seed=29).columns
    u_p = OrthonormalBasis(rot[:, :d_p])
    u_q = OrthonormalBasis(rot[:, d_p // 2 : d_p // 2 + d_q])
    prob = InverseProblem(u_p, u_q, 0.01, 0.01, 0.1)
    res_small = cs_relation_residual(sketch_bases(gaussian_measurement(500, d, 31), prob), prob)
    res_large = cs_relation_residual(sketch_bases(gaussian_measurement(40 * d, d, 31), prob), prob)
    assert res_large <= 0.02
    assert res_large < res_small


def _pair_problem(spec, seed):
    u_p, u_q = overlapping_pair(spec, seed)
    return InverseProblem(u_p, u_q, 0.01, 0.01, 0.1)


def test_inner_product_preservation():
    d = 60
    # an orthogonal map preserves every inner product of [U_P U_Q]'s 20 columns
    prob = _pair_problem(SubspacePairSpec(d, 12, 8, 3), 43)
    sketch = sketch_bases(haar_basis(d, d, seed=41).columns, prob)
    assert inner_product_preservation_stats(sketch, prob) <= 1e-12
    with pytest.raises(InvalidDimensionError):
        inner_product_preservation_stats(sketch[:, :-1], prob)
    with pytest.raises(InvalidDimensionError):
        inner_product_preservation_stats(sketch[:, 0], prob)
    with pytest.raises(InvalidDimensionError):
        inner_product_preservation_stats(sketch[:0], prob)
    # Gaussian sketches preserve them within 0.2 in at least 95 of 100 seeds
    hits = sum(
        inner_product_preservation_stats(sketch_bases(gaussian_measurement(2000, d, seed), prob), prob) <= 0.2
        for seed in range(100)
    )
    assert hits >= 95


def test_inner_product_preservation_scales_with_measurements():
    d = 60
    prob = _pair_problem(SubspacePairSpec(d, 6, 4, 2), 47)
    medians = []
    for n in (500, 8000):
        devs = [
            inner_product_preservation_stats(sketch_bases(gaussian_measurement(n, d, 1000 + s), prob), prob)
            for s in range(20)
        ]
        medians.append(float(np.median(devs)))
    # a 16x larger sketch should shrink the deviation by about sqrt(16) = 4
    ratio = medians[0] / medians[1]
    assert 2.0 <= ratio <= 8.0
