"""Tests for orthonormal bases, overlapping pairs, and principal angles."""

import numpy as np
import numpy.testing as npt
import pytest

from riskshift.errors import InvalidDimensionError
from riskshift.subspace import (
    OrthonormalBasis,
    SubspacePairSpec,
    haar_basis,
    overlap_coefficient,
    overlapping_pair,
    subspace_similarity,
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
