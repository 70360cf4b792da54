"""Tests for ground-truth sampling, covariate draws, and label mechanisms."""

import numpy as np
import numpy.testing as npt
import pytest

from riskshift.datagen import (
    LinearGaussian,
    NoisySign,
    label,
    sample_beta,
    sample_covariates,
)
from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.shiftmodel import subspace_shift_model
from riskshift.subspace import SubspacePairSpec

from oracles import sigma_dense


def test_sample_beta_moments_and_determinism():
    beta = sample_beta(5000, 2.5, 42)
    assert beta.shape == (5000,)
    assert not beta.flags.writeable
    assert np.mean(beta ** 2) == pytest.approx(2.5, rel=0.1)
    npt.assert_array_equal(beta, sample_beta(5000, 2.5, 42))


def test_sample_beta_validation():
    with pytest.raises(InvalidDimensionError):
        sample_beta(0, 1.0, 0)
    with pytest.raises(NumericInputError):
        sample_beta(4, -1.0, 0)


def test_sample_covariates_live_in_support():
    pair = subspace_shift_model(SubspacePairSpec(30, 12, 9, 6), 2.0, 1)
    x = sample_covariates(pair, 50, 2)
    assert x.shape == (50, 30)
    rotated = x @ pair.eigenbasis.columns
    # coordinates outside the P support are exactly zero up to roundoff
    npt.assert_allclose(rotated[:, 12:], 0.0, atol=1e-12)


def test_sample_covariates_second_moment():
    pair = subspace_shift_model(SubspacePairSpec(10, 6, 5, 3), 2.0, 3)
    n = 200_000
    x = sample_covariates(pair, n, 4)
    emp = x.T @ x / n
    npt.assert_allclose(emp, sigma_dense(pair, "P") / 10, atol=0.02)


def test_sample_covariates_bad_inputs():
    pair = subspace_shift_model(SubspacePairSpec(6, 3, 2, 1), 1.0, 5)
    with pytest.raises(InvalidDimensionError):
        sample_covariates(pair, 0, 0)


def test_linear_gaussian_labels():
    beta = np.array([1.0, -2.0])
    x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
    rng_y = label(x, beta, LinearGaussian(sigma=3.0), 1)
    assert np.max(np.abs(rng_y - x @ beta)) > 0.1
    # noise variance check on a large sample
    xs = np.zeros((100_000, 2))
    noise = label(xs, beta, LinearGaussian(sigma=3.0), 2)
    assert np.var(noise) == pytest.approx(9.0, rel=0.05)


def test_noisy_sign_labels():
    beta = np.array([1.0])
    x = np.linspace(-2, 2, 200_001).reshape(-1, 1)
    y = label(x, beta, NoisySign(p=0.8), 3)
    assert set(np.unique(y)) == {-1.0, 1.0}
    clean = np.where(x[:, 0] >= 0, 1.0, -1.0)
    assert np.mean(y == clean) == pytest.approx(0.8, abs=0.01)
    # p_correct = 1 reproduces the clean signs exactly
    y_clean = label(x, beta, NoisySign(p=1.0), 4)
    npt.assert_array_equal(y_clean, clean)


def test_noiseless_linear_labels():
    beta = np.array([0.5, 0.5])
    x = np.random.default_rng(5).standard_normal((10, 2))
    # sigma = 0 gives the clean scores
    y = label(x, beta, LinearGaussian(0.0), 6)
    npt.assert_array_equal(y, x @ beta)


def test_label_mechanism_validation():
    with pytest.raises(NumericInputError):
        NoisySign(p=0.5)  # must exceed 1/2
    with pytest.raises(NumericInputError):
        NoisySign(p=1.1)
    with pytest.raises(NumericInputError):
        LinearGaussian(sigma=-1.0)
    with pytest.raises(NumericInputError):
        label(np.ones((3, 2)), np.ones(2), "not-a-mechanism", 0)


def test_label_validates_beta_star_and_x():
    x = np.ones((3, 2))
    kind = LinearGaussian(0.0)
    for bad_shape in (np.ones((2, 1)), np.ones(0), np.float64(1.0)):
        with pytest.raises(InvalidDimensionError):
            label(x, bad_shape, kind, 0)
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericInputError):
            label(x, np.array([1.0, bad]), kind, 0)
        with pytest.raises(NumericInputError):
            label(x * bad, np.ones(2), kind, 0)
    # beta_star's length must match the columns of x
    with pytest.raises(InvalidDimensionError):
        label(x, np.ones(3), kind, 0)
    with pytest.raises(InvalidDimensionError):
        label(np.ones(2), np.ones(2), kind, 0)
