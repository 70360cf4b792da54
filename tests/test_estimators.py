"""Tests for ridge and Newton-based empirical risk minimization."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit

import riskshift.estimators as estimators
import riskshift.harness.runners as runners
from riskshift.datagen import LinearGaussian, NoisySign, label, sample_covariates
from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.estimators import _sigmoid, erm_fit, ridge_fit
from riskshift.harness.config import KIND_CLASSIFICATION, config_from_mapping
from riskshift.shiftmodel import subspace_shift_model
from riskshift.subspace import SubspacePairSpec


def _ridge_data(n, d, sigma, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) / np.sqrt(d)
    y = label(x, rng.standard_normal(d), LinearGaussian(sigma=sigma), seed + 1)
    return x, y


def test_ridge_fit_matches_normal_equations():
    x, y = _ridge_data(60, 12, 0.3, 10)
    lam = 0.7
    beta_hat = ridge_fit(x, y, lam)
    expected = np.linalg.solve(x.T @ x + lam * np.eye(12), x.T @ y)
    npt.assert_allclose(beta_hat, expected, atol=1e-10)
    assert not beta_hat.flags.writeable


def _lstsq_ridge(x, y, lam):
    """Ridge as least squares on the stacked [X; sqrt(lam) I], [y; 0]: no normal equations."""
    d = x.shape[1]
    stacked_x = np.vstack([x, np.sqrt(lam) * np.eye(d)])
    stacked_y = np.concatenate([y, np.zeros(d)])
    return np.linalg.lstsq(stacked_x, stacked_y, rcond=None)[0]


@pytest.mark.parametrize("lam", [1e-3, 0.1, 10.0])
def test_ridge_fit_matches_stacked_least_squares(lam):
    # n > d with a full-rank X
    x, y = _ridge_data(80, 30, 0.3, 12)
    expected = _lstsq_ridge(x, y, lam)
    beta_hat = ridge_fit(x, y, lam)
    assert np.linalg.norm(beta_hat - expected) <= 1e-10 * np.linalg.norm(expected)
    # rank-deficient X as in the sweeps: n > d, rows confined to a d_p < d subspace
    pair = subspace_shift_model(SubspacePairSpec(40, 30, 20, 15), 2.0, 13)
    x = sample_covariates(pair, 60, 14)
    assert np.linalg.matrix_rank(x) == 30
    y = label(x, np.random.default_rng(15).standard_normal(40), LinearGaussian(sigma=0.3), 16)
    expected = _lstsq_ridge(x, y, lam)
    beta_hat = ridge_fit(x, y, lam)
    assert np.linalg.norm(beta_hat - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("fit", [ridge_fit, erm_fit])
def test_fits_validate_their_data(fit):
    x = np.ones((4, 2))
    y = np.ones(4)
    with pytest.raises(InvalidDimensionError):
        fit(x, np.ones(3), 0.1)
    with pytest.raises(InvalidDimensionError):
        fit(x, np.ones((4, 1)), 0.1)
    with pytest.raises(InvalidDimensionError):
        fit(np.ones(4), y, 0.1)
    with pytest.raises(InvalidDimensionError):
        fit(np.ones((0, 2)), np.ones(0), 0.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericInputError):
            fit(x * bad, y, 0.1)
        with pytest.raises(NumericInputError):
            fit(x, y * bad, 0.1)


def test_ridge_fit_rejects_a_non_finite_solution():
    # X^T X underflows to 0, so the finite system lam * beta = X^T y has the solution 3e100 / 1e-300 = inf
    x = np.full((3, 2), 1e-200)
    with pytest.raises(NumericInputError):
        ridge_fit(x, np.full(3, 1e300), 1e-300)


def test_ridge_fit_requires_positive_lambda():
    x, y = _ridge_data(20, 4, 0.1, 11)
    for lam in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(NumericInputError):
            ridge_fit(x, y, lam)


def test_logistic_fit_reaches_stationarity():
    rng = np.random.default_rng(13)
    n, d = 200, 8
    x = rng.standard_normal((n, d)) / np.sqrt(d)
    y = label(x, rng.standard_normal(d) * 3, NoisySign(p=0.9), 14)
    lam = 0.05
    fit = erm_fit(x, y, lam)
    assert fit.converged
    # stationarity of the full objective gradient at the documented tolerance
    m = y * (x @ fit.beta_hat)
    grad = -(x.T @ (y / (1.0 + np.exp(m)))) + lam * fit.beta_hat
    assert np.linalg.norm(grad) <= 1e-10 * (1.0 + np.linalg.norm(fit.beta_hat))


def test_logistic_requires_sign_labels():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((30, 3))
    y = rng.standard_normal(30)  # not in {-1, +1}
    with pytest.raises(NumericInputError):
        erm_fit(x, y, 0.1)


def test_logistic_heavy_regularization_shrinks_to_zero():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((50, 5))
    y = np.sign(rng.standard_normal(50))
    y[y == 0] = 1.0
    fit = erm_fit(x, y, 1e6)
    assert np.linalg.norm(fit.beta_hat) <= 1e-3
    assert fit.converged


def _sign_data(n, d, seed):
    x, y = _ridge_data(n, d, 0.2, seed)
    return x, np.where(y >= 0.0, 1.0, -1.0)


def test_non_convergence_is_flagged_not_raised(monkeypatch):
    monkeypatch.setattr(estimators, "_MAX_ITER", 1)
    fit = erm_fit(*_sign_data(120, 20, 17), 0.01)
    assert not fit.converged
    assert fit.iterations == 1


def test_warm_start_from_converged_fit_takes_no_step():
    x, y = _sign_data(120, 10, 20)
    fit = erm_fit(x, y, 0.1)
    assert fit.converged and fit.iterations > 0
    again = erm_fit(x, y, 0.1, beta0=fit.beta_hat)
    assert again.iterations == 0
    assert again.converged
    assert np.array_equal(again.beta_hat, fit.beta_hat)


def test_warm_started_classification_fit_takes_full_steps_near_optimum(monkeypatch):
    # trial 0 of the default classification sweep at master_seed 0, warm-started
    # up the lambda grid by the runner itself: at lambda = 100 the warm start is
    # so close to the optimum that an Armijo test on roundoff backtracks for
    # dozens of iterations
    fits = {}

    def recording_fit(x, y, lam, beta0=None):
        fit = erm_fit(x, y, lam, beta0=beta0)
        fits[lam] = fit
        return fit

    monkeypatch.setattr(runners, "erm_fit", recording_fit)
    config = config_from_mapping(KIND_CLASSIFICATION, {"trials": 1, "master_seed": 0})
    runners.run_classification_sweep(config)
    assert len(fits) == len(config["lambda_grid"])
    assert all(fit.converged for fit in fits.values())
    assert fits[100.0].iterations <= 8


def test_sigmoid_matches_scipy_expit():
    t = np.concatenate(
        [np.linspace(-800.0, 800.0, 200_001), np.random.default_rng(22).normal(0.0, 30.0, 100_000)]
    )
    ref = expit(t)
    normal = ref >= np.finfo(np.float64).tiny
    assert np.max(np.abs(_sigmoid(t[normal]) / ref[normal] - 1.0)) <= 1e-15
    assert np.array_equal(_sigmoid(np.array([0.0, -0.0])), [0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tails = _sigmoid(np.array([-800.0, 800.0]))
    assert np.array_equal(tails, [0.0, 1.0])


def test_warm_start_rejects_bad_beta0():
    x, y = _sign_data(40, 6, 21)
    with pytest.raises(InvalidDimensionError):
        erm_fit(x, y, 0.1, beta0=np.zeros(5))
    with pytest.raises(InvalidDimensionError):
        erm_fit(x, y, 0.1, beta0=np.zeros((6, 1)))
    bad = np.zeros(6)
    bad[2] = np.nan
    with pytest.raises(NumericInputError):
        erm_fit(x, y, 0.1, beta0=bad)
    bad[2] = np.inf
    with pytest.raises(NumericInputError):
        erm_fit(x, y, 0.1, beta0=bad)


def test_erm_fit_requires_positive_lambda():
    x, y = _sign_data(20, 4, 11)
    for lam in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(NumericInputError):
            erm_fit(x, y, lam)

