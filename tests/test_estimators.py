"""Tests for ridge and Newton-based empirical risk minimization."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit

import riskshift.estimators as estimators
import riskshift.harness.runners as runners
from riskshift.datagen import Dataset, GroundTruth, LinearGaussian, NoisySign, label
from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.estimators import _sigmoid, erm_fit, ridge_fit
from riskshift.harness.config import KIND_CLASSIFICATION, config_from_mapping


def _ridge_data(n, d, sigma, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) / np.sqrt(d)
    beta = rng.standard_normal(d)
    gt = GroundTruth(beta_star=beta, sigma_beta_sq=1.0)
    y = label(x, gt, LinearGaussian(sigma=sigma), seed + 1)
    return Dataset(x, y), beta


def test_ridge_fit_matches_normal_equations():
    data, _ = _ridge_data(60, 12, 0.3, 10)
    lam = 0.7
    fit = ridge_fit(data, lam)
    expected = np.linalg.solve(data.x.T @ data.x + lam * np.eye(12), data.x.T @ data.y)
    npt.assert_allclose(fit.beta_hat, expected, atol=1e-10)
    assert fit.converged


def test_ridge_fit_requires_positive_lambda():
    data, _ = _ridge_data(20, 4, 0.1, 11)
    with pytest.raises(NumericInputError):
        ridge_fit(data, 0.0)
    with pytest.raises(NumericInputError):
        ridge_fit(data, -1.0)


def test_logistic_fit_reaches_stationarity():
    rng = np.random.default_rng(13)
    n, d = 200, 8
    x = rng.standard_normal((n, d)) / np.sqrt(d)
    gt = GroundTruth(beta_star=rng.standard_normal(d) * 3, sigma_beta_sq=9.0)
    y = label(x, gt, NoisySign(p=0.9), 14)
    lam = 0.05
    fit = erm_fit(Dataset(x, y), lam)
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
        erm_fit(Dataset(x, y), 0.1)


def test_logistic_heavy_regularization_shrinks_to_zero():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((50, 5))
    y = np.sign(rng.standard_normal(50))
    y[y == 0] = 1.0
    fit = erm_fit(Dataset(x, y), 1e6)
    assert np.linalg.norm(fit.beta_hat) <= 1e-3
    assert fit.converged


def _sign_data(n, d, seed):
    data, _ = _ridge_data(n, d, 0.2, seed)
    y = np.sign(data.y)
    y[y == 0] = 1.0
    return Dataset(data.x, y)


def test_non_convergence_is_flagged_not_raised(monkeypatch):
    monkeypatch.setattr(estimators, "_MAX_ITER", 1)
    fit = erm_fit(_sign_data(120, 20, 17), 0.01)
    assert not fit.converged
    assert fit.iterations == 1


def test_warm_start_from_converged_fit_takes_no_step():
    data = _sign_data(120, 10, 20)
    fit = erm_fit(data, 0.1)
    assert fit.converged and fit.iterations > 0
    again = erm_fit(data, 0.1, beta0=fit.beta_hat)
    assert again.iterations == 0
    assert again.converged
    assert np.array_equal(again.beta_hat, fit.beta_hat)


def test_warm_started_classification_fit_takes_full_steps_near_optimum(monkeypatch):
    # trial 0 of the default classification sweep at master_seed 0, warm-started
    # up the lambda grid by the runner itself: at lambda = 100 the warm start is
    # so close to the optimum that an Armijo test on roundoff backtracks for
    # dozens of iterations
    fits = {}

    def recording_fit(data, lam, beta0=None):
        fit = erm_fit(data, lam, beta0=beta0)
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
    data = _sign_data(40, 6, 21)
    with pytest.raises(InvalidDimensionError):
        erm_fit(data, 0.1, beta0=np.zeros(5))
    with pytest.raises(InvalidDimensionError):
        erm_fit(data, 0.1, beta0=np.zeros((6, 1)))
    bad = np.zeros(6)
    bad[2] = np.nan
    with pytest.raises(NumericInputError):
        erm_fit(data, 0.1, beta0=bad)
    bad[2] = np.inf
    with pytest.raises(NumericInputError):
        erm_fit(data, 0.1, beta0=bad)


def test_erm_fit_requires_positive_lambda():
    data = _sign_data(20, 4, 11)
    for lam in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(NumericInputError):
            erm_fit(data, lam)

