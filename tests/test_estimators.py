"""Tests for ridge and Newton-based empirical risk minimization."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import riskshift.estimators as estimators
import riskshift.harness.runners as runners
from riskshift.datagen import LinearGaussian, NoisySign, label, sample_covariates
from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.estimators import FittedModel, _sigmoid, erm_fit, ridge_fit
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
    beta_hat = ridge_fit(x, y, [lam])[0]
    expected = np.linalg.solve(x.T @ x + lam * np.eye(12), x.T @ y)
    npt.assert_allclose(beta_hat, expected, atol=1e-10)
    assert not beta_hat.flags.writeable


def _lstsq_ridge(x, y, lam):
    """Ridge as least squares on the stacked [X; sqrt(lam) I], [y; 0]: no normal equations."""
    d = x.shape[1]
    stacked_x = np.vstack([x, np.sqrt(lam) * np.eye(d)])
    stacked_y = np.concatenate([y, np.zeros(d)])
    return np.linalg.lstsq(stacked_x, stacked_y, rcond=None)[0]


def _one_lambda_solve(x, y, lam):
    """The normal equations of one ridge weight, solved on their own Gram matrix."""
    h = x.T @ x
    h[np.diag_indices_from(h)] += lam
    return np.linalg.solve(h, x.T @ y)


def _ridge_problems():
    """A full-rank X with n > d, and a rank-deficient X as in the sweeps: rows in a d_p < d subspace."""
    full_rank = _ridge_data(80, 30, 0.3, 12)
    pair = subspace_shift_model(SubspacePairSpec(40, 30, 20, 15), 2.0, 13)
    x = sample_covariates(pair, 60, 14)
    assert np.linalg.matrix_rank(x) == 30
    y = label(x, np.random.default_rng(15).standard_normal(40), LinearGaussian(sigma=0.3), 16)
    return [full_rank, (x, y)]


@pytest.mark.parametrize("lam", [1e-3, 0.1, 10.0])
def test_ridge_fit_matches_stacked_least_squares(lam):
    for x, y in _ridge_problems():
        expected = _lstsq_ridge(x, y, lam)
        beta_hat = ridge_fit(x, y, [lam])[0]
        assert np.linalg.norm(beta_hat - expected) <= 1e-10 * np.linalg.norm(expected)


def test_ridge_fit_grid_rows_are_one_lambda_solves():
    # unsorted, with a repeat: each row is its own weight's solve, whatever the others are
    lams = [10.0, 1e-3, 0.1, 2.5, 1e-3]
    for x, y in _ridge_problems():
        betas = ridge_fit(x, y, lams)
        assert betas.shape == (len(lams), x.shape[1])
        assert not betas.flags.writeable
        for lam, beta_hat in zip(lams, betas):
            assert np.array_equal(beta_hat, _one_lambda_solve(x, y, lam))
            assert np.array_equal(beta_hat, ridge_fit(x, y, [lam])[0])
            expected = _lstsq_ridge(x, y, lam)
            assert np.linalg.norm(beta_hat - expected) <= 1e-10 * np.linalg.norm(expected)


_FITS = [pytest.param(ridge_fit, id="ridge_fit"), pytest.param(erm_fit, id="erm_fit")]


@pytest.mark.parametrize("fit", _FITS)
def test_fits_validate_their_data(fit):
    x = np.ones((4, 2))
    y = np.ones(4)
    lam = [0.1]
    with pytest.raises(InvalidDimensionError):
        fit(x, np.ones(3), lam)
    with pytest.raises(InvalidDimensionError):
        fit(x, np.ones((4, 1)), lam)
    with pytest.raises(InvalidDimensionError):
        fit(np.ones(4), y, lam)
    with pytest.raises(InvalidDimensionError):
        fit(np.ones((0, 2)), np.ones(0), lam)
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericInputError):
            fit(x * bad, y, lam)
        with pytest.raises(NumericInputError):
            fit(x, y * bad, lam)


def test_ridge_fit_rejects_a_non_finite_solution():
    # X^T X underflows to 0, so the finite system lam * beta = X^T y has the solution 3e100 / 1e-300 = inf
    x = np.full((3, 2), 1e-200)
    for lams in ([1e-300], [1.0, 1e-300]):
        with pytest.raises(NumericInputError):
            ridge_fit(x, np.full(3, 1e300), lams)


@pytest.mark.parametrize("fit", _FITS)
def test_fits_require_positive_lambda(fit):
    x, y = _sign_data(20, 4, 11)
    # the grid is a nonempty 1-d sequence: a bare scalar is not one
    for shapeless in ([], 0.1, [[0.1, 1.0]]):
        with pytest.raises(InvalidDimensionError):
            fit(x, y, shapeless)
    for lam in (0.0, -1.0, np.nan, np.inf):
        for at in range(3):
            lams = [0.1, 1.0, 10.0]
            lams[at] = lam
            with pytest.raises(NumericInputError, match="lams must be (> 0, got|finite)"):
                fit(x, y, lams)


def test_logistic_fit_reaches_stationarity():
    rng = np.random.default_rng(13)
    n, d = 200, 8
    x = rng.standard_normal((n, d)) / np.sqrt(d)
    y = label(x, rng.standard_normal(d) * 3, NoisySign(p=0.9), 14)
    lam = 0.05
    (fit,) = erm_fit(x, y, [lam])
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
        erm_fit(x, y, [0.1])


def test_logistic_heavy_regularization_shrinks_to_zero():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((50, 5))
    y = np.sign(rng.standard_normal(50))
    y[y == 0] = 1.0
    (fit,) = erm_fit(x, y, [1e6])
    assert np.linalg.norm(fit.beta_hat) <= 1e-3
    assert fit.converged


def _sign_data(n, d, seed):
    x, y = _ridge_data(n, d, 0.2, seed)
    return x, np.where(y >= 0.0, 1.0, -1.0)


def test_non_convergence_is_flagged_not_raised(monkeypatch):
    monkeypatch.setattr(estimators, "_MAX_ITER", 1)
    (fit,) = erm_fit(*_sign_data(120, 20, 17), [0.01])
    assert not fit.converged
    assert fit.iterations == 1


def _newton_step(x, y, lam, beta):
    """The full Newton step of the lam-regularized logistic objective at beta, from scipy's expit."""
    margins = y * (x @ beta)
    tail = expit(-margins)
    grad = -(x.T @ (y * tail)) + lam * beta
    h = (x * (expit(margins) * tail)[:, None]).T @ x + lam * np.eye(x.shape[1])
    return np.linalg.solve(h, grad)


def _assert_near_optimum(x, y, lam, beta):
    # scale-free stationarity: one more full Newton step moves beta by at most 1e-7 relative.  The stopping rule
    # bounds the decrement, not this distance, which reached 1.5e-8 on small separable problems at lam = 1e-3
    # (the worst of 140,000 random fits; the typical fit is below 1e-9)
    assert np.linalg.norm(_newton_step(x, y, lam, beta)) <= 1e-7 * np.linalg.norm(beta)


def _assert_close(beta, reference, rel):
    assert np.linalg.norm(beta - reference) <= rel * np.linalg.norm(reference)


def test_warm_start_from_converged_fit_takes_one_certifying_iteration():
    # the Hessian solve that certifies convergence counts as an iteration, and its full step barely moves beta_hat
    x, y = _sign_data(120, 10, 20)
    fit, again = erm_fit(x, y, [0.1, 0.1])
    assert fit.converged and fit.iterations > 0
    assert again.iterations == 1
    assert again.converged
    _assert_close(again.beta_hat, fit.beta_hat, 1e-8)


def test_a_loose_decrement_threshold_fails_the_stationarity_check(monkeypatch):
    # the must-fail twin of _assert_near_optimum: a fit stopped at a decrement of 1e-3 of its objective is caught
    x, y = _sign_data(120, 10, 20)
    _assert_near_optimum(x, y, 0.1, erm_fit(x, y, [0.1])[0].beta_hat)
    monkeypatch.setattr(estimators, "_DECREMENT", 1e-3)
    (fit,) = erm_fit(x, y, [0.1])
    assert fit.converged
    with pytest.raises(AssertionError):
        _assert_near_optimum(x, y, 0.1, fit.beta_hat)


@pytest.mark.parametrize("c", [1e-8, 1e-4, 1e8, 1e150])
def test_erm_fit_does_not_depend_on_the_units_of_x(c):
    # x -> c x with lam -> c^2 lam scales the optimum by exactly 1/c
    x, y = _sign_data(200, 50, 30)
    lams = np.geomspace(1e-3, 1e2, 6)
    for fit, scaled in zip(erm_fit(x, y, lams), erm_fit(c * x, y, c * c * lams)):
        assert fit.converged
        assert (scaled.converged, scaled.iterations) == (fit.converged, fit.iterations)
        _assert_close(c * scaled.beta_hat, fit.beta_hat, 1e-12)


def test_erm_fit_takes_a_ridge_weight_at_the_float_maximum():
    # warm-started from the lam = 10 fit, the gradient lam * beta_hat is near the float maximum, so its square overflows
    x, y = _sign_data(23, 4, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = erm_fit(x, y, [10.0, np.finfo(np.float64).max])
    assert all(fit.converged for fit in fits)


@st.composite
def sign_problems(draw):
    """(x, y, lams): a small design with labels in {-1, +1}, and a positive grid, unsorted and with repeats."""
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    weight = st.one_of(st.sampled_from([1e-3, 0.1, 1.0, 100.0]), st.floats(1e-3, 1e3))
    return x, y, draw(st.lists(weight, min_size=1, max_size=6))


@settings(max_examples=60, deadline=None, database=None)
@given(sign_problems())
def test_erm_fit_path_rows_follow_the_grid(problem):
    x, y, lams = problem
    fits = erm_fit(x, y, lams)
    assert len(fits) == len(lams)
    for i, (lam, fit) in enumerate(zip(lams, fits)):
        assert isinstance(fit, FittedModel)
        beta = fit.beta_hat
        if fit.converged:
            # stationary for its own weight, so the rows are in grid order
            _assert_near_optimum(x, y, lam, beta)
        if i > 0 and lam == lams[i - 1] and fits[i - 1].converged:
            # the certifying full step is the step _assert_near_optimum bounds
            assert fit.iterations == 1 and fit.converged
            _assert_close(beta, fits[i - 1].beta_hat, 1e-7)


def test_warm_started_classification_fit_takes_full_steps_near_optimum(monkeypatch):
    # trial 0 of the default classification sweep at master_seed 0, warm-started
    # up the lambda grid: at lambda = 100 the warm start is so close to the
    # optimum that an Armijo test on roundoff backtracks for dozens of iterations
    paths = []

    def recording_fit(x, y, lams):
        paths.append(erm_fit(x, y, lams))
        return paths[-1]

    monkeypatch.setattr(runners, "erm_fit", recording_fit)
    config = config_from_mapping(KIND_CLASSIFICATION, {"trials": 1, "master_seed": 0})
    runners.run_classification_sweep(config)
    (path,) = paths
    fits = dict(zip(config["lambda_grid"], path))
    assert len(path) == len(fits) == len(config["lambda_grid"])
    assert all(fit.converged for fit in path)
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
