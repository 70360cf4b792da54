"""Ridge-regularized empirical risk minimizers and the population ridge map.

ridge_fit solves the normal equations directly.  erm_fit runs damped Newton
with Armijo backtracking on the ridge-regularized logistic objective; it never
raises on slow convergence, it flags the result instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.subspace import _frozen_array

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-12
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ERMConfig:
    """Ridge weight and Newton stopping controls of logistic ERM."""

    lam: float
    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise NumericInputError("ridge weight lam must be a positive finite scalar")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise NumericInputError("tol must be a positive finite scalar")
        if int(self.max_iter) < 1:
            raise NumericInputError("max_iter must be >= 1")


@dataclass(frozen=True)
class FittedModel:
    """Fitted coefficients plus solver diagnostics."""

    beta_hat: np.ndarray
    iterations: int
    converged: bool

    def __post_init__(self):
        beta = np.asarray(self.beta_hat, dtype=np.float64)
        if beta.ndim != 1:
            raise InvalidDimensionError("beta_hat must be a 1-d vector")
        if not np.all(np.isfinite(beta)):
            raise NumericInputError("beta_hat must be finite")
        object.__setattr__(self, "beta_hat", _frozen_array(beta))


def _check_finite_data(data):
    if not (np.all(np.isfinite(data.x)) and np.all(np.isfinite(data.y))):
        raise NumericInputError("dataset contains non-finite entries")


def ridge_fit(data, lam):
    """Minimizer of 0.5 * ||y - X beta||^2 + 0.5 * lam * ||beta||^2."""
    if not (math.isfinite(lam) and lam > 0):
        raise NumericInputError("ridge weight lam must be a positive finite scalar")
    _check_finite_data(data)
    x, y = data.x, data.y
    h = x.T @ x
    h[np.diag_indices_from(h)] += lam
    xty = x.T @ y
    beta = np.linalg.solve(h, xty)
    return FittedModel(
        beta_hat=beta,
        iterations=1,
        converged=True,
    )


def _sigmoid(t):
    """Logistic 1 / (1 + exp(-t)) from e = exp(-|t|) in [0, 1], so nothing overflows."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0, e) / (1.0 + e)


def _logistic_objective(x, y, lam, beta):
    m = y * (x @ beta)
    return float(np.sum(np.logaddexp(0.0, -m))) + 0.5 * lam * float(beta @ beta)


def erm_fit(data, config, beta0=None):
    """Damped Newton minimization of the ridge-regularized logistic empirical risk.

    Stops when ||grad|| <= tol * (1 + ||beta||).  On reaching max_iter first,
    the returned model carries converged=False.  beta0 warm-starts the solver.

    Once the descent grad^T step is <= eps * |f(beta)|, the resolution of the
    objective, the Armijo test could only compare rounding noise, so the line
    search takes the full step.
    """
    if not isinstance(config, ERMConfig):
        raise NumericInputError("config must be an ERMConfig")
    _check_finite_data(data)
    x, y = data.x, data.y
    d = data.d
    lam = config.lam
    if not np.all(np.abs(y) == 1.0):
        raise NumericInputError("logistic loss requires labels in {-1, +1}")
    if beta0 is None:
        beta = np.zeros(d)
    else:
        beta = np.array(beta0, dtype=np.float64)
        if beta.shape != (d,):
            raise InvalidDimensionError(f"beta0 must have shape ({d},), got {beta.shape}")
        if not np.all(np.isfinite(beta)):
            raise NumericInputError("beta0 must be finite")

    def gradient(b):
        m = y * (x @ b)
        return -x.T @ (y * _sigmoid(-m)) + lam * b

    def hessian(b):
        m = y * (x @ b)
        w = _sigmoid(m) * _sigmoid(-m)
        h = (x * w[:, None]).T @ x
        h[np.diag_indices_from(h)] += lam
        return h

    iterations = 0
    grad = gradient(beta)
    grad_norm = float(np.linalg.norm(grad))
    converged = grad_norm <= config.tol * (1.0 + float(np.linalg.norm(beta)))
    while not converged and iterations < config.max_iter:
        iterations += 1
        h = hessian(beta)
        try:
            step = np.linalg.solve(h, grad)
        except np.linalg.LinAlgError:
            step = grad
        descent = float(grad @ step)
        if descent <= 0.0:
            step = grad
            descent = float(grad @ grad)
        f0 = _logistic_objective(x, y, lam, beta)
        t = 1.0
        while descent > _EPS * abs(f0) and t > _MIN_STEP:
            candidate = beta - t * step
            if _logistic_objective(x, y, lam, candidate) <= f0 - _ARMIJO_C * t * descent:
                break
            t *= 0.5
        beta = beta - t * step
        grad = gradient(beta)
        grad_norm = float(np.linalg.norm(grad))
        converged = grad_norm <= config.tol * (1.0 + float(np.linalg.norm(beta)))
    return FittedModel(
        beta_hat=beta,
        iterations=iterations,
        converged=bool(converged),
    )


def population_ridge(ground_truth, basis, lam):
    """Infinite-sample ridge limit: the projection of beta* shrunk by 1/(1+lam).

    basis spans the support of the train covariance projector.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise NumericInputError("ridge weight lam must be finite and >= 0")
    if basis.ambient_dim != ground_truth.d:
        raise InvalidDimensionError(
            f"basis ambient dimension {basis.ambient_dim} != beta* length {ground_truth.d}"
        )
    return basis.project(ground_truth.beta_star) / (1.0 + lam)
