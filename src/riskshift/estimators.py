"""Ridge-regularized empirical risk minimizers.

ridge_fit solves the normal equations of a whole ridge-weight grid from one X^T X.
erm_fit runs damped Newton, one weight per call, on the ridge-regularized logistic
objective with Armijo backtracking; it never raises on slow convergence, it flags
the result instead.
"""

from dataclasses import dataclass

import numpy as np

from riskshift.errors import InvalidDimensionError, NumericInputError
from riskshift.subspace import _frozen_array

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-12
_EPS = float(np.finfo(np.float64).eps)
_TOL = 1e-10
_MAX_ITER = 100


@dataclass(frozen=True)
class FittedModel:
    """erm_fit's coefficients plus its Newton diagnostics."""

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


def _check_problem(x, y, lams):
    """x, y and lams as float arrays, once lams is a grid of positive finite weights and x, y are finite."""
    lams = np.asarray(lams, dtype=np.float64)
    if lams.ndim != 1 or lams.size == 0:
        raise InvalidDimensionError(f"lams must be a nonempty 1-d grid, got shape {lams.shape}")
    if not np.all(np.isfinite(lams) & (lams > 0)):
        raise NumericInputError("ridge weight lam must be a positive finite scalar")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise InvalidDimensionError(f"x must be a nonempty matrix, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise InvalidDimensionError(f"y must have one entry per row of x: {y.shape} vs {x.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericInputError("x and y must be finite")
    return x, y, lams


def ridge_fit(x, y, lams):
    """Read-only (len(lams), d) rows argmin 0.5 * ||y - X beta||^2 + 0.5 * lam * ||beta||^2 from one X^T X."""
    x, y, lams = _check_problem(x, y, lams)
    gram, xty = x.T @ x, x.T @ y
    betas = np.empty((lams.size, x.shape[1]))
    for i, lam in enumerate(lams):
        h = gram.copy()
        h[np.diag_indices_from(h)] += lam
        betas[i] = np.linalg.solve(h, xty)
    if not np.all(np.isfinite(betas)):
        raise NumericInputError("beta_hat must be finite")
    return _frozen_array(betas)


def _sigmoid(t):
    """Logistic 1 / (1 + exp(-t)) from e = exp(-|t|) in [0, 1], so nothing overflows."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0, e) / (1.0 + e)


def _logistic_objective(margins, lam, beta):
    return float(np.sum(np.logaddexp(0.0, -margins))) + 0.5 * lam * float(beta @ beta)


def erm_fit(x, y, lam, beta0=None):
    """Damped Newton minimization of the ridge-regularized logistic empirical risk.

    Minimizes sum_i log(1 + exp(-y_i x_i^T beta)) + 0.5 * lam * ||beta||^2 and
    stops when ||grad|| <= 1e-10 * (1 + ||beta||).  After 100 Newton
    iterations without meeting that rule, the returned model carries
    converged=False.  beta0 warm-starts the solver.

    Once the descent grad^T step is <= eps * |f(beta)|, the resolution of the
    objective, the Armijo test could only compare rounding noise, so the line
    search takes the full step.
    """
    x, y, _ = _check_problem(x, y, [lam])
    d = x.shape[1]
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

    # objective, gradient and Hessian weights all derive from the margins
    # y_i x_i^T beta, so each point the solver visits costs one product x @ beta
    iterations = 0
    margins = y * (x @ beta)
    f = _logistic_objective(margins, lam, beta)
    while True:
        tail = _sigmoid(-margins)
        grad = -x.T @ (y * tail) + lam * beta
        converged = float(np.linalg.norm(grad)) <= _TOL * (1.0 + float(np.linalg.norm(beta)))
        if converged or iterations >= _MAX_ITER:
            break
        iterations += 1
        w = _sigmoid(margins) * tail
        h = (x * w[:, None]).T @ x
        h[np.diag_indices_from(h)] += lam
        try:
            step = np.linalg.solve(h, grad)
        except np.linalg.LinAlgError:
            step = grad
        descent = float(grad @ step)
        if descent <= 0.0:
            step = grad
            descent = float(grad @ grad)
        t = 1.0
        while descent > _EPS * abs(f) and t > _MIN_STEP:
            candidate = beta - t * step
            cand_margins = y * (x @ candidate)
            cand_f = _logistic_objective(cand_margins, lam, candidate)
            if cand_f <= f - _ARMIJO_C * t * descent:
                beta, margins, f = candidate, cand_margins, cand_f
                break
            t *= 0.5
        else:
            # full step below the objective's resolution, or t reached _MIN_STEP
            beta = beta - t * step
            margins = y * (x @ beta)
            f = _logistic_objective(margins, lam, beta)
    return FittedModel(
        beta_hat=beta,
        iterations=iterations,
        converged=bool(converged),
    )

