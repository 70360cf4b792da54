"""Ridge-regularized empirical risk minimizers.

ridge_fit solves the normal equations of a whole ridge-weight grid from one X^T X.
erm_fit runs damped Newton on the ridge-regularized logistic objective with Armijo
backtracking over a whole ridge-weight grid, each weight warm-started from the
previous one's solution.  One comparison decides when a fit is done: the Newton
decrement grad^T H^-1 grad at most 1e-9 times the objective, both unchanged when
x is scaled by c and the weight by c^2.  It never raises on slow convergence, it
flags the result instead.
"""

from dataclasses import dataclass

import numpy as np

from riskshift.errors import NumericInputError
from riskshift.subspace import _checked_array, _frozen_array

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-12
# a fit whose Newton decrement is at most this share of its objective takes the full step and is done
_DECREMENT = 1e-9
_MAX_ITER = 100


@dataclass(frozen=True)
class FittedModel:
    """erm_fit's coefficients plus its Newton diagnostics."""

    beta_hat: np.ndarray
    iterations: int
    converged: bool

    def __post_init__(self):
        beta = _checked_array("beta_hat", self.beta_hat, (None,))
        object.__setattr__(self, "beta_hat", _frozen_array(beta))


def _check_problem(x, y, lams):
    """x, y and lams as float arrays, once lams is a nonempty 1-d grid of positive weights and all are finite."""
    lams = _checked_array("lams", lams, (None,), (">", 0))
    x = _checked_array("x", x, (None, None))
    return x, _checked_array("y", y, (x.shape[0],)), lams


def ridge_fit(x, y, lams):
    """Read-only (len(lams), d) rows argmin 0.5 * ||y - X beta||^2 + 0.5 * lam * ||beta||^2 from one X^T X."""
    x, y, lams = _check_problem(x, y, lams)
    gram, xty = x.T @ x, x.T @ y
    betas = np.empty((lams.size, x.shape[1]))
    for i, lam in enumerate(lams):
        h = gram.copy()
        h[np.diag_indices_from(h)] += lam
        betas[i] = np.linalg.solve(h, xty)
    return _frozen_array(_checked_array("beta_hat", betas, betas.shape))


def _sigmoid(t):
    """Logistic 1 / (1 + exp(-t)) from e = exp(-|t|) in [0, 1], so nothing overflows."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0, e) / (1.0 + e)


def _logistic_objective(margins, lam, beta):
    return float(np.sum(np.logaddexp(0.0, -margins))) + 0.5 * lam * float(beta @ beta)


def erm_fit(x, y, lams):
    """One FittedModel per weight of lams: damped Newton on the ridge-regularized logistic empirical risk.

    For each lam, in grid order, minimizes f(beta) = sum_i log(1 + exp(-y_i x_i^T beta))
    + 0.5 * lam * ||beta||^2.  Each iteration solves H step = grad; once the
    Newton decrement grad^T step is <= 1e-9 * f(beta), it takes the full step
    and the fit is converged, and otherwise it backtracks from the full step
    until the Armijo test holds.  After 100 iterations (Hessian solves) without
    that, the model carries converged=False.  The first weight starts from
    beta = 0, each later one from the previous weight's solution.
    """
    x, y, lams = _check_problem(x, y, lams)
    if not np.all(np.abs(y) == 1.0):
        raise NumericInputError("logistic loss requires labels in {-1, +1}")
    beta = np.zeros(x.shape[1])
    fits = []
    # objective, gradient and Hessian weights all derive from the margins
    # y_i x_i^T beta, so each point the solver visits costs one product x @ beta
    for lam in lams.tolist():
        iterations, converged = 0, False
        margins = y * (x @ beta)
        f = _logistic_objective(margins, lam, beta)
        while not converged and iterations < _MAX_ITER:
            iterations += 1
            tail = _sigmoid(-margins)
            grad = -x.T @ (y * tail) + lam * beta
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
            converged = descent <= _DECREMENT * f
            t = 1.0
            while not converged and t > _MIN_STEP:
                candidate = beta - t * step
                cand_margins = y * (x @ candidate)
                cand_f = _logistic_objective(cand_margins, lam, candidate)
                if cand_f <= f - _ARMIJO_C * t * descent:
                    beta, margins, f = candidate, cand_margins, cand_f
                    break
                t *= 0.5
            else:
                # the full step of a converged fit, or t reached _MIN_STEP
                beta = beta - t * step
                margins = y * (x @ beta)
                f = _logistic_objective(margins, lam, beta)
        fits.append(FittedModel(beta_hat=beta, iterations=iterations, converged=converged))
    return tuple(fits)
