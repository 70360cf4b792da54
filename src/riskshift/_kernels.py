"""Per-draw metric values for Monte Carlo risk estimates.

``metric_values`` maps paired decision values (z*, z) to the metric psi of
each draw; ``metric_sums`` reduces them to (sum psi, sum psi^2).  Both are
vectorized numpy, so results are bitwise reproducible on every install.
"""

import numpy as np

METRIC_SQUARED = 0
METRIC_MISCLASS = 1
METRIC_LOGISTIC = 2
METRIC_HINGE = 3


def kernel_backend():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def metric_values(z_star, z, code):
    """Per-draw metric psi for the metric with the given code."""
    z_star = np.asarray(z_star, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if code == METRIC_SQUARED:
        return (z_star - z) ** 2
    if code == METRIC_MISCLASS:
        return (z_star * z < 0.0).astype(np.float64)
    # surrogate losses act on the estimator score signed by the true decision
    t = np.where(z_star >= 0.0, z, -z)
    if code == METRIC_LOGISTIC:
        return np.logaddexp(0.0, -t)
    if code == METRIC_HINGE:
        return np.maximum(0.0, 1.0 - t)
    raise ValueError(f"unknown metric code {code}")


def metric_sums(z_star, z, code):
    """(sum psi, sum psi^2) for the metric with the given code."""
    psi = metric_values(z_star, z, code)
    return float(psi.sum()), float((psi * psi).sum())
