"""Tests for the per-draw Monte Carlo metric kernels."""

import math

import numpy as np
import pytest

from riskshift._kernels import (
    METRIC_HINGE,
    METRIC_LOGISTIC,
    METRIC_MISCLASS,
    METRIC_SQUARED,
    kernel_backend,
    metric_sums,
    metric_values,
)

_ALL_CODES = (METRIC_SQUARED, METRIC_MISCLASS, METRIC_LOGISTIC, METRIC_HINGE)


def _draws(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(n)


def test_numpy_kernel_hand_values():
    z_star = np.array([1.0, -1.0, 2.0, -0.5])
    z = np.array([0.5, 0.5, -1.0, -2.0])
    s, s2 = metric_sums(z_star, z, METRIC_SQUARED)
    assert s == pytest.approx(0.25 + 2.25 + 9.0 + 2.25, rel=1e-15)
    s, _ = metric_sums(z_star, z, METRIC_MISCLASS)
    assert s == 2.0
    # losses act on the estimator score signed by the true decision
    t = np.array([0.5, -0.5, -1.0, 2.0])
    s, s2 = metric_sums(z_star, z, METRIC_LOGISTIC)
    psi = np.logaddexp(0.0, -t)
    assert s == pytest.approx(float(psi.sum()), rel=1e-15)
    assert s2 == pytest.approx(float((psi * psi).sum()), rel=1e-15)
    s, _ = metric_sums(z_star, z, METRIC_HINGE)
    assert s == pytest.approx(0.5 + 1.5 + 2.0 + 0.0, rel=1e-15)


def test_metric_sums_deterministic_and_validating():
    z_star, z = _draws(5_000, 5)
    for code in _ALL_CODES:
        assert metric_sums(z_star, z, code) == metric_sums(z_star, z, code)
    with pytest.raises(ValueError):
        metric_sums(z_star, z, 99)
    with pytest.raises(ValueError):
        metric_values(z_star, z, -1)


def test_logistic_kernel_stable_for_large_scores():
    z_star = np.array([1.0, 1.0, -1.0])
    z = np.array([800.0, -800.0, 800.0])
    s, s2 = metric_sums(z_star, z, METRIC_LOGISTIC)
    # log(1 + e^250)-style terms must not overflow: psi ~ |z| for adverse signs
    assert math.isfinite(s) and math.isfinite(s2)
    assert s == pytest.approx(1600.0, rel=1e-12)


def test_backend_name_is_consistent():
    assert kernel_backend() == "numpy"
