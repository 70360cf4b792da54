"""Tests for the per-draw Monte Carlo metric values."""

import math

import numpy as np
import pytest

from riskshift._kernels import kernel_backend
from riskshift.errors import NumericInputError
from riskshift.risk import MetricKind, metric_values


def _draws(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(n)


def _sums(z_star, z, metric):
    psi = metric_values(z_star, z, metric)
    return float(psi.sum()), float((psi * psi).sum())


def test_numpy_kernel_hand_values():
    z_star = np.array([1.0, -1.0, 2.0, -0.5])
    z = np.array([0.5, 0.5, -1.0, -2.0])
    s, s2 = _sums(z_star, z, MetricKind.SQUARED_ERROR)
    assert s == pytest.approx(0.25 + 2.25 + 9.0 + 2.25, rel=1e-15)
    s, _ = _sums(z_star, z, MetricKind.MISCLASSIFICATION)
    assert s == 2.0
    # losses act on the estimator score signed by the true decision
    t = np.array([0.5, -0.5, -1.0, 2.0])
    s, s2 = _sums(z_star, z, MetricKind.LOGISTIC)
    psi = np.logaddexp(0.0, -t)
    assert s == pytest.approx(float(psi.sum()), rel=1e-15)
    assert s2 == pytest.approx(float((psi * psi).sum()), rel=1e-15)
    s, _ = _sums(z_star, z, MetricKind.HINGE)
    assert s == pytest.approx(0.5 + 1.5 + 2.0 + 0.0, rel=1e-15)


def test_metric_values_deterministic_and_validating():
    z_star, z = _draws(5_000, 5)
    for metric in MetricKind:
        assert np.array_equal(metric_values(z_star, z, metric), metric_values(z_star, z, metric))
    # a metric's name or a bare code is not a metric
    for not_a_metric in (99, -1, "logistic"):
        with pytest.raises(NumericInputError):
            metric_values(z_star, z, not_a_metric)


def test_logistic_kernel_stable_for_large_scores():
    z_star = np.array([1.0, 1.0, -1.0])
    z = np.array([800.0, -800.0, 800.0])
    s, s2 = _sums(z_star, z, MetricKind.LOGISTIC)
    # log(1 + e^250)-style terms must not overflow: psi ~ |z| for adverse signs
    assert math.isfinite(s) and math.isfinite(s2)
    assert s == pytest.approx(1600.0, rel=1e-12)


def test_backend_name_is_consistent():
    assert kernel_backend() == "numpy"
