"""Acceptance gate: one test per shipped criterion, each printing its verdict.

Every criterion function bundles its own tolerances (they mirror the module
docstrings and the README's quality bar); this suite runs each one, prints a
single PASS/FAIL line with the measured detail, and asserts the verdict.
"""

from riskshift.harness import selftest


def _run(criterion, capsys):
    result = criterion()
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"\n{status} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_1_regression_sweep_matches_affine_prediction(capsys):
    _run(selftest.criterion_1, capsys)


def test_criterion_2_classification_families_on_theory_curve(capsys):
    _run(selftest.criterion_2, capsys)


def test_criterion_3_denoising_identity_property_sweep(capsys):
    _run(selftest.criterion_3, capsys)


def test_criterion_4_cs_residual_decay_and_mc_agreement(capsys):
    _run(selftest.criterion_4, capsys)


def test_criterion_5_misclassification_closed_form_vs_mc(capsys):
    _run(selftest.criterion_5, capsys)


def test_criterion_6_surrogate_metrics_break_monotonicity(capsys):
    _run(selftest.criterion_6, capsys)


def test_criterion_7_monotonicity_checker_verdicts(capsys):
    _run(selftest.criterion_7, capsys)


def test_criterion_8_probit_arctan_gap_bound(capsys):
    _run(selftest.criterion_8, capsys)


def test_criterion_9_finite_dim_linearity_conditions(capsys):
    _run(selftest.criterion_9, capsys)


def test_criterion_10_asymptotic_relation_identities(capsys):
    _run(selftest.criterion_10, capsys)
