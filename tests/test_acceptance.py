"""Acceptance gate: one test per shipped criterion, each printing its verdict.

Every criterion function states each of its bounds once, in the table it
hands to selftest._judge; this suite runs each criterion, prints a single
PASS/FAIL line listing every bound with its measured value, and asserts the
verdict.  The last tests feed every criterion a fault: criteria 1, 2, 3, 5,
6, 7, 8 and 10 values that break exactly one bound, criterion 4
closed-form risks at a wrong ridge weight that break both of its Monte Carlo
bounds, and criterion 9 curved ridge risks that break both exact-affine
residual bounds, so none of those checks passes vacuously.
"""

import dataclasses
import math

from riskshift import theory
from riskshift.harness import selftest
from riskshift.harness.config import KIND_COUNTEREXAMPLE, config_from_mapping
from riskshift.shiftmodel import ShiftParameters
from riskshift.theory import classification_relation


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


def test_judge_keeps_strict_comparisons_strict_and_prints_booleans():
    at_limit = selftest._judge("x", [("gap", 1e-8, ">", 1e-8), ("steps", 0, "==", 0)])
    assert not at_limit.passed
    assert at_limit.detail == "gap = 1e-08 (violates > 1e-08); steps = 0 (== 0)"
    held = selftest._judge("y", [("holds", True, "==", True), ("gap", 0.05, "<=", 0.05)])
    assert held.passed
    assert held.detail == "holds = True (== True); gap = 0.05 (<= 0.05)"
    broken = selftest._judge("z", [("holds", False, "==", True), ("gap", 0.05, "<", 0.05)])
    assert not broken.passed
    assert broken.detail == "holds = False (violates == True); gap = 0.05 (violates < 0.05)"


def _only_violated_bound(result):
    assert not result.passed
    violated = [part for part in result.detail.split("; ") if "violates" in part]
    assert len(violated) == 1, result.detail
    return violated[0]


def test_criterion_1_fails_on_one_gap_beyond_its_bound(monkeypatch):
    # the worst gap of the default sweep at master seed 1
    rows = [{"risk_q": 0.0647, "risk_q_pred": 0.0}]
    monkeypatch.setattr(selftest, "run_regression_sweep", lambda config: (["risk_q"], rows))
    violated = _only_violated_bound(selftest.criterion_1())
    assert violated.startswith("max |risk_q - predicted| over 1 rows = 0.0647")


def test_criterion_2_fails_when_matched_families_disagree(monkeypatch):
    rows = [
        {"model": "ridge", "trial": 0, "risk_p": 0.200, "risk_q": 0.30, "risk_q_pred": 0.30},
        {"model": "logistic", "trial": 0, "risk_p": 0.204, "risk_q": 0.32, "risk_q_pred": 0.32},
    ]
    monkeypatch.setattr(selftest, "run_classification_sweep", lambda config: (["model"], rows))
    violated = _only_violated_bound(selftest.criterion_2())
    assert violated.startswith("worst matched-pair risk_q gap = 0.02")


def test_criterion_3_fails_on_one_residual_beyond_its_bound(monkeypatch):
    grid = selftest.denoise_grid
    calls = []

    def one_bad_residual(*args):
        calls.append(args)
        risk_p, risk_q, alpha, residual = grid(*args)
        return risk_p, risk_q, alpha, 2e-12 if len(calls) == 500 else residual

    monkeypatch.setattr(selftest, "denoise_grid", one_bad_residual)
    violated = _only_violated_bound(selftest.criterion_3())
    assert violated == "max residual over 1000 random problems = 2e-12 (violates <= 1e-12)"
    assert len(calls) == 1000


def test_criterion_4_fails_when_its_closed_form_uses_another_lambda(monkeypatch):
    # the Monte Carlo builds the ridge map at the problem's own lambda, so closed-form
    # risks evaluated at lambda / 2 must leave both MC gaps far beyond their bound
    risks = selftest.cs_risks

    def half_lambda_risks(sketch, problem):
        return risks(sketch, dataclasses.replace(problem, lam=problem.lam / 2))

    monkeypatch.setattr(selftest, "cs_risks", half_lambda_risks)
    result = selftest.criterion_4()
    assert not result.passed
    violated = [part.split(" = ")[0] for part in result.detail.split("; ") if "violates" in part]
    assert violated == ["MC gap P / s.e.", "MC gap Q / s.e."], result.detail


def test_criterion_5_fails_when_the_closed_form_angle_is_off_by_0_01(monkeypatch):
    risk = selftest.misclassification_risk
    monkeypatch.setattr(selftest, "misclassification_risk", lambda cov: risk(cov) + 0.01)
    violated = _only_violated_bound(selftest.criterion_5())
    assert violated.startswith("worst |MC - closed| / s.e. over 50 instances = ")


def test_criterion_6_fails_when_one_surrogate_stays_monotone(monkeypatch):
    config = config_from_mapping(KIND_COUNTEREXAMPLE, {})
    shift = ShiftParameters(
        gamma=config["gamma"], mu=config["mu"], kappa=config["kappa"], r_p=1.0, sigma_beta_sq=1.0
    )
    risk_p = [0.1, 0.2, 0.3]
    curves = {
        "misclassification": [classification_relation(p, shift) for p in risk_p],
        "hinge": [0.1, 0.2, 0.15],
        "logistic": [0.1, 0.2, 0.3],
    }
    rows = [
        {"metric": metric, "a": a, "risk_p": p, "se_p": 0.0, "risk_q": q, "se_q": 0.0}
        for metric, risk_q in curves.items()
        for a, p, q in zip((1.0, 2.0, 3.0), risk_p, risk_q)
    ]
    monkeypatch.setattr(selftest, "run_counterexample", lambda config: (["metric"], rows))
    violated = _only_violated_bound(selftest.criterion_6())
    assert violated == "logistic violations = 0 (violates >= 1)"


def test_criterion_7_fails_when_the_regression_rho_drifts(monkeypatch):
    check = selftest.monotonicity_check_regression

    def drifted(pair, beta):
        verdict = check(pair, beta)
        return dataclasses.replace(verdict, rho=verdict.rho * (1.0 + 1e-7))

    monkeypatch.setattr(selftest, "monotonicity_check_regression", drifted)
    violated = _only_violated_bound(selftest.criterion_7())
    assert violated.startswith("subspace: regression rho relative gap = ")


def test_criterion_8_fails_when_the_probit_curve_drops_its_sqrt_2(monkeypatch):
    # the gap reads the probit curve through theory's normal CDF; Phi(u) for Phi(u / sqrt 2) is 0.037 off arctan
    cdf = theory._std_normal_cdf
    monkeypatch.setattr(theory, "_std_normal_cdf", lambda x: cdf(x * math.sqrt(2.0)))
    violated = _only_violated_bound(selftest.criterion_8())
    assert violated.startswith("max gap on [-10, 10] at spacing 0.01 = ")


def test_criterion_9_fails_when_the_ridge_risks_are_not_affine(monkeypatch):
    # a 1e-6 risk_p^2 term in the test risk leaves both exact regimes 5e-5 off their affine fits
    risks = selftest.population_ridge_risks

    def curved(*args):
        risk_p, risk_q = risks(*args)
        return risk_p, risk_q + 1e-6 * risk_p * risk_p

    monkeypatch.setattr(selftest, "population_ridge_risks", curved)
    result = selftest.criterion_9()
    assert not result.passed
    violated = [part.split(" = ")[0] for part in result.detail.split("; ") if "violates" in part]
    assert violated == ["nested affine residual", "in-subspace affine residual"], result.detail


def test_criterion_10_fails_when_one_identity_is_off_by_1e_8(monkeypatch):
    relation = selftest.regression_relation
    monkeypatch.setattr(selftest, "regression_relation", lambda risk_p, shift: relation(risk_p, shift) + 1e-8)
    violated = _only_violated_bound(selftest.criterion_10())
    assert violated.startswith("max identity residual over 100 random tuples = ")
