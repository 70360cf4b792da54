"""Acceptance criteria: one function per criterion, shared by CLI and tests.

Each criterion measures its values and hands one table of bounds, rows of
(label, measured value, comparison, limit), to _judge, which derives both the
verdict and the detail line from it, so every limit is written once and every
detail line lists each bound with its measured value.  run_all prints one
PASS/FAIL line per criterion.  Monte Carlo cross-checks use their own direct
samplers (drawing signals and noise from the model definitions) rather than
the closed forms they validate.
"""

import dataclasses
import math
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from riskshift.harness.config import (
    KIND_CLASSIFICATION,
    KIND_COUNTEREXAMPLE,
    KIND_CS,
    KIND_REGRESSION,
    config_from_mapping,
)
from riskshift.harness.runners import (
    run_classification_sweep,
    run_counterexample,
    run_cs_validation,
    run_regression_sweep,
)
from riskshift.inverse import (
    InverseProblem,
    cs_risks,
    denoise_grid,
    gaussian_measurement,
    sketch_bases,
)
from riskshift.risk import (
    DecisionCov,
    MetricKind,
    chunked_mc,
    mc_metric_risk,
    misclassification_risk,
    squared_risk,
)
from riskshift.shiftmodel import (
    ShiftParameters,
    shift_parameters,
    subspace_shift_model,
    task_dependent_model,
)
from riskshift.subspace import _COMPARISONS, SubspacePairSpec, haar_basis, overlap_coefficient, overlapping_pair
from riskshift.theory import (
    asymptotic_decision_cov,
    classification_relation,
    finite_dim_linearity,
    monotonicity_check_classification,
    monotonicity_check_regression,
    population_ridge_risks,
    probit_arctan_gap,
    regression_relation,
)

_ROOT_SEED = 20260814
# a Monte Carlo estimate, or a one-step difference of one, is significant
# beyond this many standard errors
_SE_GATE = 4.0
# a compressed-sensing MC draw costs O(d (n + d)); the chunk size fixes the draws
_CS_MC_CHUNK = 1024
# draws of each of criterion 4's Monte Carlo risks
_CS_MC_DRAWS = 100_000


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _judge(name, bounds):
    """CriterionResult that passes iff every (label, value, comparison, limit) bound holds."""
    parts = []
    for label, value, comparison, limit in bounds:
        holds = bool(_COMPARISONS[comparison](value, limit))
        shown = [v if isinstance(v, bool) else f"{v:.4g}" for v in (value, limit)]
        verb = comparison if holds else f"violates {comparison}"
        parts.append((holds, f"{label} = {shown[0]} ({verb} {shown[1]})"))
    return CriterionResult(name, all(h for h, _ in parts), "; ".join(p for _, p in parts))


def count_significant_violations(risk_p, se_p, risk_q, se_q):
    """Consecutive sweep steps where the two risks move in opposite directions.

    A step counts only if both one-step differences exceed _SE_GATE combined
    standard errors, so closed-form curves (zero errors) count any strict sign
    flip.
    """
    rp = np.asarray(risk_p, dtype=np.float64)
    rq = np.asarray(risk_q, dtype=np.float64)
    sp = np.asarray(se_p, dtype=np.float64)
    sq = np.asarray(se_q, dtype=np.float64)
    dp = np.diff(rp)
    dq = np.diff(rq)
    gate_p = _SE_GATE * np.sqrt(sp[:-1] ** 2 + sp[1:] ** 2)
    gate_q = _SE_GATE * np.sqrt(sq[:-1] ** 2 + sq[1:] ** 2)
    mask = (dp * dq < 0.0) & (np.abs(dp) > gate_p) & (np.abs(dq) > gate_q)
    return int(np.sum(mask))


def _block_normalized_beta(pair, seed):
    """Unit-variance Gaussian beta* rescaled so each spectral block carries its mean energy.

    Blocks are defined by the joint pattern of the two eigenvalue vectors
    (support/overlap structure); within each block the squared norm is set to
    the block size exactly, removing O(d^-1/2) energy fluctuations from
    plug-in shift parameters.
    """
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(pair.d)
    s = pair.eigvals_p
    q = pair.eigvals_q
    for mask in (
        (s == 1.0) & (q > 0.0),
        (s == 1.0) & (q == 0.0),
        (s == 0.0) & (q > 0.0),
        (s == 0.0) & (q == 0.0),
    ):
        k = int(np.sum(mask))
        if k == 0:
            continue
        energy = float(np.sum(b[mask] ** 2))
        if energy > 0.0:
            b[mask] *= math.sqrt(k / energy)
    return pair.eigenbasis.columns @ b


def _cs_mc_risk(a, problem, which, seed):
    """Direct Monte Carlo reconstruction risk: sample signal and noise, apply W*.

    W* = U_P (B_P^T B_P + (sigma_P^2 + lam) I)^{-1} B_P^T with B_P = A U_P is
    the ridge reconstruction map from its definition.  Draw order per chunk:
    coefficients first, measurement noise second.
    """
    if which == "P":
        u = problem.u_p.columns
        sigma = math.sqrt(problem.sigma_p_sq)
        denom = problem.d_p
    else:
        u = problem.u_q.columns
        sigma = math.sqrt(problem.sigma_q_sq)
        denom = problem.d_q
    n = a.shape[0]
    b_p = a @ problem.u_p.columns
    ridge_gram = b_p.T @ b_p
    ridge_gram[np.diag_indices_from(ridge_gram)] += problem.sigma_p_sq + problem.lam
    w_star = problem.u_p.columns @ np.linalg.solve(ridge_gram, b_p.T)
    signal_map = w_star @ a

    def draw(rng, m):
        coef = rng.standard_normal((m, u.shape[1]))
        noise = rng.standard_normal((m, n))
        x = coef @ u.T
        x_hat = x @ signal_map.T + sigma * (noise @ w_star.T)
        err = x - x_hat
        return np.sum(err * err, axis=1) / denom

    return chunked_mc(draw, _CS_MC_DRAWS, seed, _CS_MC_CHUNK)


def criterion_1():
    """Regression sweep replication: measured test risks track the affine map."""
    config = config_from_mapping(KIND_REGRESSION, {})
    start = time.perf_counter()
    _, rows = run_regression_sweep(config)
    elapsed = time.perf_counter() - start
    max_gap = max(abs(r["risk_q"] - r["risk_q_pred"]) for r in rows)
    return _judge("criterion-1-regression-sweep", [
        (f"max |risk_q - predicted| over {len(rows)} rows", max_gap, "<=", 0.05),
        ("runtime s", elapsed, "<=", 60.0),
    ])


def criterion_2():
    """Classification sweep: three families on the theory curve, families agree."""
    config = config_from_mapping(KIND_CLASSIFICATION, {})
    _, rows = run_classification_sweep(config)
    max_gap = max(abs(r["risk_q"] - r["risk_q_pred"]) for r in rows)
    worst_pair = 0.0
    for t in sorted({r["trial"] for r in rows}):
        in_trial = [r for r in rows if r["trial"] == t]
        for r1, r2 in combinations(in_trial, 2):
            if r1["model"] != r2["model"] and abs(r1["risk_p"] - r2["risk_p"]) <= 0.005:
                worst_pair = max(worst_pair, abs(r1["risk_q"] - r2["risk_q"]))
    return _judge("criterion-2-classification-sweep", [
        (f"max |risk_q - theory| over {len(rows)} rows", max_gap, "<=", 0.02),
        ("worst matched-pair risk_q gap", worst_pair, "<=", 0.01),
    ])


def criterion_3():
    """Denoising identity: residual at double precision across random problems."""
    rng = np.random.default_rng(np.random.SeedSequence([_ROOT_SEED, 3]))
    worst = 0.0
    for case in range(1000):
        d = int(rng.integers(4, 25))
        d_p = int(rng.integers(1, d + 1))
        d_q = int(rng.integers(1, d + 1))
        lo = max(0, d_p + d_q - d)
        d_pq = int(rng.integers(lo, min(d_p, d_q) + 1))
        u_p, u_q = overlapping_pair(SubspacePairSpec(d, d_p, d_q, d_pq), rng)
        sigma_p_sq = 0.0 if case % 9 == 0 else float(rng.uniform(0.0, 2.0))
        sigma_q_sq = 0.0 if case % 11 == 0 else float(rng.uniform(0.0, 2.0))
        lam = 0.0 if case % 7 == 0 else float(rng.uniform(0.0, 10.0))
        residual = denoise_grid(overlap_coefficient(u_p, u_q), d_p, d_q, sigma_p_sq, sigma_q_sq, lam)[3]
        worst = max(worst, residual)
    return _judge("criterion-3-denoise-identity", [
        ("max residual over 1000 random problems", worst, "<=", 1e-12),
    ])


def criterion_4():
    """Measurement concentration: residual decays with n; closed forms match MC."""
    config = config_from_mapping(KIND_CS, {})
    _, rows = run_cs_validation(config)
    n_values = sorted({r["n"] for r in rows if r["matrix"] == "gaussian"})
    medians = []
    for n in n_values:
        residuals = [r["residual"] for r in rows if r["matrix"] == "gaussian" and r["n"] == n]
        medians.append(float(np.median(residuals)))
    rising = sum(not medians[i] > medians[i + 1] for i in range(len(medians) - 1))
    slope = float(np.polyfit(np.log(n_values), np.log(medians), 1)[0])

    spec = SubspacePairSpec(config["d"], config["d_p"], config["d_q"], config["d_pq"])
    u_p, u_q = overlapping_pair(spec, np.random.SeedSequence([_ROOT_SEED, 4, 0]))
    noise = 1.0 / config["snr"]
    problem = InverseProblem(u_p=u_p, u_q=u_q, sigma_p_sq=noise, sigma_q_sq=noise, lam=config["lambda"])
    a_matrix = gaussian_measurement(500, config["d"], np.random.SeedSequence([_ROOT_SEED, 4, 1]))
    risk_p, risk_q = cs_risks(sketch_bases(a_matrix, problem), problem)
    mc_p, se_p = _cs_mc_risk(a_matrix, problem, "P", np.random.SeedSequence([_ROOT_SEED, 4, 2]))
    mc_q, se_q = _cs_mc_risk(a_matrix, problem, "Q", np.random.SeedSequence([_ROOT_SEED, 4, 3]))
    return _judge("criterion-4-cs-decay", [
        (f"non-decreasing steps of median residuals {['%.3g' % m for m in medians]}", rising, "==", 0),
        ("log-log slope", slope, ">=", -0.8),
        ("log-log slope", slope, "<=", -0.2),
        ("MC gap P / s.e.", abs(mc_p - risk_p) / se_p, "<=", _SE_GATE),
        ("MC gap Q / s.e.", abs(mc_q - risk_q) / se_q, "<=", _SE_GATE),
    ])


def criterion_5():
    """Gaussian sign-mismatch law: MC misclassification matches the closed-form angle."""
    worst_ratio = 0.0
    for i in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([_ROOT_SEED, 5, i]))
        b = rng.standard_normal((2, 2))
        factor = np.linalg.cholesky(b.T @ b)
        cov = DecisionCov(float(factor[0, 0]), float(factor[1, 0]), float(factor[1, 1]))
        closed = misclassification_risk(cov)
        estimate, _ = mc_metric_risk(
            cov, MetricKind.MISCLASSIFICATION, 1_000_000, np.random.SeedSequence([_ROOT_SEED, 5, i, 1])
        )
        se = math.sqrt(max(closed * (1.0 - closed), 1e-12) / 1_000_000)
        worst_ratio = max(worst_ratio, abs(estimate - closed) / se)
    return _judge("criterion-5-gaussian-cosine", [
        ("worst |MC - closed| / s.e. over 50 instances", worst_ratio, "<=", _SE_GATE),
    ])


def criterion_6():
    """Surrogate metrics break monotonicity along the sweep; misclassification does not."""
    config = config_from_mapping(KIND_COUNTEREXAMPLE, {})
    _, rows = run_counterexample(config)
    by_metric = {}
    for r in rows:
        by_metric.setdefault(r["metric"], []).append(r)
    counts = {}
    for metric, metric_rows in by_metric.items():
        metric_rows.sort(key=lambda r: r["a"])
        counts[metric] = count_significant_violations(
            [r["risk_p"] for r in metric_rows],
            [r["se_p"] for r in metric_rows],
            [r["risk_q"] for r in metric_rows],
            [r["se_q"] for r in metric_rows],
        )
    slope = config["kappa"] * config["mu"] / config["gamma"]
    worst_identity = 0.0
    for r in by_metric["misclassification"]:
        sec_p = 1.0 / math.cos(math.pi * r["risk_p"]) ** 2
        sec_q = 1.0 / math.cos(math.pi * r["risk_q"]) ** 2
        worst_identity = max(worst_identity, abs(sec_q - (slope * (sec_p - 1.0) + config["mu"])))
    return _judge("criterion-6-counterexample", [
        ("logistic violations", counts.get("logistic", 0), ">=", 1),
        ("hinge violations", counts.get("hinge", 0), ">=", 1),
        ("misclassification violations", counts.get("misclassification", 0), "==", 0),
        ("sec^2 identity residual", worst_identity, "<=", 1e-9),
    ])


def _classification_check_bounds(tag, pair, beta):
    """The classification checker's rho and u0 against the shift parameters."""
    shift = shift_parameters(pair, beta, 1.0)
    check = monotonicity_check_classification(pair, beta)
    rho = shift.kappa * shift.mu / shift.gamma
    u0 = shift.mu * (1.0 - shift.kappa / shift.gamma)
    return [
        (f"{tag}: classification rho relative gap", abs(check.rho - rho) / rho, "<=", 1e-6),
        (f"{tag}: classification u0 gap / max(1, |u0|)", abs(check.u0 - u0) / max(1.0, abs(u0)), "<=", 1e-6),
    ]


def criterion_7():
    """Monotonicity checkers agree with the per-coordinate identities."""
    spec = SubspacePairSpec(400, 360, 320, 280)
    pair = subspace_shift_model(spec, 2.0, np.random.SeedSequence([_ROOT_SEED, 7, 0]))
    beta = _block_normalized_beta(pair, np.random.SeedSequence([_ROOT_SEED, 7, 1]))
    shift = shift_parameters(pair, beta, 1.0)
    reg = monotonicity_check_regression(pair, beta)
    pair_td = task_dependent_model(pair, beta, target_ratio=5.0)
    reg_td = monotonicity_check_regression(pair_td, beta)
    return _judge("criterion-7-monotonicity-checkers", [
        ("subspace: regression holds", reg.holds, "==", True),
        ("subspace: regression rho relative gap", abs(reg.rho - shift.gamma) / shift.gamma, "<=", 1e-8),
        *_classification_check_bounds("subspace", pair, beta),
        ("kappa=5gamma: regression holds", reg_td.holds, "==", False),
        ("kappa=5gamma: regression max_dev", reg_td.max_deviation, ">=", 1.0),
        *_classification_check_bounds("kappa=5gamma", pair_td, beta),
    ])


def criterion_8():
    """Probit and arctan link functions stay uniformly close on [-10, 10]."""
    gap = probit_arctan_gap()
    return _judge("criterion-8-probit-arctan", [
        ("max gap on [-10, 10] at spacing 0.01", gap, "<=", 0.01),
    ])


def _affine_fit_residual(risk_p, risk_q):
    a_matrix = np.column_stack([risk_p, np.ones(len(risk_p))])
    coef, *_ = np.linalg.lstsq(a_matrix, np.asarray(risk_q), rcond=None)
    return float(np.max(np.abs(a_matrix @ coef - risk_q)))


def criterion_9():
    """Exact-affine finite-dimensional regimes versus a generic non-nested one."""
    rng = np.random.default_rng(np.random.SeedSequence([_ROOT_SEED, 9]))
    d, k = 40, 20
    basis = haar_basis(d, k, np.random.SeedSequence([_ROOT_SEED, 9, 0]))
    beta = rng.standard_normal(d)
    sigma_p_sq, sigma_q_sq = 0.2, 0.3
    lams = np.geomspace(1e-3, 1e2, 20)

    def cross_and_residual(beta_vec, sigma_q):
        cross = finite_dim_linearity(beta_vec, basis, sigma_q, sigma_p_sq, sigma_q_sq)[0]
        pts = [
            population_ridge_risks(beta_vec, basis, sigma_q, sigma_p_sq, sigma_q_sq, lam)
            for lam in lams
        ]
        return abs(cross), _affine_fit_residual([p[0] for p in pts], [p[1] for p in pts])

    w = rng.uniform(0.5, 2.0, k)
    sigma_nested = (basis.columns * w) @ basis.columns.T
    g = rng.standard_normal((d, d))
    sigma_generic = g.T @ g / d

    exact = {
        "nested": cross_and_residual(beta, sigma_nested),
        "in-subspace": cross_and_residual(basis.project(beta), sigma_generic),
    }
    cross_c, resid_c = cross_and_residual(beta, sigma_generic)
    bounds = []
    for tag, (cross, resid) in exact.items():
        bounds += [(f"{tag} |cross|", cross, "<=", 1e-12), (f"{tag} affine residual", resid, "<=", 1e-10)]
    nested_floor = max(*(resid for _, resid in exact.values()), 1e-14)
    return _judge("criterion-9-finite-dim-linearity", bounds + [
        ("generic |cross|", cross_c, ">", 1e-8),
        ("generic affine residual, vs 10x the nested ones", resid_c, ">=", 10.0 * nested_floor),
    ])


def criterion_10():
    """Both asymptotic risk relations are identities of the decision covariances."""
    rng = np.random.default_rng(np.random.SeedSequence([_ROOT_SEED, 10]))
    worst = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.1, 2.0))
        b = float(rng.uniform(0.1, 3.0))
        c = float(rng.uniform(0.5, 3.0))
        shift = ShiftParameters(
            gamma=float(rng.uniform(0.2, 3.0)),
            mu=float(rng.uniform(1.0, 3.0)),
            kappa=float(rng.uniform(0.2, 3.0)),
            r_p=float(rng.uniform(0.1, 1.0)),
            sigma_beta_sq=float(rng.uniform(0.3, 2.0)),
        )
        cov_p, cov_q = asymptotic_decision_cov(a, b, c, shift)
        risk_p = misclassification_risk(cov_p)
        risk_q = misclassification_risk(cov_q)
        worst = max(worst, abs(risk_q - classification_relation(risk_p, shift)))

        shift_eq = dataclasses.replace(shift, kappa=shift.gamma)
        cov_p2, cov_q2 = asymptotic_decision_cov(a, b, c, shift_eq)
        sq_p = squared_risk(cov_p2)
        sq_q = squared_risk(cov_q2)
        worst = max(worst, abs(sq_q - regression_relation(sq_p, shift_eq)))
    return _judge("criterion-10-relation-identities", [
        ("max identity residual over 100 random tuples", worst, "<=", 1e-10),
    ])


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all():
    """Run every criterion, print one PASS/FAIL line each, return the results."""
    results = []
    for fn in ALL_CRITERIA:
        result = fn()
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
        results.append(result)
    return results
