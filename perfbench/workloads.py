"""Benchmark workloads and the correctness check applied to every CSV they write.

Each workload is one runner at its default config; only master_seed comes from
the benchmark's --seed.  The checks reuse the acceptance thresholds of
riskshift.harness.selftest unchanged, and the expected row counts pin the
workload size, so speed cannot be bought with fewer trials or grid points.
"""

import csv
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from riskshift.harness.selftest import count_significant_violations


@dataclass(frozen=True)
class Check:
    passed: bool
    detail: str
    relation_gap_max: float
    mc_se_max: float


TEXT_COLUMNS = {"model", "metric", "matrix"}


def read_csv(path, header):
    """Rows of a runner CSV with numeric cells as floats; raises ValueError on a malformed file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(header):
            raise ValueError(f"{path}: header differs from {header}")
        rows = []
        for cells in reader:
            if len(cells) != len(header):
                raise ValueError(f"{path}: row {len(rows) + 1} has {len(cells)} cells")
            row = {name: cell if name in TEXT_COLUMNS else float(cell)
                   for name, cell in zip(header, cells)}
            if not all(math.isfinite(v) for k, v in row.items() if k not in TEXT_COLUMNS):
                raise ValueError(f"{path}: non-finite cell in row {len(rows) + 1}")
            rows.append(row)
    return rows


def _gap(rows):
    return max(abs(r["risk_q"] - r["risk_q_pred"]) for r in rows)


def check_regression(rows, config):
    """Criterion 1: max |risk_q - risk_q_pred| <= 0.05."""
    gap = _gap(rows)
    return Check(gap <= 0.05, f"max |risk_q - risk_q_pred| = {gap:.4g} (tol 0.05)", gap, 0.0)


def check_classification(rows, config):
    """Criterion 2: max gap to theory <= 0.02 and matched-pair risk_q gap <= 0.01."""
    measured = [r for r in rows if r["model"] != "theory"]
    gap = _gap(measured)
    worst_pair = 0.0
    for t in sorted({r["trial"] for r in measured}):
        in_trial = [r for r in measured if r["trial"] == t]
        for r1, r2 in combinations(in_trial, 2):
            if r1["model"] != r2["model"] and abs(r1["risk_p"] - r2["risk_p"]) <= 0.005:
                worst_pair = max(worst_pair, abs(r1["risk_q"] - r2["risk_q"]))
    return Check(
        gap <= 0.02 and worst_pair <= 0.01,
        f"max |risk_q - theory| = {gap:.4g} (tol 0.02); matched-pair gap = {worst_pair:.4g} (tol 0.01)",
        gap,
        0.0,
    )


def check_counterexample(rows, config):
    """Criterion 6: surrogate metrics flip, misclassification does not and obeys the sec^2 map."""
    counts = {}
    for metric in ("misclassification", "logistic", "hinge"):
        m_rows = sorted((r for r in rows if r["metric"] == metric), key=lambda r: r["a"])
        counts[metric] = count_significant_violations(
            *([r[k] for r in m_rows] for k in ("risk_p", "se_p", "risk_q", "se_q"))
        )
    slope = config["kappa"] * config["mu"] / config["gamma"]
    identity = max(
        abs(
            1.0 / math.cos(math.pi * r["risk_q"]) ** 2
            - (slope * (1.0 / math.cos(math.pi * r["risk_p"]) ** 2 - 1.0) + config["mu"])
        )
        for r in rows
        if r["metric"] == "misclassification"
    )
    se_max = max(max(r["se_p"], r["se_q"]) for r in rows if r["metric"] != "misclassification")
    passed = (
        counts["logistic"] >= 1
        and counts["hinge"] >= 1
        and counts["misclassification"] == 0
        and identity <= 1e-9
    )
    return Check(
        passed,
        f"flips logistic={counts['logistic']} hinge={counts['hinge']} (need >=1), "
        f"misclassification={counts['misclassification']} (need 0); "
        f"sec^2 identity residual {identity:.3g} (tol 1e-9)",
        identity,
        se_max,
    )


def check_denoise(rows, config):
    """Criterion 3: the denoising identity holds to 1e-12 at every (a, snr, lambda) point."""
    worst = max(r["residual"] for r in rows)
    return Check(worst <= 1e-12, f"max denoise identity residual = {worst:.3g} (tol 1e-12)", worst, 0.0)


def check_cs(rows, config):
    """Criterion 4: median Gaussian residual decreases in n with log-log slope in [-0.8, -0.2]."""
    gaussian = [r for r in rows if r["matrix"] == "gaussian"]
    n_values = sorted({r["n"] for r in gaussian})
    medians = [float(np.median([r["residual"] for r in gaussian if r["n"] == n])) for n in n_values]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    slope = float(np.polyfit(np.log(n_values), np.log(medians), 1)[0])
    return Check(
        decreasing and -0.8 <= slope <= -0.2,
        f"median residuals {['%.3g' % m for m in medians]} decreasing={decreasing}; "
        f"log-log slope {slope:.3f} (need [-0.8, -0.2])",
        max(r["residual"] for r in gaussian),
        0.0,
    )


@dataclass(frozen=True)
class Workload:
    kind: str
    header: tuple
    rows: int
    check: object


_SWEEP = ("trial", "model", "lambda", "risk_p", "risk_q", "risk_q_pred")

WORKLOADS = {
    # per-lambda Gram + Cholesky ridge path; no Newton, no Monte Carlo.  Not
    # listed in BENCHMARK.json: criterion 1's 0.05 gap holds at master seed 0
    # but fails at most other seeds (0.0647 at seed 1, 13 of 20 seeds tried),
    # so a run at a random seed reports correct=false.
    "sweep-regression": Workload(
        "regression-sweep", _SWEEP + ("gamma", "mu", "kappa"), 5 * 25, check_regression
    ),
    # the only Newton workload; two label vectors share each design matrix.  Not
    # listed in BENCHMARK.json: criterion 2's 0.02 gap fails at seeds 1-3, and
    # Newton stalls make its wall time depend on the seed (35-61 s over seeds
    # 0-3 on a 2-core machine), a spread wider than the largest allowed bound.
    "sweep-classification": Workload(
        "classification-sweep", _SWEEP + ("converged",), 3 * (3 * 25 + 40), check_classification
    ),
    # Monte Carlo surrogate risks; bypasses estimators, shiftmodel and datagen
    "counterexample-mc": Workload(
        "counterexample", ("metric", "a", "risk_p", "se_p", "risk_q", "se_q"), 3 * 40,
        check_counterexample,
    ),
    # closed-form denoising risks on seeded subspace pairs: the subspace and
    # inverse layers without the measurement operator
    "denoise": Workload(
        "denoise", ("a_target", "a_realized", "snr", "lambda", "risk_p", "risk_q", "alpha", "residual"),
        3 * 2 * 50, check_denoise,
    ),
    # the only workload that runs cs_operator.  Not listed in BENCHMARK.json:
    # criterion 4's median-decay test fails at 3 of 40 random master seeds.
    "cs-validate": Workload(
        "cs-validate", ("matrix", "n", "trial", "residual", "ipp_max_dev"), 20 * (3 + 1), check_cs
    ),
}


def check_csv(workload, path, config):
    """Verdict for one CSV: complete, finite, and within the workload's acceptance thresholds."""
    try:
        rows = read_csv(path, workload.header)
    except (OSError, ValueError) as exc:
        return Check(False, f"unreadable CSV: {exc}", math.nan, math.nan)
    if len(rows) != workload.rows:
        return Check(False, f"{len(rows)} rows, expected {workload.rows}", math.nan, math.nan)
    return workload.check(rows, config)
