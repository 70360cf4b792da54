"""Experiment runners: seeded sweeps that return (header, rows) tables.

RNG stream derivation (stable across versions): trial t of an experiment with
master seed m draws from seed sequences with entropy [m, t, slot]; README §
Determinism tables each slot and the function that draws it.  Rows are sorted
on a documented key before writing, so a CSV's row order does not depend on
the order in which the configured grids list their values.
README § Output format describes each kind's CSV columns.
"""

import dataclasses
import math
import os
import warnings

import numpy as np

from riskshift.datagen import (
    LinearGaussian,
    NoisySign,
    label,
    sample_beta,
    sample_covariates,
)
from riskshift.errors import NumericInputError
from riskshift.estimators import erm_fit, ridge_fit
from riskshift.harness.config import (
    KIND_CLASSIFICATION,
    KIND_COUNTEREXAMPLE,
    KIND_CS,
    KIND_DENOISE,
    KIND_REGRESSION,
    KIND_RELATION,
    KIND_SUBSPACE,
)
from riskshift.inverse import (
    InverseProblem,
    cs_relation_residual,
    denoise_grid,
    gaussian_measurement,
    inner_product_preservation_stats,
    sketch_bases,
)
from riskshift.risk import (
    MetricKind,
    decision_cov,
    misclassification_risk,
    quad_metric_risk,
    squared_risk,
)
from riskshift.shiftmodel import (
    ShiftParameters,
    _support_mean_square,
    shift_parameters,
    subspace_shift_model,
    task_dependent_model,
)
from riskshift.subspace import (
    OrthonormalBasis,
    SubspacePairSpec,
    overlap_coefficient,
    overlapping_pair,
    subspace_similarity,
)
from riskshift.theory import (
    asymptotic_decision_cov,
    classification_relation,
    regression_relation,
)

_GRID_SLOT_BASE = 16


def stream(master_seed, trial, slot):
    """Seed sequence for (trial, slot); README § Determinism tables the slots and the functions that draw them."""
    return np.random.SeedSequence([int(master_seed), int(trial), int(slot)])


def _format_cell(value):
    # float first: nearly every cell is one, and np.float64 subclasses float
    if not isinstance(value, float):
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_)):
            return str(int(value))
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        value = float(value)
    if not math.isfinite(value):
        raise NumericInputError(f"refusing to serialize non-finite value {value}")
    return f"{value:.17g}"


def _format_column(name, values):
    """_format_cell of each value, one % operation for a column of floats; a refusal names column and row."""
    if values and all(isinstance(v, float) for v in values):
        text = ",".join(["%.17g"] * len(values)) % tuple(values)
        # %.17g writes a finite float with digits, sign, point and exponent only: an n is nan or inf
        if "n" not in text:
            return text.split(",")
    cells = []
    try:
        for value in values:
            cells.append(_format_cell(value))
    except NumericInputError as exc:
        raise NumericInputError(f"{exc} in column {name!r}, data row {len(cells) + 1}") from None
    return cells


def write_csv(path, header, rows):
    """CSV with LF newlines and 17 significant digits for floats, written atomically.

    Every cell is formatted (and non-finite values rejected) before the file is
    touched; the text goes to a temporary file in the same directory that
    replaces path only once complete, so a failed write leaves any previous
    file intact and never a truncated one.  The table is formatted column by
    column (_format_column), then joined row by row.
    """
    columns = [_format_column(name, [row[name] for row in rows]) for name in header]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    # O_EXCL refuses a file that is already there; mode 0o666 under the
    # process umask is the mode a plain open() would give
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _draw_trial(config, t, spec, tau, sigma_beta_sq):
    """(pair, beta_star, x, labels) of trial t: draws from slots 0, 1 and 2, and slot 3's sequence for each label law."""
    ms = config["master_seed"]
    pair = subspace_shift_model(spec, tau, stream(ms, t, 0))
    beta_star = sample_beta(spec.d, sigma_beta_sq, stream(ms, t, 1))
    x = sample_covariates(pair, config["n"], stream(ms, t, 2))
    return pair, beta_star, x, stream(ms, t, 3)


def regression_trial(config, t):
    """(pair, beta_star, x, y) of the regression sweep's trial t; y has additive Gaussian noise."""
    spec = SubspacePairSpec(config["d"], config["d_p"], config["d_q"], config["d_pq"])
    pair, beta_star, x, labels = _draw_trial(config, t, spec, config["tau"], config["sigma_beta_sq"])
    return pair, beta_star, x, label(x, beta_star, LinearGaussian(math.sqrt(config["noise_var"])), labels)


def classification_trial(config, t):
    """(pair, beta_star, x, y_sign, y_clean) of the classification sweep's trial t: noisy signs and noiseless scores.

    Sigma_Q is rebuilt from beta*'s energies on the Sigma_P support (beta* has unit variance, the scale in which
    the rebuild's eps0 = 1e-8 is set).  The rebuild keeps the eigenbasis and Sigma_P and reads no Sigma_Q, so x
    drawn from the input pair (whose Sigma_Q is Sigma_P) is the x of the rebuilt one.
    """
    d_p = config["d_p"]
    pair, beta_star, x, labels = _draw_trial(config, t, SubspacePairSpec(config["d"], d_p, d_p, d_p), 1.0, 1.0)
    pair = task_dependent_model(pair, beta_star, target_ratio=config["kappa_over_gamma"])
    y_sign = label(x, beta_star, NoisySign(config["sign_correct_prob"]), labels)
    return pair, beta_star, x, y_sign, label(x, beta_star, LinearGaussian(0.0), labels)


def run_regression_sweep(config):
    """Ridge sweeps under additive-noise labels, squared risks on both laws."""
    rows = []
    for t in range(config["trials"]):
        pair, beta_star, x, y = regression_trial(config, t)
        # scale the plug-ins by the realized support energy rather than the
        # nominal per-coordinate variance: gamma then matches the realized
        # bias amplification and the intercept equals the realized
        # off-support energy under Sigma_Q, so the prediction is free of the
        # O(d^-1/2) ground-truth-norm fluctuation
        support_ms = _support_mean_square(pair, beta_star)[0]
        shift = shift_parameters(pair, beta_star, support_ms)
        # the affine squared-risk map needs gamma = kappa exactly; for this
        # model class they differ only by finite-d fluctuation, so the
        # prediction uses the gamma plug-in for both
        shift_pred = dataclasses.replace(shift, kappa=shift.gamma)
        for lam, beta_hat in zip(config["lambda_grid"], ridge_fit(x, y, config["lambda_grid"])):
            cov_p, cov_q = decision_cov(beta_star, beta_hat, pair)
            risk_p = squared_risk(cov_p)
            risk_q = squared_risk(cov_q)
            rows.append(
                {
                    "trial": t,
                    "model": "ridge",
                    "lambda": lam,
                    "risk_p": risk_p,
                    "risk_q": risk_q,
                    "risk_q_pred": regression_relation(risk_p, shift_pred),
                    "gamma": shift.gamma,
                    "mu": shift.mu,
                    "kappa": shift.kappa,
                }
            )
    rows.sort(key=lambda r: (r["trial"], r["model"], r["lambda"]))
    header = ["trial", "model", "lambda", "risk_p", "risk_q", "risk_q_pred", "gamma", "mu", "kappa"]
    return header, rows


def run_classification_sweep(config):
    """Three model families on sign labels, misclassification risks on both laws.

    Families: ridge on noisy signs, logistic ERM on the same labels (erm_fit
    warm-starts each lambda from the previous one), and ridge on noiseless
    linear scores.  Each row carries its trial's shift parameters, from which
    classification_relation gives its risk_q_pred.
    """
    rows = []
    for t in range(config["trials"]):
        pair, beta_star, x, y_sign, y_clean = classification_trial(config, t)
        shift = shift_parameters(pair, beta_star, 1.0)

        def emit(model, lam, beta_hat, converged):
            cov_p, cov_q = decision_cov(beta_star, beta_hat, pair)
            risk_p = misclassification_risk(cov_p)
            rows.append(
                {
                    "trial": t,
                    "model": model,
                    "lambda": lam,
                    "risk_p": risk_p,
                    "risk_q": misclassification_risk(cov_q),
                    "risk_q_pred": classification_relation(risk_p, shift),
                    "converged": converged,
                    "gamma": shift.gamma,
                    "mu": shift.mu,
                    "kappa": shift.kappa,
                }
            )

        lams = config["lambda_grid"]
        fits = zip(lams, ridge_fit(x, y_sign, lams), ridge_fit(x, y_clean, lams), erm_fit(x, y_sign, lams))
        for lam, beta_sign, beta_clean, fit in fits:
            emit("ridge-sign", lam, beta_sign, True)
            emit("ridge-noiseless", lam, beta_clean, True)
            emit("logistic-sign", lam, fit.beta_hat, fit.converged)
    rows.sort(key=lambda r: (r["trial"], r["model"], r["lambda"]))
    header = ["trial", "model", "lambda", "risk_p", "risk_q", "risk_q_pred", "converged", "gamma", "mu", "kappa"]
    return header, rows


def run_relation_curves(config):
    """Tabulated theory curves: risk_q versus risk_p for mu and kappa/gamma grids.

    The classification relation reads only gamma, mu and kappa; r_p and
    sigma_beta_sq are fixed placeholders.
    """
    curves = [("mu", mu, 1.0) for mu in config["mu_grid"]]
    curves += [("ratio", config["mu_fixed"], ratio) for ratio in config["ratio_grid"]]
    rows = []
    for curve, mu, ratio in curves:
        shift = ShiftParameters(gamma=1.0, mu=mu, kappa=ratio, r_p=1.0, sigma_beta_sq=1.0)
        for risk_p in config["risk_p_grid"]:
            rows.append(
                {
                    "curve": curve,
                    "mu": mu,
                    "kappa_over_gamma": ratio,
                    "risk_p": risk_p,
                    "risk_q": classification_relation(risk_p, shift),
                }
            )
    rows.sort(key=lambda r: (r["curve"], r["mu"], r["kappa_over_gamma"], r["risk_p"]))
    header = ["curve", "mu", "kappa_over_gamma", "risk_p", "risk_q"]
    return header, rows


def denoise_pair(config, i):
    """(u_p, u_q) of denoise grid point i: overlap dimension d_pq_grid[i], from slot 16 + i of trial 0."""
    spec = SubspacePairSpec(config["d"], config["d_p"], config["d_q"], config["d_pq_grid"][i])
    return overlapping_pair(spec, stream(config["master_seed"], 0, _GRID_SLOT_BASE + i))


def run_denoising(config):
    """Closed-form denoising risk trajectories over lambda, with identity residuals.

    Each subspace pair's snr x lambda grid is one denoise_grid evaluation.
    """
    d_p, d_q, a_grid, snrs = config["d_p"], config["d_q"], config["a_grid"], config["snr_grid"]
    # noise variances as a column against the lambda row
    noise = np.array([[1.0 / snr] for snr in snrs])
    lam = np.array(config["lambda_grid"])
    overlaps, grids = [], []
    for i in range(len(a_grid)):
        u_p, u_q = denoise_pair(config, i)
        overlaps.append(overlap_coefficient(u_p, u_q))
        grids.append(denoise_grid(overlaps[-1], d_p, d_q, noise, noise, lam))
    # one array per column over (pair, snr, lambda)
    columns = [c.ravel() for c in np.broadcast_arrays(
        np.reshape(a_grid, (-1, 1, 1)),
        np.reshape(overlaps, (-1, 1, 1)),
        np.reshape(snrs, (-1, 1)),
        lam,
        *np.moveaxis(np.array(grids), 1, 0),
    )]
    # stable like list.sort on the (a_target, snr, lambda) key
    order = np.lexsort((columns[3], columns[2], columns[0]))
    header = ["a_target", "a_realized", "snr", "lambda", "risk_p", "risk_q", "alpha", "residual"]
    rows = [dict(zip(header, cells)) for cells in zip(*(c[order].tolist() for c in columns))]
    return header, rows


def run_counterexample(config):
    """Parametric (risk_p, risk_q) curves of the estimator family along alignment a.

    Misclassification rows are closed form (zero standard errors); logistic and
    hinge rows are quadrature, with the quadrature error estimate in the se
    columns.  The runner draws no random numbers.
    """
    shift = ShiftParameters(
        gamma=config["gamma"],
        mu=config["mu"],
        kappa=config["kappa"],
        r_p=config["r_p"],
        sigma_beta_sq=config["sigma_beta_sq"],
    )
    a_grid = config["a_grid"]
    covs = [asymptotic_decision_cov(a, config["b"], config["c"], shift) for a in a_grid]
    rows = [
        {
            "metric": MetricKind.MISCLASSIFICATION.value,
            "a": a,
            "risk_p": misclassification_risk(cov_p),
            "se_p": 0.0,
            "risk_q": misclassification_risk(cov_q),
            "se_q": 0.0,
        }
        for a, (cov_p, cov_q) in zip(a_grid, covs)
    ]
    # one quadrature batch per metric: the P sides, then the Q sides
    sides = [cov_p for cov_p, _ in covs] + [cov_q for _, cov_q in covs]
    n = len(a_grid)
    for metric in (MetricKind.LOGISTIC, MetricKind.HINGE):
        est, se = (v.tolist() for v in quad_metric_risk(sides, metric))
        rows += [
            {
                "metric": metric.value,
                "a": a,
                "risk_p": est[i],
                "se_p": se[i],
                "risk_q": est[n + i],
                "se_q": se[n + i],
            }
            for i, a in enumerate(a_grid)
        ]
    rows.sort(key=lambda r: (r["metric"], r["a"]))
    header = ["metric", "a", "risk_p", "se_p", "risk_q", "se_q"]
    return header, rows


def _cs_measurements(config, t):
    """(matrix, A, n) of trial t: each Gaussian A of the n grid in turn, then A = I."""
    for i, n in enumerate(config["n_grid"]):
        slot = stream(config["master_seed"], t, _GRID_SLOT_BASE + i)
        yield "gaussian", gaussian_measurement(n, config["d"], slot), int(n)
    yield "identity", np.eye(config["d"]), config["d"]


def run_cs_validation(config):
    """Relation residual and inner-product preservation across measurement counts."""
    ms = config["master_seed"]
    spec = SubspacePairSpec(config["d"], config["d_p"], config["d_q"], config["d_pq"])
    noise = 1.0 / config["snr"]
    rows = []
    for t in range(config["trials"]):
        u_p, u_q = overlapping_pair(spec, stream(ms, t, 0))
        problem = InverseProblem(
            u_p=u_p, u_q=u_q, sigma_p_sq=noise, sigma_q_sq=noise, lam=config["lambda"]
        )
        for matrix, a_matrix, n in _cs_measurements(config, t):
            sketch = sketch_bases(a_matrix, problem)
            rows.append(
                {
                    "matrix": matrix,
                    "n": n,
                    "trial": t,
                    "residual": cs_relation_residual(sketch, problem),
                    "ipp_max_dev": inner_product_preservation_stats(sketch, problem),
                }
            )
    rows.sort(key=lambda r: (r["matrix"], r["n"], r["trial"]))
    header = ["matrix", "n", "trial", "residual", "ipp_max_dev"]
    return header, rows


def _load_matrix(path):
    for kwargs in ({}, {"delimiter": ","}):
        try:
            with warnings.catch_warnings():
                # a file with no data rows is refused below by its size, not by numpy's warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                matrix = np.loadtxt(path, ndmin=2, **kwargs)
        except ValueError:
            continue
        if matrix.size == 0:
            raise OSError(f"input file {path} contains no numeric data")
        bad = np.argwhere(~np.isfinite(matrix))
        if len(bad):
            row, col = bad[0]
            raise NumericInputError(
                f"input file {path} has the non-finite entry {matrix[row, col]} "
                f"at data row {row + 1}, column {col + 1}"
            )
        return matrix
    raise OSError(f"cannot parse a numeric matrix from {path} (whitespace or comma delimited)")


def run_subspace_analyze(config):
    """Spectra and top-k principal-subspace similarity of two sample matrices."""
    m_p = _load_matrix(config["input_p"])
    m_q = _load_matrix(config["input_q"])
    if m_p.shape[1] != m_q.shape[1]:
        raise NumericInputError(
            f"inputs have different feature dimensions: {m_p.shape[1]} vs {m_q.shape[1]}"
        )
    centered_p = m_p - np.mean(m_p, axis=0)
    centered_q = m_q - np.mean(m_q, axis=0)
    sv_p, vt_p = np.linalg.svd(centered_p, full_matrices=False)[1:]
    sv_q, vt_q = np.linalg.svd(centered_q, full_matrices=False)[1:]
    available = min(len(sv_p), len(sv_q))
    k_max = available if config["k_max"] == 0 else min(config["k_max"], available)
    rows = []
    for k in range(1, k_max + 1):
        sim = subspace_similarity(OrthonormalBasis(vt_p[:k].T), OrthonormalBasis(vt_q[:k].T))
        rows.append(
            {
                "k": k,
                "sv_1": float(sv_p[k - 1]),
                "sv_2": float(sv_q[k - 1]),
                "similarity": sim,
            }
        )
    header = ["k", "sv_1", "sv_2", "similarity"]
    return header, rows


RUNNERS = {
    KIND_REGRESSION: run_regression_sweep,
    KIND_CLASSIFICATION: run_classification_sweep,
    KIND_RELATION: run_relation_curves,
    KIND_DENOISE: run_denoising,
    KIND_COUNTEREXAMPLE: run_counterexample,
    KIND_CS: run_cs_validation,
    KIND_SUBSPACE: run_subspace_analyze,
}


def run_and_write(config):
    """Execute the configured runner and write its CSV; returns (path, row count)."""
    header, rows = RUNNERS[config.kind](config)
    path = config["output_path"]
    write_csv(path, header, rows)
    return path, len(rows)
