"""Config fuzz: small valid configs of the six file-free kinds, each with at most one key at an edge value.

Every run goes through the command line.  It exits 0, 2 (config) or 3 (numeric), a refusal writes no
file and one stderr line, and a success writes the runner's header over finite numeric cells.
"""

import contextlib
import csv
import io
import math
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshift.harness.cli import main
from riskshift.harness.config import (
    KIND_CLASSIFICATION,
    KIND_COUNTEREXAMPLE,
    KIND_CS,
    KIND_DENOISE,
    KIND_REGRESSION,
    KIND_RELATION,
)

_HEADERS = {
    KIND_REGRESSION: ["trial", "model", "lambda", "risk_p", "risk_q", "risk_q_pred", "gamma", "mu", "kappa"],
    KIND_CLASSIFICATION: [
        "trial", "model", "lambda", "risk_p", "risk_q", "risk_q_pred", "converged", "gamma", "mu", "kappa"],
    KIND_RELATION: ["curve", "mu", "kappa_over_gamma", "risk_p", "risk_q"],
    KIND_DENOISE: ["a_target", "a_realized", "snr", "lambda", "risk_p", "risk_q", "alpha", "residual"],
    KIND_COUNTEREXAMPLE: ["metric", "a", "risk_p", "se_p", "risk_q", "se_q"],
    KIND_CS: ["matrix", "n", "trial", "residual", "ipp_max_dev"],
}

# the value a key is set to, as config text: zero, a tiny and a huge real, the largest float, a bool, a word
_EDGES = ["0", "1e-300", "1e300", repr(sys.float_info.max), "True", "abc"]


def _unique_lists(elements):
    return st.lists(elements, min_size=1, max_size=3, unique=True)


@st.composite
def _lambda_trio(draw):
    low = draw(st.floats(1e-3, 10.0))
    high = low * draw(st.floats(2.0, 100.0))
    return {"lambda_min": low, "lambda_max": high, "lambda_points": draw(st.integers(1, 3))}


@st.composite
def _geometry(draw, least_shared):
    """d <= 12 and ranks d_p, d_q with a shared rank d_pq >= least_shared that SubspacePairSpec accepts."""
    d = draw(st.integers(1, 12))
    d_p, d_q = draw(st.integers(1, d)), draw(st.integers(1, d))
    d_pq = draw(st.integers(max(least_shared, d_p + d_q - d), min(d_p, d_q)))
    return {"d": d, "d_p": d_p, "d_q": d_q, "d_pq": d_pq}


@st.composite
def _regression(draw):
    return {**draw(_geometry(1)), "n": draw(st.integers(1, 40)), **draw(_lambda_trio()),
            "sigma_beta_sq": draw(st.floats(0.1, 10.0)), "tau": draw(st.floats(0.5, 4.0)),
            "noise_var": draw(st.floats(0.0, 1.0)), "trials": 1}


@st.composite
def _classification(draw):
    d = draw(st.integers(1, 12))
    return {"d": d, "d_p": draw(st.integers(1, d)), "n": draw(st.integers(1, 40)), **draw(_lambda_trio()),
            "sign_correct_prob": draw(st.floats(0.6, 1.0)), "kappa_over_gamma": draw(st.floats(0.5, 2.0)),
            "trials": 1}


@st.composite
def _relation(draw):
    return {"mu_grid": draw(_unique_lists(st.floats(1.0, 3.0))), "ratio_grid": draw(_unique_lists(st.floats(0.2, 5.0))),
            "mu_fixed": draw(st.floats(1.0, 3.0)), "risk_p_min": draw(st.floats(0.01, 0.2)),
            "risk_p_max": draw(st.floats(0.3, 0.49)), "risk_p_points": draw(st.integers(2, 3))}


@st.composite
def _denoise(draw):
    geometry = draw(_geometry(0))
    d, d_p, d_q = geometry["d"], geometry["d_p"], geometry["d_q"]
    shared = st.integers(max(0, d_p + d_q - d), min(d_p, d_q))
    return {"d": d, "d_p": d_p, "d_q": d_q, "a_grid": draw(_unique_lists(shared.map(lambda d_pq: d_pq / d_q))),
            "snr_grid": draw(_unique_lists(st.floats(0.5, 100.0))), **draw(_lambda_trio())}


@st.composite
def _counterexample(draw):
    a_min = draw(st.floats(0.05, 1.0))
    return {"a_min": a_min, "a_max": a_min * draw(st.floats(2.0, 30.0)), "a_points": draw(st.integers(2, 3)),
            **{key: draw(st.floats(0.5, 2.0)) for key in ("sigma_beta_sq", "gamma", "kappa", "b", "c")},
            "mu": draw(st.floats(1.0, 2.0)), "r_p": draw(st.floats(0.5, 1.0))}


@st.composite
def _cs(draw):
    geometry = draw(_geometry(0))
    floor = max(geometry["d_p"], geometry["d_q"])
    return {**geometry, "snr": draw(st.floats(1.0, 100.0)), "lambda": draw(st.floats(0.0, 10.0)),
            "n_grid": draw(_unique_lists(st.integers(floor, 40))), "trials": 1}


_VALID = {
    KIND_REGRESSION: _regression(),
    KIND_CLASSIFICATION: _classification(),
    KIND_RELATION: _relation(),
    KIND_DENOISE: _denoise(),
    KIND_COUNTEREXAMPLE: _counterexample(),
    KIND_CS: _cs(),
}


def _text(value):
    if isinstance(value, list):
        return ", ".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


@st.composite
def _edged_configs(draw, kind):
    """A valid config of kind, as key -> value, with at most one key at an edge."""
    config = {"master_seed": draw(st.integers(0, 2**32 - 1)), **draw(_VALID[kind])}
    keys = sorted(config)
    one_point = [key for key in keys if isinstance(config[key], list)] + [
        key for key in keys if key.endswith("_points")]
    edit = draw(st.sampled_from(["none", "edge", "one-point grid"] + (["d_p = d"] if "d_p" in config else [])))
    if edit == "edge":
        config[draw(st.sampled_from(keys))] = draw(st.sampled_from(_EDGES))
    elif edit == "one-point grid":
        key = draw(st.sampled_from(one_point))
        config[key] = config[key][:1] if isinstance(config[key], list) else 1
    elif edit == "d_p = d":
        config["d_p"] = config["d"]
    return config


def _run(kind, config):
    """(exit code, stderr lines, the CSV rows or None) of one command-line run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{key} = {_text(value)}\n" for key, value in config.items()))
            fh.write(f"output_path = {out}\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([kind, "--config", path])
        rows = None
        if os.path.exists(out):
            with open(out, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
        return code, err.getvalue().splitlines(), rows


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(_VALID))
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_an_edged_config_exits_cleanly(kind, data):
    config = data.draw(_edged_configs(kind))
    code, err_lines, rows = _run(kind, config)
    assert code in (0, 2, 3), (code, err_lines)
    if code:
        assert rows is None
        assert len(err_lines) == 1 and err_lines[0].startswith("error: "), err_lines
    else:
        assert err_lines == []
        assert rows[0] == _HEADERS[kind]
        assert len(rows) > 1
        cells = [cell for row in rows[1:] for cell in row]
        assert all(math.isfinite(float(cell)) for cell in cells if _is_number(cell)), rows
