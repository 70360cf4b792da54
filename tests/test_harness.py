"""Tests for config parsing, experiment runners, CSV output, and the CLI."""

import ast
import csv
import dataclasses
import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import riskshift
import riskshift.harness
import riskshift.harness.runners as runners
from riskshift.datagen import LinearGaussian, label, sample_beta, sample_covariates
from riskshift.errors import ConfigError, NumericInputError
from riskshift.estimators import ridge_fit
from riskshift.harness.cli import main
from riskshift.harness.config import (
    _REQUIRED,
    _SCHEMAS,
    ALL_KINDS,
    KIND_CLASSIFICATION,
    KIND_COUNTEREXAMPLE,
    KIND_CS,
    KIND_DENOISE,
    KIND_REGRESSION,
    KIND_RELATION,
    KIND_SUBSPACE,
    config_from_mapping,
    load_config,
    parse_config_text,
)
from riskshift.harness.runners import (
    _GRID_SLOT_BASE,
    _format_cell,
    run_and_write,
    run_counterexample,
    run_cs_validation,
    run_denoising,
    run_regression_sweep,
    run_relation_curves,
    run_subspace_analyze,
    stream,
    write_csv,
)
from riskshift.inverse import denoise_grid
from riskshift.risk import MetricKind
from riskshift.shiftmodel import ShiftParameters, subspace_shift_model
from riskshift.subspace import SubspacePairSpec, haar_basis, overlap_coefficient, overlapping_pair
from riskshift.theory import classification_relation

# the lambda trio gives the grid 0.01, 1.0, 100.0
_SMALL_SWEEP = {
    "d": "60",
    "n": "120",
    "d_p": "40",
    "trials": "1",
    "lambda_min": "0.01",
    "lambda_max": "100",
    "lambda_points": "3",
}
_SMALL_REGRESSION = dict(_SMALL_SWEEP, d_q="30", d_pq="20")


def test_parse_config_text_accepts_comments_and_blanks():
    raw = parse_config_text(
        """
        # a comment line
        kind = denoise   # trailing comment
        d = 100

        master_seed = 7
        """
    )
    assert raw == {"kind": "denoise", "d": "100", "master_seed": "7"}


def test_parse_config_text_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("d = 100\nnot a pair\n")
    with pytest.raises(ConfigError, match="duplicate key 'd'"):
        parse_config_text("d = 100\nd = 200\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3\n")


def test_config_rejects_unknown_keys_and_kind_mismatch():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping(KIND_DENOISE, {"dd": "100"})
    with pytest.raises(ConfigError, match="does not match"):
        config_from_mapping(KIND_DENOISE, {"kind": KIND_RELATION})
    with pytest.raises(ConfigError, match="missing required"):
        config_from_mapping(KIND_SUBSPACE, {"input_p": "x.txt"})
    with pytest.raises(ConfigError, match="expects an integer"):
        config_from_mapping(KIND_DENOISE, {"d": "ten"})
    with pytest.raises(ConfigError, match="invalid subspace dimensions"):
        config_from_mapping(KIND_REGRESSION, {"d_pq": "700"})


# integers stay <= 1e4 in magnitude: a larger lambda_points is a MemoryError by design
_SMALL_INT = st.integers(-10**4, 10**4).map(str)
_FREE_TEXT = st.text(max_size=30).filter(lambda t: not re.search(r"\d{5}", t.replace("_", "")))
_NUMBER = st.one_of(_SMALL_INT, st.floats().map(repr))
_VALUE = st.one_of(
    _NUMBER, st.lists(_NUMBER, max_size=4).map(", ".join), st.sampled_from(ALL_KINDS), _FREE_TEXT
)


@st.composite
def _config_texts(draw, kind):
    key = st.one_of(st.sampled_from(list(_SCHEMAS[kind][0])), _FREE_TEXT)
    line = st.one_of(st.builds("{} = {}".format, key, _VALUE), _FREE_TEXT)
    return "\n".join(draw(st.lists(line, max_size=8)))


def _fails_only_with_config_error(kind, text):
    try:
        config_from_mapping(kind, parse_config_text(text))
    except ConfigError:
        pass


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_config_text_fails_only_with_config_error(kind, data):
    _fails_only_with_config_error(kind, data.draw(_config_texts(kind)))


# one grid point with lambda_max <= 0 once reached np.geomspace: 0 raised its
# ValueError, and -5 gave a grid [lambda_min] with a RuntimeWarning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [KIND_REGRESSION, KIND_CLASSIFICATION, KIND_DENOISE])
@pytest.mark.parametrize("lambda_max", ["0", "-5"])
def test_config_text_one_point_nonpositive_lambda_max(kind, lambda_max):
    _fails_only_with_config_error(kind, f"lambda_points = 1\nlambda_max = {lambda_max}\n")


# (kind, trio, its spacing, ends and point count, the grid they give)
_TRIOS = [
    pytest.param(KIND_DENOISE, "lambda", np.geomspace, 0.1, 10.0, 3, [0.1, 1.0, 10.0], id="denoise-lambda"),
    pytest.param(KIND_COUNTEREXAMPLE, "a", np.geomspace, 0.25, 4.0, 3, [0.25, 1.0, 4.0], id="counterexample-a"),
    pytest.param(KIND_RELATION, "risk_p", np.linspace, 0.1, 0.4, 4, [0.1, 0.2, 0.3, 0.4], id="relation-curves-risk_p"),
]


@pytest.mark.parametrize("kind,name,spacing,low,high,points,grid", _TRIOS)
def test_config_grid_is_built_from_the_trio(kind, name, spacing, low, high, points, grid):
    def trio(low, high, points):
        return {f"{name}_min": repr(low), f"{name}_max": repr(high), f"{name}_points": str(points)}

    built = config_from_mapping(kind, trio(low, high, points))[f"{name}_grid"]
    assert built == [float(t) for t in spacing(low, high, points)]
    assert all(type(t) is float for t in built)
    np.testing.assert_allclose(built, grid, rtol=1e-12)
    assert config_from_mapping(kind, trio(low, high, 2))[f"{name}_grid"] == [low, high]
    with pytest.raises(ConfigError, match=f"^{name}_min must be < {name}_max$"):
        config_from_mapping(kind, trio(high, low, points))
    # ends one ulp apart: the spacing repeats a value
    with pytest.raises(ConfigError, match=f"^{name} grid must be strictly increasing$"):
        config_from_mapping(kind, trio(low, math.nextafter(low, 1.0), 5))


# the largest float as an end once raised geomspace's overflow warning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind,name", [(KIND_DENOISE, "lambda"), (KIND_COUNTEREXAMPLE, "a")])
def test_config_geometric_grid_may_end_at_the_largest_float(kind, name):
    grid = config_from_mapping(kind, {f"{name}_max": repr(sys.float_info.max)})[f"{name}_grid"]
    assert grid[-1] == sys.float_info.max
    assert all(map(math.isfinite, grid)) and grid == sorted(set(grid))


def test_config_overrides_and_defaults(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("kind = cs-validate\nmaster_seed = 3\n", encoding="utf-8")
    cfg = load_config(path, KIND_CS, seed_override=11, out_override="other.csv")
    assert cfg["master_seed"] == 11
    assert cfg["output_path"] == "other.csv"
    assert cfg["snr"] == 100.0
    with pytest.raises(ConfigError):
        load_config(path, KIND_CS, seed_override=-1)


_TINY = 5e-324
_BELOW_ONE = math.nextafter(1.0, 0.0)
_ABOVE_ONE = math.nextafter(1.0, 2.0)

# (kind, key, a value the range rejects, the accepted value at the edge of the range,
# other keys); list-valued keys take a one-entry list.  Each case carries its own id,
# so deleting a row renames no other case; the ids keep the names the cases had
_RANGE_EDGES = [
    pytest.param(KIND_RELATION, "master_seed", -1, 0, {}, id="relation-curves-master_seed--1-0-others0"),
    pytest.param(KIND_DENOISE, "lambda_points", 0, 1, {}, id="denoise-lambda_points-0-1-others1"),
    pytest.param(KIND_DENOISE, "lambda_min", 0.0, _TINY, {}, id="denoise-lambda_min-0.0-5e-324-others2"),
    pytest.param(KIND_DENOISE, "d_q", 41, 40, {}, id="denoise-d_q-41-40-others3"),
    pytest.param(KIND_REGRESSION, "n", 0, 1, {}, id="regression-sweep-n-0-1-others4"),
    pytest.param(KIND_REGRESSION, "tau", 0.0, _TINY, {}, id="regression-sweep-tau-0.0-5e-324-others5"),
    pytest.param(KIND_REGRESSION, "sigma_beta_sq", 0.0, _TINY, {}, id="regression-sweep-sigma_beta_sq-0.0-5e-324-others6"),
    pytest.param(KIND_REGRESSION, "noise_var", -_TINY, 0.0, {}, id="regression-sweep-noise_var--5e-324-0.0-others7"),
    pytest.param(KIND_REGRESSION, "trials", 0, 1, {}, id="regression-sweep-trials-0-1-others8"),
    pytest.param(KIND_REGRESSION, "d_pq", 559, 560, {}, id="regression-sweep-d_pq-559-560-others9"),
    pytest.param(KIND_REGRESSION, "d_pq", 641, 640, {"d": 1000}, id="regression-sweep-d_pq-641-640-others10"),
    pytest.param(KIND_CLASSIFICATION, "n", 0, 1, {}, id="classification-sweep-n-0-1-others11"),
    pytest.param(KIND_CLASSIFICATION, "d_p", 0, 1, {}, id="classification-sweep-d_p-0-1-others12"),
    pytest.param(KIND_CLASSIFICATION, "d_p", 801, 800, {}, id="classification-sweep-d_p-801-800-others13"),
    pytest.param(KIND_CLASSIFICATION, "trials", 0, 1, {}, id="classification-sweep-trials-0-1-others14"),
    pytest.param(KIND_CLASSIFICATION, "kappa_over_gamma", 0.0, _TINY, {}, id="classification-sweep-kappa_over_gamma-0.0-5e-324-others15"),
    pytest.param(KIND_CLASSIFICATION, "sign_correct_prob", 0.5, math.nextafter(0.5, 1.0), {}, id="classification-sweep-sign_correct_prob-0.5-0.5000000000000001-others16"),
    pytest.param(KIND_CLASSIFICATION, "sign_correct_prob", _ABOVE_ONE, 1.0, {}, id="classification-sweep-sign_correct_prob-1.0000000000000002-1.0-others17"),
    pytest.param(KIND_CLASSIFICATION, "d", 719, 720, {}, id="classification-sweep-d-719-720-others19"),
    pytest.param(KIND_RELATION, "mu_grid", [_BELOW_ONE], [1.0], {}, id="relation-curves-mu_grid-rejected20-accepted20-others20"),
    pytest.param(KIND_RELATION, "ratio_grid", [0.0], [_TINY], {}, id="relation-curves-ratio_grid-rejected21-accepted21-others21"),
    pytest.param(KIND_RELATION, "mu_fixed", _BELOW_ONE, 1.0, {}, id="relation-curves-mu_fixed-0.9999999999999999-1.0-others22"),
    pytest.param(KIND_RELATION, "risk_p_min", 0.0, _TINY, {}, id="relation-curves-risk_p_min-0.0-5e-324-others23"),
    pytest.param(KIND_RELATION, "risk_p_min", 0.49, math.nextafter(0.49, 0.0), {"risk_p_points": 2}, id="relation-curves-risk_p_min-0.49-0.48999999999999994-others24"),
    pytest.param(KIND_RELATION, "risk_p_max", 0.5, math.nextafter(0.5, 0.0), {}, id="relation-curves-risk_p_max-0.5-0.49999999999999994-others25"),
    pytest.param(KIND_RELATION, "risk_p_points", 1, 2, {}, id="relation-curves-risk_p_points-1-2-others26"),
    pytest.param(KIND_DENOISE, "a_grid", [-0.1], [0.0], {}, id="denoise-a_grid-rejected27-accepted27-others27"),
    pytest.param(KIND_DENOISE, "a_grid", [_ABOVE_ONE], [1.0], {}, id="denoise-a_grid-rejected28-accepted28-others28"),
    pytest.param(KIND_DENOISE, "snr_grid", [0.0], [_TINY], {}, id="denoise-snr_grid-rejected29-accepted29-others29"),
    pytest.param(KIND_DENOISE, "d_p", 161, 160, {}, id="denoise-d_p-161-160-others30"),
    pytest.param(KIND_COUNTEREXAMPLE, "r_p", 0.0, _TINY, {}, id="counterexample-r_p-0.0-5e-324-others31"),
    pytest.param(KIND_COUNTEREXAMPLE, "r_p", _ABOVE_ONE, 1.0, {}, id="counterexample-r_p-1.0000000000000002-1.0-others32"),
    pytest.param(KIND_COUNTEREXAMPLE, "sigma_beta_sq", 0.0, _TINY, {}, id="counterexample-sigma_beta_sq-0.0-5e-324-others33"),
    pytest.param(KIND_COUNTEREXAMPLE, "gamma", 0.0, _TINY, {}, id="counterexample-gamma-0.0-5e-324-others34"),
    pytest.param(KIND_COUNTEREXAMPLE, "kappa", 0.0, _TINY, {}, id="counterexample-kappa-0.0-5e-324-others35"),
    pytest.param(KIND_COUNTEREXAMPLE, "b", 0.0, _TINY, {}, id="counterexample-b-0.0-5e-324-others36"),
    pytest.param(KIND_COUNTEREXAMPLE, "c", 0.0, _TINY, {}, id="counterexample-c-0.0-5e-324-others37"),
    pytest.param(KIND_COUNTEREXAMPLE, "mu", _BELOW_ONE, 1.0, {}, id="counterexample-mu-0.9999999999999999-1.0-others38"),
    pytest.param(KIND_COUNTEREXAMPLE, "a_min", 0.0, _TINY, {}, id="counterexample-a_min-0.0-5e-324-others39"),
    pytest.param(KIND_COUNTEREXAMPLE, "a_min", 30.0, math.nextafter(30.0, 0.0), {"a_points": 2}, id="counterexample-a_min-30.0-29.999999999999996-others40"),
    pytest.param(KIND_COUNTEREXAMPLE, "a_points", 1, 2, {}, id="counterexample-a_points-1-2-others41"),
    pytest.param(KIND_CS, "snr", 0.0, _TINY, {}, id="cs-validate-snr-0.0-5e-324-others42"),
    pytest.param(KIND_CS, "trials", 0, 1, {}, id="cs-validate-trials-0-1-others43"),
    pytest.param(KIND_CS, "lambda", -1e-9, 0.0, {}, id="cs-validate-lambda--1e-09-0.0-others44"),
    pytest.param(KIND_CS, "n_grid", [39], [40], {}, id="cs-validate-n_grid-rejected45-accepted45-others45"),
    pytest.param(KIND_CS, "d_pq", -1, 0, {}, id="cs-validate-d_pq--1-0-others46"),
    pytest.param(KIND_SUBSPACE, "k_max", -1, 0, {"input_p": "p.txt", "input_q": "q.txt"}, id="subspace-analyze-k_max--1-0-others47"),
    pytest.param(KIND_DENOISE, "lambda_max", 0.0, _TINY, {"lambda_points": 1}, id="denoise-lambda_max-0.0-5e-324-others48"),
    pytest.param(KIND_REGRESSION, "lambda_max", 0.0, _TINY, {"lambda_points": 1}, id="regression-sweep-lambda_max-0.0-5e-324-others49"),
    pytest.param(KIND_CLASSIFICATION, "lambda_max", 0.0, _TINY, {"lambda_points": 1}, id="classification-sweep-lambda_max-0.0-5e-324-others50"),
    pytest.param(KIND_REGRESSION, "d_pq", 0, 1, {"d": 1400}, id="regression-sweep-d_pq-0-1-others51"),
]


@pytest.mark.parametrize("kind,key,rejected,accepted,others", _RANGE_EDGES)
def test_config_range_edges(kind, key, rejected, accepted, others):
    with pytest.raises(ConfigError) as info:
        config_from_mapping(kind, {**others, key: rejected})
    # the message names the key; an underscore in the name may read as a space
    assert re.search(rf"\b{key.replace('_', '[_ ]')}\b", str(info.value)), str(info.value)
    assert config_from_mapping(kind, {**others, key: accepted})[key] == accepted


# the classification sweep's Sigma_Q is always rebuilt from Sigma_Q = Sigma_P and it writes
# no tabulated theory rows, cs-validate always writes its A = I rows, and the sweeps take
# their lambda grid as a trio
_REMOVED_KEYS = [
    *((KIND_CLASSIFICATION, key, "1") for key in ("tau", "d_q", "d_pq", "sigma_beta_sq")),
    (KIND_CLASSIFICATION, "theory_points", "40"),
    (KIND_CLASSIFICATION, "task_dependent", "true"),
    (KIND_CS, "include_identity", "true"),
    *((kind, "lambda_grid", "0.1, 1.0") for kind in (KIND_REGRESSION, KIND_CLASSIFICATION, KIND_DENOISE)),
]


@pytest.mark.parametrize("kind,key,value", _REMOVED_KEYS)
def test_removed_config_keys_are_refused(tmp_path, capsys, kind, key, value):
    message = f"unknown config key(s) for {kind}: {key}"
    with pytest.raises(ConfigError) as info:
        config_from_mapping(kind, {key: value})
    assert str(info.value) == message
    out = tmp_path / "out.csv"
    cfg = _cli_config(tmp_path, f"kind = {kind}\n{key} = {value}\noutput_path = {out}\n")
    assert main([kind, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_config_checks_ranges_after_overrides():
    # every file value is parsed, so a malformed seed fails even under an override
    with pytest.raises(ConfigError, match="master_seed"):
        config_from_mapping(KIND_CS, {"master_seed": "x"}, seed_override=3)
    # the range is checked on the final value, so the override replaces a bad seed
    assert config_from_mapping(KIND_CS, {"master_seed": "-1"}, seed_override=3)["master_seed"] == 3


def _readme():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        return fh.read()


def _package_env():
    """The environment with this package's src directory first on PYTHONPATH, for a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(riskshift.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_readme_quick_start_prints_its_closing_comment(tmp_path):
    (code,) = re.findall(r"^```python\n(.*?)^```", _readme(), flags=re.M | re.S)
    printed = code.rstrip().rsplit("\n", 1)[1]
    assert printed.startswith("# train risk ")
    done = subprocess.run(
        [sys.executable, "-c", code], env=_package_env(), cwd=tmp_path,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout == printed[2:] + "\n"


def test_readme_config_keys_name_every_schema_key():
    section = _readme().split("### Config keys", 1)[1].split("\n## ", 1)[0]
    intro, *blocks = re.split(r"^\*\*([a-z-]+)\*\*", section, flags=re.M)
    blocks = dict(zip(blocks[::2], blocks[1::2]))
    assert sorted(blocks) == sorted(ALL_KINDS)

    def names(text):
        found = set(re.findall(r"`([^`]+)`", text))
        if "lambda_*" in found:
            found = found - {"lambda_*"} | {"lambda_min", "lambda_max", "lambda_points"}
        return found

    def defaults(first, cell):
        """Key -> default as a table row gives it: one entry of `cell` per key, or a list."""
        row_keys = re.findall(r"`([^`]+)`", first)
        if row_keys == ["lambda_*"]:
            points, low, high = re.fullmatch(r"(\d+) points in \[(\S+), (\S+)\]", cell).groups()
            return {"lambda_min": float(low), "lambda_max": float(high), "lambda_points": int(points)}
        if cell == "required":
            return dict.fromkeys(row_keys, _REQUIRED)
        items = [float(t) for t in cell.split(", ")]
        if len(row_keys) == 1 and len(items) > 1:
            return {row_keys[0]: items}
        assert len(items) == len(row_keys), (first, cell)
        return dict(zip(row_keys, items))

    common = {"kind", "master_seed", "output_path"}
    assert common <= names(intro)
    for kind, body in blocks.items():
        fields = _SCHEMAS[kind][0]
        missing = set(fields) - common - names(body)
        assert not missing, (kind, missing)
        rows = re.findall(r"^\| ([^|]*`[^|]*) \| ([^|]*) \|", body, flags=re.M)
        # the first cell of each table row names keys of the schema only
        tabled = names(" ".join(first for first, _ in rows))
        assert tabled and tabled <= set(fields), (kind, tabled - set(fields))
        # and the default cell gives each of those keys its schema default
        for first, cell in rows:
            given = defaults(first, cell)
            assert given.keys() == names(first), (kind, first)
            for key, value in given.items():
                assert value == fields[key].default, (kind, key, value)


def test_readme_csv_table_matches_the_runners(tmp_path):
    section = _readme().split("### Output format", 1)[1].split("\n### ", 1)[0]
    table = {
        kind: (columns.split(","), key.strip("()").split(", "))
        for kind, columns, key in re.findall(r"^\| `([a-z-]+)` \| `([^`]+)` \| `([^`]+)` \|$", section, flags=re.M)
    }
    assert sorted(table) == sorted(ALL_KINDS)
    rng = np.random.default_rng(0)
    for name in ("p", "q"):
        np.savetxt(tmp_path / f"{name}.txt", rng.standard_normal((12, 5)))
    # a few rows of each kind, over more than one value of each grid
    small = {
        KIND_REGRESSION: dict(_SMALL_REGRESSION, trials="2"),
        KIND_CLASSIFICATION: dict(_SMALL_SWEEP, trials="2"),
        KIND_RELATION: {"risk_p_points": "3"},
        KIND_DENOISE: {"d": "30", "d_p": "6", "d_q": "6", "lambda_points": "3"},
        KIND_COUNTEREXAMPLE: {"a_points": "3"},
        KIND_CS: {"d": "30", "d_p": "6", "d_q": "6", "d_pq": "3", "n_grid": "40, 80", "trials": "2"},
        KIND_SUBSPACE: {"input_p": str(tmp_path / "p.txt"), "input_q": str(tmp_path / "q.txt")},
    }
    for kind, (columns, key) in table.items():
        header, rows = riskshift.harness.RUNNERS[kind](config_from_mapping(kind, small[kind]))
        assert header == columns, kind
        # the key orders the rows strictly: it is sorted and names each row once
        keys = [tuple(row[name] for name in key) for row in rows]
        assert len(keys) > 1 and keys == sorted(set(keys)), kind


def test_write_csv_17_digits_lf(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["name", "x", "n"], [{"name": "row", "x": 0.1, "n": 3}])
    data = path.read_bytes()
    assert b"\r" not in data
    assert data == b"name,x,n\nrow,0.10000000000000001,3\n"


@settings(max_examples=500, deadline=None, database=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_cell_round_trips_every_finite_float(x):
    for value in (x, np.float64(x)):
        assert float(_format_cell(value)).hex() == x.hex()


def test_write_csv_failure_leaves_no_partial_file(tmp_path):
    path = tmp_path / "out.csv"
    bad_rows = [{"x": 1.0}, {"x": float("nan")}]
    with pytest.raises(NumericInputError):
        write_csv(path, ["x"], bad_rows)
    assert list(tmp_path.iterdir()) == []
    write_csv(path, ["x"], [{"x": 2.0}])
    with pytest.raises(NumericInputError):
        write_csv(path, ["x"], bad_rows)
    assert path.read_bytes() == b"x\n2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    # the replacement file gets the permissions a plain open() would give it
    reference = tmp_path / "reference"
    reference.write_text("x\n")
    assert path.stat().st_mode == reference.stat().st_mode


def test_write_csv_mode_follows_the_umask(tmp_path):
    path = tmp_path / "out.csv"
    mask = os.umask(0o077)
    try:
        write_csv(path, ["x"], [{"x": 1.0}])
    finally:
        os.umask(mask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_write_csv_leaves_the_umask_alone(tmp_path, monkeypatch):
    # a umask set and restored around the write would also reach a file that
    # another thread creates in between
    def refuse(mask):
        raise AssertionError("write_csv changed the process umask")

    monkeypatch.setattr(os, "umask", refuse)
    write_csv(tmp_path / "out.csv", ["x"], [{"x": 1.0}])
    assert (tmp_path / "out.csv").read_bytes() == b"x\n1\n"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FLOAT_CELLS = _FINITE | _FINITE.map(np.float64) | st.sampled_from([-0.0, 5e-324, 1.7e308, -1.7e308])
_ANY_CELLS = (
    _FLOAT_CELLS
    | st.integers(-(2**70), 2**70)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers(0, 255).map(np.uint8)
    | st.booleans()
    | st.booleans().map(np.bool_)
    | st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32)
    | st.text(alphabet="ab ,-.n", max_size=4)
)


@st.composite
def csv_tables(draw):
    """A header and rows whose columns hold floats only or any mix of cell types."""
    n_rows = draw(st.integers(0, 6))
    header = [f"c{j}" for j in range(draw(st.integers(1, 4)))]
    columns = [
        draw(st.lists(draw(st.sampled_from([_FLOAT_CELLS, _ANY_CELLS])), min_size=n_rows, max_size=n_rows))
        for _ in header
    ]
    return header, [dict(zip(header, cells)) for cells in zip(*columns)]


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_tables())
def test_write_csv_matches_cell_by_cell_formatting(tmp_path, table):
    header, rows = table
    path = tmp_path / "table.csv"
    write_csv(path, header, rows)
    lines = [",".join(header)] + [",".join(_format_cell(row[name]) for name in header) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf)])
@pytest.mark.parametrize("other", [2.0, "label"], ids=["float-column", "mixed-column"])
@pytest.mark.parametrize("column", ["x", "y"])
def test_write_csv_refuses_non_finite_cells_in_any_column(tmp_path, bad, other, column):
    rows = [{"x": 1.0, "y": other}, {"x": 0.5, "y": other}, {"x": 0.25, "y": other}]
    rows[1][column] = bad
    rows[2][column] = -math.inf
    with pytest.raises(NumericInputError) as info:
        write_csv(tmp_path / "out.csv", ["x", "y"], rows)
    # the message names the first refused cell by its column and 1-based data row
    assert str(info.value) == f"refusing to serialize non-finite value {float(bad)} in column '{column}', data row 2"
    assert list(tmp_path.iterdir()) == []


def test_run_and_write_byte_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = config_from_mapping(
            KIND_REGRESSION, dict(_SMALL_REGRESSION, output_path=str(out))
        )
        path, n_rows = run_and_write(cfg)
        assert str(path) == str(out)
        assert n_rows == 3
    assert out1.read_bytes() == out2.read_bytes()
    # and a different master seed changes the measurements
    cfg = config_from_mapping(
        KIND_REGRESSION, dict(_SMALL_REGRESSION, output_path=str(out2)), seed_override=1
    )
    run_and_write(cfg)
    assert out1.read_bytes() != out2.read_bytes()


def test_regression_sweep_without_shift_keeps_risk():
    cfg = config_from_mapping(
        KIND_REGRESSION,
        dict(_SMALL_REGRESSION, d_p="30", d_q="30", d_pq="30", tau="1.0"),
    )
    header, rows = run_regression_sweep(cfg)
    assert header[:6] == ["trial", "model", "lambda", "risk_p", "risk_q", "risk_q_pred"]
    assert len(rows) == 3
    for row in rows:
        assert row["risk_q"] == pytest.approx(row["risk_p"], abs=1e-10)
        assert row["risk_q_pred"] == pytest.approx(row["risk_p"], abs=1e-10)
        assert row["gamma"] == pytest.approx(1.0, abs=1e-12)
        assert row["mu"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_regression_rows_split_their_gap_exactly(seed):
    # with e = V^T (beta_hat - beta*), s and q the eigenvalues of Sigma_P and Sigma_Q,
    # risk_q - risk_q_pred = (sum s e^2 / d) (qbar_e - gamma) for qbar_e = sum q s e^2 / sum s e^2:
    # the mean of q on the support weighted by the error's energy against gamma, weighted by beta*'s
    geometry = {"d": "40", "d_p": "30", "d_q": "24", "d_pq": "18", "n": "60", "trials": "3"}
    config = config_from_mapping(KIND_REGRESSION, geometry, seed_override=seed)
    _, rows = run_regression_sweep(config)
    by_cell = {(row["trial"], row["lambda"]): row for row in rows}
    lams = config["lambda_grid"]
    assert len(by_cell) == len(rows) == 3 * len(lams)
    spec = SubspacePairSpec(40, 30, 24, 18)
    for t in range(3):
        pair = subspace_shift_model(spec, config["tau"], stream(seed, t, 0))
        beta_star = sample_beta(spec.d, config["sigma_beta_sq"], stream(seed, t, 1))
        x = sample_covariates(pair, config["n"], stream(seed, t, 2))
        y = label(x, beta_star, LinearGaussian(math.sqrt(config["noise_var"])), stream(seed, t, 3))
        s, q = pair.eigvals_p, pair.eigvals_q
        for lam, beta_hat in zip(lams, ridge_fit(x, y, lams)):
            row = by_cell[t, lam]
            e_sq = (pair.eigenbasis.columns.T @ (beta_hat - beta_star)) ** 2
            support_energy = float(np.sum(s * e_sq))
            q_bar = float(np.sum(q * s * e_sq)) / support_energy
            split = support_energy / pair.d * (q_bar - row["gamma"])
            assert abs(row["risk_q"] - row["risk_q_pred"] - split) <= 1e-11 * row["risk_q"]


def test_each_sweep_fits_its_ridge_grid_once_per_label_vector(monkeypatch):
    calls = {"ridge_fit": [], "erm_fit": [], "_check_problem": []}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(x, y, lams):
            calls[name].append(lams)
            return original(x, y, lams)

        monkeypatch.setattr(module, name, wrapper)

    counted(runners, "ridge_fit")
    counted(runners, "erm_fit")
    counted(riskshift.estimators, "_check_problem")
    # one label vector per regression trial; noisy signs and noiseless scores
    # per classification trial, and one logistic path on the noisy signs; the
    # problem is checked once per fit call
    sweeps = ((KIND_REGRESSION, _SMALL_REGRESSION, 1, 0), (KIND_CLASSIFICATION, _SMALL_SWEEP, 2, 1))
    for kind, small, ridge_per_trial, erm_per_trial in sweeps:
        for made in calls.values():
            made.clear()
        config = config_from_mapping(kind, dict(small, trials="2"))
        riskshift.harness.RUNNERS[kind](config)
        assert calls["ridge_fit"] == [config["lambda_grid"]] * (2 * ridge_per_trial)
        assert calls["erm_fit"] == [config["lambda_grid"]] * (2 * erm_per_trial)
        assert len(calls["_check_problem"]) == 2 * (ridge_per_trial + erm_per_trial)


def test_relation_curves_identity_and_ordering():
    cfg = config_from_mapping(
        KIND_RELATION,
        {"mu_grid": "1.0, 1.2", "ratio_grid": "1.0, 2.0", "risk_p_points": "21"},
    )
    header, rows = run_relation_curves(cfg)
    assert header == ["curve", "mu", "kappa_over_gamma", "risk_p", "risk_q"]
    assert len(rows) == 4 * 21
    ident_mu = [r for r in rows if r["curve"] == "mu" and r["mu"] == 1.0]
    ident_ratio = [r for r in rows if r["curve"] == "ratio" and r["kappa_over_gamma"] == 1.0]
    for r in ident_mu + ident_ratio:
        assert r["risk_q"] == pytest.approx(r["risk_p"], abs=1e-12)
    # a harder shift lifts the whole curve
    harder = [r for r in rows if r["curve"] == "ratio" and r["kappa_over_gamma"] == 2.0]
    for hard, base in zip(harder, ident_ratio):
        assert hard["risk_p"] == base["risk_p"]
        assert hard["risk_q"] > base["risk_q"]
    # widening the test spectrum leaves a risk floor at vanishing train risk
    lifted = sorted(
        (r for r in rows if r["curve"] == "mu" and r["mu"] == 1.2), key=lambda r: r["risk_p"]
    )
    floor = math.acos(1.0 / math.sqrt(1.2)) / math.pi
    assert lifted[0]["risk_q"] == pytest.approx(floor, abs=0.005)
    assert lifted[0]["risk_q"] >= floor


def test_denoise_runner_identity_and_high_snr_linearity():
    cfg = config_from_mapping(KIND_DENOISE, {"d": "60", "d_p": "12", "d_q": "12"})
    header, rows = run_denoising(cfg)
    assert header[-1] == "residual"
    assert all(r["residual"] <= 1e-12 for r in rows)
    assert all(r["risk_p"] >= 0 and r["risk_q"] >= 0 for r in rows)
    # full overlap with equal noise and dimensions removes the shift entirely
    for r in rows:
        if r["a_target"] == 1.0:
            assert r["risk_q"] == pytest.approx(r["risk_p"], abs=1e-10)
    # high signal-to-noise curves are near-affine with slope a
    for a in (0.0, 0.5, 1.0):
        pts = np.array(
            [
                (r["risk_p"], r["risk_q"])
                for r in rows
                if r["a_target"] == a and r["snr"] == 100.0
            ]
        )
        (slope, _), res, *_ = np.polyfit(pts[:, 0], pts[:, 1], 1, full=True)
        assert slope == pytest.approx(a, abs=0.02)
        assert (float(res[0]) if res.size else 0.0) <= 1e-3


def test_denoise_runner_makes_no_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    _, rows = run_denoising(config_from_mapping(KIND_DENOISE, {}))
    assert len(rows) == 300
    # overlaps are Frobenius norms of U_P^T U_Q; no principal angles are computed
    assert len(calls) == 0


def test_default_denoise_run_computes_each_pair_overlap_once(monkeypatch):
    calls = []
    cos_sq_sum = riskshift.subspace._cos_sq_sum

    def counted(u_p, u_q):
        calls.append((u_p, u_q))
        return cos_sq_sum(u_p, u_q)

    monkeypatch.setattr(riskshift.subspace, "_cos_sq_sum", counted)
    config = config_from_mapping(KIND_DENOISE, {})
    _, rows = run_denoising(config)
    assert len(rows) == 300
    # one U_P^T U_Q per subspace pair, not one per (snr, lambda) row
    assert len(calls) == len(config["a_grid"]) == 3


def _denoise_rows_by_point(config):
    """run_denoising's rows, each from denoise_grid at its own one point, on floats."""
    rows = []
    d_p, d_q = config["d_p"], config["d_q"]
    for i, a_target in enumerate(config["a_grid"]):
        spec = SubspacePairSpec(config["d"], d_p, d_q, int(round(a_target * d_q)))
        u_p, u_q = overlapping_pair(spec, stream(config["master_seed"], 0, _GRID_SLOT_BASE + i))
        a = overlap_coefficient(u_p, u_q)
        for snr in config["snr_grid"]:
            for lam in config["lambda_grid"]:
                risk_p, risk_q, alpha, residual = denoise_grid(a, d_p, d_q, 1.0 / snr, 1.0 / snr, lam)
                rows.append(
                    {
                        "a_target": a_target,
                        "a_realized": a,
                        "snr": snr,
                        "lambda": lam,
                        "risk_p": risk_p,
                        "risk_q": risk_q,
                        "alpha": alpha,
                        "residual": residual,
                    }
                )
    rows.sort(key=lambda r: (r["a_target"], r["snr"], r["lambda"]))
    return rows


def _bits(rows):
    return [{name: float(value).hex() for name, value in row.items()} for row in rows]


@pytest.mark.parametrize("seed", [0, 7])
def test_default_denoise_rows_equal_their_one_point_problems(seed):
    config = config_from_mapping(KIND_DENOISE, {}, seed_override=seed)
    _, rows = run_denoising(config)
    assert len(rows) == 300
    assert _bits(rows) == _bits(_denoise_rows_by_point(config))


@st.composite
def denoise_configs(draw):
    """Small denoise configs: d <= 16, unsorted a and snr grids of distinct entries, any lambda trio."""
    d = draw(st.integers(1, 16))
    d_p = draw(st.integers(1, d))
    d_q = draw(st.integers(1, d))
    shared = st.integers(max(0, d_p + d_q - d), min(d_p, d_q))
    mapping = {
        "d": d,
        "d_p": d_p,
        "d_q": d_q,
        "a_grid": draw(st.lists(shared.map(lambda d_pq: d_pq / d_q), min_size=1, max_size=3, unique=True)),
        "snr_grid": draw(st.lists(st.sampled_from([1e-3, 0.5, 1.0, 100.0]) | st.floats(1e-3, 1e3),
                                  min_size=1, max_size=3, unique=True)),
    }
    # ends at least 0.1% apart, so no grid of up to 4 points repeats a value
    lambda_min = draw(st.floats(1e-6, 1e3))
    mapping["lambda_min"] = lambda_min
    mapping["lambda_max"] = lambda_min * draw(st.floats(1.001, 1e3))
    mapping["lambda_points"] = draw(st.integers(1, 4))
    return config_from_mapping(KIND_DENOISE, mapping, seed_override=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None, database=None)
@given(denoise_configs())
def test_denoise_rows_equal_their_one_point_problems_for_any_grid(config):
    _, rows = run_denoising(config)
    assert _bits(rows) == _bits(_denoise_rows_by_point(config))


def test_cli_refuses_an_snr_whose_noise_variance_overflows(tmp_path, capsys):
    # 1/1e-320 overflows to inf: no noise variance, no CSV
    cfg = _cli_config(
        tmp_path,
        f"kind = denoise\nd = 20\nd_p = 4\nd_q = 4\nsnr_grid = 1.0, 1e-320\n"
        f"output_path = {tmp_path / 'denoise.csv'}\n",
    )
    assert main(["denoise", "--config", cfg]) == 3
    assert "sigma_p_sq must be finite, got inf" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_counterexample_runner_schema_and_identity():
    overrides = {"a_min": "0.5", "a_max": "2.0", "a_points": "5"}
    cfg = config_from_mapping(KIND_COUNTEREXAMPLE, overrides)
    header, rows = run_counterexample(cfg)
    assert header == ["metric", "a", "risk_p", "se_p", "risk_q", "se_q"]
    assert len(rows) == 3 * 5
    keys = [(r["metric"], r["a"]) for r in rows]
    assert keys == sorted(keys)
    slope = cfg["kappa"] * cfg["mu"] / cfg["gamma"]
    for r in rows:
        if r["metric"] == "misclassification":
            assert r["se_p"] == 0.0 and r["se_q"] == 0.0
            sec_p = 1.0 / math.cos(math.pi * r["risk_p"]) ** 2
            sec_q = 1.0 / math.cos(math.pi * r["risk_q"]) ** 2
            assert sec_q == pytest.approx(slope * (sec_p - 1.0) + cfg["mu"], abs=1e-9)
        else:
            # quadrature error estimates
            assert 0.0 <= r["se_p"] <= 1e-6 and 0.0 <= r["se_q"] <= 1e-6
    _, again = run_counterexample(config_from_mapping(KIND_COUNTEREXAMPLE, overrides))
    assert again == rows


def test_counterexample_metric_cells_are_metric_kind_values(tmp_path):
    header, rows = run_counterexample(config_from_mapping(KIND_COUNTEREXAMPLE, {}))
    path = tmp_path / "counterexample.csv"
    write_csv(path, header, rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("metric")
    cells = {line.split(",")[column] for line in lines[1:]}
    assert cells == {
        MetricKind.MISCLASSIFICATION.value, MetricKind.LOGISTIC.value, MetricKind.HINGE.value
    }


def test_cs_validation_runner_identity_control():
    cfg = config_from_mapping(
        KIND_CS,
        {"d": "60", "d_p": "12", "d_q": "12", "d_pq": "6", "n_grid": "60, 240", "trials": "2"},
    )
    header, rows = run_cs_validation(cfg)
    assert header == ["matrix", "n", "trial", "residual", "ipp_max_dev"]
    assert len(rows) == 2 * (2 + 1)
    for r in rows:
        assert r["residual"] >= 0.0 and math.isfinite(r["ipp_max_dev"])
        if r["matrix"] == "identity":
            assert r["residual"] <= 1e-12
            assert r["ipp_max_dev"] <= 1e-12


def _write_subspace_inputs(tmp_path, same=False):
    rng = np.random.default_rng(5)
    d, rank, n = 60, 5, 2000
    rot = haar_basis(d, 2 * rank, seed=6).columns
    files = []
    for j in range(2):
        u = rot[:, :rank] if (same or j == 0) else rot[:, rank:]
        m = rng.standard_normal((n, rank)) @ u.T + 0.01 * rng.standard_normal((n, d))
        path = tmp_path / f"matrix_{j}.txt"
        np.savetxt(path, m)
        files.append(str(path))
    return files


def test_subspace_analyze_identical_and_orthogonal(tmp_path):
    path_p, path_q = _write_subspace_inputs(tmp_path, same=True)
    cfg = config_from_mapping(
        KIND_SUBSPACE, {"input_p": path_p, "input_q": path_p, "k_max": "8"}
    )
    header, rows = run_subspace_analyze(cfg)
    assert header == ["k", "sv_1", "sv_2", "similarity"]
    assert [r["k"] for r in rows] == list(range(1, 9))
    assert all(r["similarity"] == pytest.approx(1.0, abs=1e-9) for r in rows)
    # a clean rank-5 signal shows a sharp spectral gap
    by_k = {r["k"]: r for r in rows}
    assert by_k[6]["sv_1"] / by_k[5]["sv_1"] <= 0.1
    # disjoint signal subspaces barely overlap
    path_p, path_q = _write_subspace_inputs(tmp_path)
    cfg = config_from_mapping(
        KIND_SUBSPACE, {"input_p": path_p, "input_q": path_q, "k_max": "5"}
    )
    _, rows = run_subspace_analyze(cfg)
    assert all(r["similarity"] <= 0.2 for r in rows)


def _cli_config(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(body, encoding="utf-8")
    return str(path)


def test_cli_success_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    cfg = _cli_config(
        tmp_path, f"kind = relation-curves\nrisk_p_points = 5\noutput_path = {out}\n"
    )
    assert main(["relation-curves", "--config", cfg]) == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out
    # config errors: unknown key, then kind mismatch
    bad = _cli_config(tmp_path, "kind = relation-curves\nbogus = 1\n")
    assert main(["relation-curves", "--config", bad]) == 2
    assert main(["denoise", "--config", cfg]) == 2
    # missing config file is an IO failure
    assert main(["relation-curves", "--config", str(tmp_path / "absent.cfg")]) == 4
    captured = capsys.readouterr()
    assert "error:" in captured.err


def test_cli_numeric_failure_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(9)
    path_p = tmp_path / "p.txt"
    path_q = tmp_path / "q.txt"
    np.savetxt(path_p, rng.standard_normal((30, 8)))
    np.savetxt(path_q, rng.standard_normal((30, 9)))
    cfg = _cli_config(
        tmp_path,
        f"kind = subspace-analyze\ninput_p = {path_p}\ninput_q = {path_q}\n"
        f"output_path = {tmp_path / 'out.csv'}\n",
    )
    assert main(["subspace-analyze", "--config", cfg]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_refuses_a_non_finite_input_entry(tmp_path, capsys, value):
    # loadtxt parses nan and inf cells; the SVD then failed without naming the file
    rng = np.random.default_rng(9)
    path_p = tmp_path / "p.txt"
    path_q = tmp_path / "q.txt"
    np.savetxt(path_p, rng.standard_normal((30, 8)))
    m_q = rng.standard_normal((30, 8))
    m_q[4, 2] = float(value)
    np.savetxt(path_q, m_q)
    out = tmp_path / "out.csv"
    cfg = _cli_config(
        tmp_path,
        f"kind = subspace-analyze\ninput_p = {path_p}\ninput_q = {path_q}\noutput_path = {out}\n",
    )
    assert main(["subspace-analyze", "--config", cfg]) == 3
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines == [f"error: input file {path_q} has the non-finite entry {value} at data row 5, column 3"]
    assert not out.exists()


def test_cli_unreachable_shift_ratio_is_numeric_error(tmp_path, capsys):
    # the power family of the Sigma_Q rebuild cannot reach kappa/gamma = 1e9
    out = tmp_path / "out.csv"
    cfg = _cli_config(
        tmp_path,
        "kind = classification-sweep\nd = 8\nd_p = 4\nn = 10\ntrials = 1\nlambda_min = 0.1\n"
        f"lambda_max = 1\nlambda_points = 2\nkappa_over_gamma = 1e9\n"
        f"output_path = {out}\n",
    )
    assert main(["classification-sweep", "--config", cfg]) == 3
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: target kappa/gamma 1000000000.0")
    assert "outside reachable band" in err_lines[0]
    assert not out.exists()


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _row_shift(row):
    """A classification row's shift; r_p and sigma_beta_sq do not enter the classification relation."""
    return ShiftParameters(
        gamma=float(row["gamma"]), mu=float(row["mu"]), kappa=float(row["kappa"]), r_p=1.0, sigma_beta_sq=1.0
    )


def test_classification_rows_carry_the_shift_of_their_prediction(tmp_path, capsys):
    out = tmp_path / "out.csv"
    config = "".join(f"{k} = {v}\n" for k, v in dict(_SMALL_SWEEP, trials="2").items())
    cfg = _cli_config(tmp_path, f"kind = classification-sweep\n{config}output_path = {out}\n")
    assert main(["classification-sweep", "--config", cfg]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        assert fh.readline() == "trial,model,lambda,risk_p,risk_q,risk_q_pred,converged,gamma,mu,kappa\n"
    rows = _read_csv(out)
    # measured rows only: 2 trials x 3 families x 3 lambdas
    assert len(rows) == 18
    assert {r["model"] for r in rows} == {"ridge-sign", "ridge-noiseless", "logistic-sign"}
    shifts = {r["trial"]: (r["gamma"], r["mu"], r["kappa"]) for r in rows}
    assert len(set(shifts.values())) == 2
    for row in rows:
        assert (row["gamma"], row["mu"], row["kappa"]) == shifts[row["trial"]]
        assert classification_relation(float(row["risk_p"]), _row_shift(row)) == float(row["risk_q_pred"])


def test_cli_worse_than_chance_fit_keeps_its_rows(tmp_path, capsys):
    # at this size and label noise some fits score below chance on the train law;
    # the relation maps a risk r above 1/2 to 1 - (the image of 1 - r)
    out = tmp_path / "out.csv"
    cfg = _cli_config(
        tmp_path,
        "kind = classification-sweep\nd = 10\nd_p = 7\nn = 25\nlambda_min = 27.985\n"
        "lambda_max = 1529.96\nlambda_points = 3\ntrials = 1\nsign_correct_prob = 0.51\n"
        f"kappa_over_gamma = 1\noutput_path = {out}\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classification-sweep", "--config", cfg]) == 0
    assert capsys.readouterr().out == f"wrote 9 rows to {out}\n"
    worse = [r for r in _read_csv(out) if float(r["risk_p"]) > 0.5]
    assert worse
    for row in worse:
        flipped = classification_relation(1.0 - float(row["risk_p"]), _row_shift(row))
        assert float(row["risk_q_pred"]) == 1.0 - flipped > 0.5


@pytest.mark.parametrize("geometry,message", [
    ("d_pq = 1\nsigma_beta_sq = 1e150\ntau = 1e300", "beta*^T Sigma_Q beta* is inf, past the float range"),
    ("d_pq = 1\nsigma_beta_sq = 1.7e308", "beta*'s mean square on the Sigma_P support is inf, past the float range"),
], ids=["sigma_q-energy", "support-mean-square"])
def test_cli_names_the_shift_energy_that_overflows(tmp_path, capsys, geometry, message):
    out = tmp_path / "out.csv"
    cfg = _cli_config(
        tmp_path, f"kind = regression-sweep\nd = 6\nd_p = 4\nd_q = 1\nn = 13\n{geometry}\noutput_path = {out}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["regression-sweep", "--config", cfg]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_regression_without_a_shared_dimension_is_config_error(tmp_path, capsys):
    # d_pq = 0 leaves Sigma_Q no eigenvalue on the Sigma_P support, so every trial
    # would stop in shift_parameters; the config check refuses it before any run
    out = tmp_path / "out.csv"
    cfg = _cli_config(
        tmp_path, f"kind = regression-sweep\nd = 6\nd_p = 4\nd_q = 1\nd_pq = 0\nn = 13\noutput_path = {out}\n"
    )
    assert main(["regression-sweep", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: key 'd_pq' must be >= 1, got 0\n"
    assert not out.exists()


def test_cli_one_point_zero_lambda_max_is_config_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    cfg = _cli_config(
        tmp_path, f"kind = denoise\nlambda_points = 1\nlambda_max = 0\noutput_path = {out}\n"
    )
    assert main(["denoise", "--config", cfg]) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines == ["error: key 'lambda_max' must be positive, got 0.0"]
    assert not out.exists()


# 1e14 float64 entries (728 TiB) exceed any address space, so numpy refuses the
# allocation at once; every grid is allocated in config validation
@pytest.mark.parametrize(
    "kind,key", [("denoise", "lambda_points"), ("counterexample", "a_points"), ("relation-curves", "risk_p_points")]
)
def test_cli_unallocatable_config_is_numeric_error(tmp_path, capsys, kind, key):
    out = tmp_path / "out.csv"
    cfg = _cli_config(tmp_path, f"kind = {kind}\n{key} = 100000000000000\noutput_path = {out}\n")
    assert main([kind, "--config", cfg]) == 3
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error:")
    assert not out.exists()


# a repeated entry would give a CSV two rows per documented sort key
@pytest.mark.parametrize("kind,key,value", [
    (KIND_RELATION, "mu_grid", "1.0, 1.0"),
    (KIND_RELATION, "ratio_grid", "0.5, 2, 0.5"),
    (KIND_DENOISE, "a_grid", "0.5, 0.5"),
    (KIND_DENOISE, "snr_grid", "1, 1.0"),
    (KIND_CS, "n_grid", "500, 500"),
])
def test_cli_repeated_list_grid_entry_is_config_error(tmp_path, capsys, kind, key, value):
    out = tmp_path / "out.csv"
    cfg = _cli_config(tmp_path, f"kind = {kind}\n{key} = {value}\noutput_path = {out}\n")
    assert main([kind, "--config", cfg]) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith(f"error: key '{key}' must not repeat an entry")
    assert not out.exists()


@pytest.mark.parametrize("content", [None, "", "1.0 2.0\nthree 4.0\n"], ids=["missing", "empty", "non-numeric"])
def test_cli_unreadable_matrix_is_io_error(tmp_path, capsys, content):
    good = tmp_path / "good.txt"
    np.savetxt(good, np.random.default_rng(3).standard_normal((10, 4)))
    bad = tmp_path / "bad.txt"
    if content is not None:
        bad.write_text(content, encoding="utf-8")
    out = tmp_path / "out.csv"
    cfg = _cli_config(
        tmp_path,
        f"kind = subspace-analyze\ninput_p = {good}\ninput_q = {bad}\noutput_path = {out}\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns on a file with no data
        assert main(["subspace-analyze", "--config", cfg]) == 4
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_cli_seed_and_out_overrides(tmp_path, capsys):
    out_default = tmp_path / "default.csv"
    cfg = _cli_config(
        tmp_path,
        "kind = regression-sweep\n"
        + "".join(f"{k} = {v}\n" for k, v in _SMALL_REGRESSION.items())
        + f"output_path = {out_default}\n",
    )
    out_other = tmp_path / "other.csv"
    assert main(["regression-sweep", "--config", cfg, "--seed", "5", "--out", str(out_other)]) == 0
    capsys.readouterr()
    assert out_other.exists() and not out_default.exists()


# Runs in a fresh interpreter because the test process has scipy loaded already.
_IMPORT_PATH_PROBE = """
import json, sys
import numpy as np
import riskshift
from riskshift.harness import RUNNERS, config_from_mapping, write_csv

def modules(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

linalg_calls = []

def counted(name, fn):
    def call(*args, **kwargs):
        linalg_calls.append(name)
        return fn(*args, **kwargs)
    return call

for name in np.linalg.__all__:
    fn = getattr(np.linalg, name)
    if callable(fn) and not isinstance(fn, type):
        setattr(np.linalg, name, counted(name, fn))

out, small = sys.argv[1], json.loads(sys.argv[2])
rng = np.random.default_rng(0)
for name in ("p", "q"):
    np.savetxt(f"{out}/{name}.txt", rng.standard_normal((30, 6)))
small["subspace-analyze"] = {"input_p": f"{out}/p.txt", "input_q": f"{out}/q.txt"}
rows, linalg, imported = {}, {}, {}
# the default counterexample and denoise run first, so the modules loaded during them are their own
for kind in sorted(RUNNERS, key=lambda k: k not in ("counterexample", "denoise")):
    start, before = len(linalg_calls), set(sys.modules)
    cfg = config_from_mapping(kind, small.get(kind, {}), out_override=f"{out}/{kind}.csv")
    header, table = RUNNERS[kind](cfg)
    write_csv(cfg["output_path"], header, table)
    rows[kind] = len(table)
    linalg[kind] = len(linalg_calls) - start
    imported[kind] = sorted(set(sys.modules) - before)
    if kind == "counterexample":
        polynomial = modules("numpy.polynomial")
x = rng.standard_normal((20, 3))
y = np.where(x[:, 0] >= 0.0, 1.0, -1.0)
riskshift.ridge_fit(x, y, [1.0])
fit = riskshift.erm_fit(x, y, [1.0])[0]
u_p, u_q = riskshift.overlapping_pair(riskshift.SubspacePairSpec(6, 2, 2, 1), 0)
problem = riskshift.InverseProblem(u_p, u_q, 0.1, 0.1, 0.1)
sketch = riskshift.sketch_bases(riskshift.gaussian_measurement(10, 6, 0), problem)
riskshift.cs_risks(sketch, problem)
loaded, before = modules("scipy"), set(sys.modules)
import scipy.special
print(json.dumps({"rows": rows, "converged": fit.converged, "loaded": loaded,
                  "detected": sorted(set(sys.modules) - before), "polynomial": polynomial, "linalg": linalg,
                  "imported": imported}))
"""

_PROBE_CONFIGS = {
    KIND_REGRESSION: _SMALL_REGRESSION,
    KIND_CLASSIFICATION: _SMALL_SWEEP,
    KIND_CS: {"d": "30", "d_p": "6", "d_q": "6", "d_pq": "3", "n_grid": "40, 80", "trials": "1"},
}


def test_package_import_and_closed_form_runners_load_no_scipy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_PROBE, str(tmp_path), json.dumps(_PROBE_CONFIGS)],
        env=_package_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(done.stdout)
    # every runner kind ran, then ridge, logistic ERM and the CS operator
    assert sorted(probe["rows"]) == sorted(ALL_KINDS)
    assert all(n > 0 for n in probe["rows"].values())
    assert probe["converged"]
    assert probe["loaded"] == []
    # the probe imports scipy itself at the end and sees it in the sys.modules diff,
    # so the empty lists above and below are not vacuous
    assert "scipy.special" in probe["detected"]
    # the quadrature rules are read from a table, without numpy.polynomial or an eigensolver
    assert probe["rows"][KIND_COUNTEREXAMPLE] == 3 * 40
    assert probe["polynomial"] == []
    assert probe["linalg"][KIND_COUNTEREXAMPLE] == 0
    # the wrapped numpy.linalg functions do count: the sweeps' fits solve with them
    assert probe["linalg"][KIND_REGRESSION] > 0
    # the benchmarked runs import nothing: a lazily loaded module would add its import
    # time to their measured wall time (the package import loads numpy.random for them)
    assert probe["imported"][KIND_COUNTEREXAMPLE] == []
    assert probe["imported"][KIND_DENOISE] == []


def _package_trees():
    """(path, parsed module) of every .py file under the riskshift package."""
    package = os.path.dirname(riskshift.__file__)
    trees = []
    for root, _, names in os.walk(package):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    trees.append((path, ast.parse(fh.read(), filename=path)))
    assert len(trees) >= 15
    return trees


def test_no_module_under_src_imports_scipy():
    offenders = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [(path, n) for n in names if n.split(".")[0] == "scipy"]
    assert offenders == []


def test_only_one_function_under_src_rotates_into_the_shared_basis():
    # every vector reaches the shared eigenbasis scaled by a power of two first,
    # through risk._basis_coordinates: nothing calls .rotate(, and no other
    # function multiplies by eigenbasis.columns.T
    rotate_calls, products = [], []

    def is_basis_transpose(node):
        return (
            isinstance(node, ast.Attribute) and node.attr == "T"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "columns"
            and isinstance(node.value.value, ast.Attribute) and node.value.value.attr == "eigenbasis"
        )

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "rotate":
            rotate_calls.append((module, owner))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if is_basis_transpose(node.left) or is_basis_transpose(node.right):
                products.append((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path, tree in _package_trees():
        visit(tree, os.path.basename(path), None)
    assert rotate_calls == []
    assert products == [("risk.py", "_basis_coordinates")]


def test_runners_build_no_grid():
    # every swept grid is resolved once, in config, and a runner reads the resolved list
    called = {
        node.func.attr for node in ast.walk(ast.parse(inspect.getsource(runners)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert "lexsort" in called
    assert called.isdisjoint({"geomspace", "linspace"})


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_default_config_values_are_json(kind):
    # perfbench writes config.values into its record with json.dumps
    paths = {"input_p": "p.txt", "input_q": "q.txt"} if kind == KIND_SUBSPACE else {}
    values = config_from_mapping(kind, paths).values
    assert json.loads(json.dumps(values)) == values


def _public_members(module):
    """Every name in module.__all__, and each public method, property and dataclass field of its classes."""
    found = set(module.__all__)
    for name in module.__all__:
        obj = getattr(module, name)
        if not inspect.isclass(obj):
            continue
        for attr, member in vars(obj).items():
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if not attr.startswith("_") and (
                inspect.isfunction(member) or isinstance(member, (property, functools.cached_property))
            ):
                found.add(f"{name}.{attr}")
        if dataclasses.is_dataclass(obj):
            found |= {f"{name}.{f.name}" for f in dataclasses.fields(obj)}
    return found


class _Readers(ast.NodeVisitor):
    """Bare names, and attributes read other than as self.<attr> inside a class body."""

    def __init__(self):
        self.names, self.attributes, self._class_depth = set(), set(), 0

    def visit_ClassDef(self, node):
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        if not (self._class_depth and isinstance(node.value, ast.Name) and node.value.id == "self"):
            self.attributes.add(node.attr)
        self.generic_visit(node)


@functools.cache
def _source_readers():
    """The names and attributes read by the code under src/ and perfbench/."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(riskshift.__file__)))
    paths = [
        os.path.join(base, name)
        for top in ("src", "perfbench")
        for base, _, names in os.walk(os.path.join(root, top))
        for name in names
        if name.endswith(".py")
    ]
    assert any(p.endswith(os.path.join("perfbench", "spans.py")) for p in paths)
    readers = _Readers()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            readers.visit(ast.parse(fh.read(), filename=path))
    return readers


def test_every_public_name_has_a_caller():
    # an export, or a public member of an exported class, that no code under src/ or
    # perfbench/ refers to is kept for its tests alone: it belongs in tests/oracles.py.
    # A member is read only through an attribute of something other than a class's own
    # self, so a field that only its __post_init__ checks, or a local variable of the
    # same name, does not count as a reader.
    readers = _source_readers()
    exported = _public_members(riskshift) | _public_members(riskshift.harness)
    assert {"CovariancePair.d_p", "InverseProblem.overlap", "DecisionCov.l21"} <= exported

    def is_read(name):
        if "." in name:
            return name.rsplit(".", 1)[1] in readers.attributes
        return name in readers.names | readers.attributes

    assert {name for name in exported if not is_read(name)} == set()


def test_every_public_module_function_has_a_caller():
    # a module-level function without a leading underscore, exported or not, that no
    # code under src/ or perfbench/ names is package code kept for its tests alone
    modules = [riskshift] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(riskshift.__path__, "riskshift.")
    ]
    assert riskshift.harness.config in modules
    functions = {
        f"{module.__name__}.{name}"
        for module in modules
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }
    assert "riskshift.harness.config.config_from_mapping" in functions
    readers = _source_readers()
    unread = {f for f in functions if f.rsplit(".", 1)[1] not in readers.names | readers.attributes}
    assert unread == set()


def _defaulted_parameters(module):
    """Qualified names of every defaulted parameter and dataclass field in module.__all__."""
    found = set()
    for name in module.__all__:
        obj = getattr(module, name)
        functions = []
        if inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                found |= {
                    f"{name}.{f.name}"
                    for f in dataclasses.fields(obj)
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING
                }
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    functions.append((f"{name}.{attr}", member))
        elif callable(obj):
            functions.append((name, obj))
        for qualname, fn in functions:
            found |= {
                f"{qualname}.{p.name}"
                for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty
            }
    return found


def test_every_defaulted_public_parameter_has_a_caller():
    # a default that no caller overrides is a constant; each entry names the caller that sets it
    assert _defaulted_parameters(riskshift) | _defaulted_parameters(riskshift.harness) == {
        # config.load_config passes the parsed file; selftest and perfbench/child.py pass {}
        "config_from_mapping.mapping",
        # config.load_config forwards the CLI's --seed and --out; perfbench/child.py
        # passes each repetition's seed and CSV path
        "config_from_mapping.seed_override",
        "config_from_mapping.out_override",
        # cli.main passes --seed and --out
        "load_config.seed_override",
        "load_config.out_override",
    }
