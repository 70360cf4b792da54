"""Each reference CSV in tests/reference/ against a rerun of the code as it stands.

The header, the row order and every text cell must match exactly, and every
numeric cell within 1e-12 relative or 1e-14 absolute: the sweeps' matrix
products and solves round differently at 1 and 2 OpenBLAS threads, by at most
3.3e-13 relative, and no other source of difference is allowed.
tests/reference/regenerate.py writes the references.
"""

import csv
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_REL, _ABS = 1e-12, 1e-14


def _regenerate_module():
    spec = importlib.util.spec_from_file_location("reference_regenerate", ROOT / "tests" / "reference" / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_REGENERATE = _regenerate_module()


def _table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _cells_match(want, got):
    try:
        want_value, got_value = float(want), float(got)
    except ValueError:
        return want == got
    return abs(got_value - want_value) <= max(_REL * abs(want_value), _ABS)


def _assert_matches(want, got):
    """want and got, lists of CSV rows with the header first, agree under the module's rule."""
    assert got[0] == want[0], f"header {got[0]} != {want[0]}"
    assert len(got) == len(want), f"{len(got) - 1} data rows != {len(want) - 1}"
    for i, (want_row, got_row) in enumerate(zip(want[1:], got[1:]), start=1):
        assert len(got_row) == len(want_row), f"data row {i} has {len(got_row)} cells"
        moved = [(name, w, g) for name, w, g in zip(want[0], want_row, got_row) if not _cells_match(w, g)]
        assert not moved, f"data row {i}: {moved}"


@pytest.mark.parametrize(
    "kind, seed, keys", _REGENERATE.REFERENCES, ids=[f"{kind}-s{seed}" for kind, seed, _ in _REGENERATE.REFERENCES]
)
def test_run_matches_its_reference(tmp_path, kind, seed, keys):
    path, _ = _REGENERATE.write_run(kind, seed, keys, tmp_path / "run.csv")
    _assert_matches(_table(_REGENERATE.reference_path(kind, seed)), _table(path))


def _moved_cell(table):
    # risk_p of the first data row, moved by 1e-11 relative: ten times the tolerance
    column = table[0].index("risk_p")
    table[1][column] = repr(float(table[1][column]) * (1 + 1e-11))


def _dropped_row(table):
    del table[len(table) // 2]


def _swapped_columns(table):
    i, j = table[0].index("risk_p"), table[0].index("risk_q")
    for row in table:
        row[i], row[j] = row[j], row[i]


@pytest.mark.parametrize("fault", [_moved_cell, _dropped_row, _swapped_columns])
def test_a_faulty_run_does_not_match(fault):
    kind, seed, _ = _REGENERATE.REFERENCES[0]
    want = _table(_REGENERATE.reference_path(kind, seed))
    got = [list(row) for row in want]
    _assert_matches(want, got)
    fault(got)
    with pytest.raises(AssertionError):
        _assert_matches(want, got)
