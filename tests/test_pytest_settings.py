"""The repository's pytest settings report a failing hypothesis property like any failing test."""

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(n):
    assert n < 10


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_property_prints_its_example_and_the_session_goes_on(tmp_path):
    # warnings are errors here, and hypothesis' failure-patch writer imports libcst, which warns
    # on import: unfiltered, that warning ended the session with an INTERNALERROR
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
