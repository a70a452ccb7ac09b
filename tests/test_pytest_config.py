"""The suite's warning filters, run on example tests in a subprocess: every
warning is an error, except the one Hypothesis raises through libcst while
it writes the patch of a failing example. As an error, that one stopped
the run with an INTERNALERROR before the failure was reported."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_EXAMPLE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""

WARNING = """
import warnings


def test_warns():
    warnings.warn("a warning", DeprecationWarning)
"""


def run_pytest(tmp_path: Path, source: str) -> str:
    """pytest's output on ``source`` under this repository's configuration,
    with ``tmp_path`` as the working directory."""
    (tmp_path / "test_example.py").write_text(source, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    return run.stdout + run.stderr


def test_failing_hypothesis_example_is_reported(tmp_path):
    out = run_pytest(tmp_path, FAILING_EXAMPLE)
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_other_warnings_stay_errors(tmp_path):
    out = run_pytest(tmp_path, WARNING)
    assert "DeprecationWarning: a warning" in out
    assert "1 failed" in out
