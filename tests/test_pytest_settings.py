"""The suite's own pytest settings in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

THROWAWAY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    """Under filterwarnings = ["error"], the warning hypothesis's plugin raises
    while it reports a failing example must not become an INTERNALERROR that
    stops every later test."""
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
