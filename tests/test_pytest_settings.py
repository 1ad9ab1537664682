"""The repository's pytest settings let every test report its result."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_example_does_not_end_the_session(tmp_path):
    # Reporting a falsifying example raises a third-party DeprecationWarning,
    # which the settings turn into an error unless they ignore it by message;
    # the session then ends in INTERNALERROR before the passing test runs.
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
