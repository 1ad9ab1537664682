"""What importing the package loads, checked in a fresh interpreter.

The root finder is a port of brentq, so no scipy.optimize, and with it no
scipy.linalg or scipy.sparse, should load at import: they were about a third
of the start-up time of every CLI call. Only modules are checked, not time.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import refcalc

SRC = str(Path(refcalc.__file__).resolve().parents[1])
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.sparse")


@pytest.mark.parametrize("module", ["refcalc", "refcalc.cli"])
def test_import_loads_no_optimize_linalg_or_sparse(module):
    code = (
        "import importlib, json, sys; sys.path.insert(0, sys.argv[1]); "
        "importlib.import_module(sys.argv[2]); print(json.dumps(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, SRC, module],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    loaded = json.loads(out)
    assert module in loaded
    assert [m for m in loaded if m.startswith(HEAVY)] == []
