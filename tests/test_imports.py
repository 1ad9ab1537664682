"""What importing the package, and running its analytic commands, loads.

Checked in a fresh interpreter. The root finder is a port of brentq, so no
scipy.optimize, and with it no scipy.linalg or scipy.sparse, should load:
they were about a third of the start-up time of every CLI call. The float
cdf is a port of Cephes' erfc, and expit in closed form, and the normal
truncation window reads erfcinv from literals, so no scipy module at all
loads at import, nor while a two-party or spoiler command runs: scipy.special
alone took about 0.27 s and 26 MB per process. A lazy import that only moved
that cost into the first integral fails the command checks. Only modules are
checked, not time.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import refcalc

SRC = str(Path(refcalc.__file__).resolve().parents[1])
HEAVY = ("scipy",)

# The benchmark's diverged and spoiler electorates.
DIVERGED = {
    "r": 0.45, "mu": 0.5, "p": 0.2, "b_L": -0.5, "b_R": 0.3,
    "taste": {"family": "normal", "scale": 0.2},
    "shock": {"family": "normal", "scale": 0.25},
    "regime": "non_binding",
}
SPOILER = {**DIVERGED, "b_R": -0.1, "third_party": {"v": -0.01}}


def _loaded(code, *args):
    out = subprocess.run(
        [sys.executable, "-c", code, SRC, *args],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    # eval prints its table before the last line, the JSON.
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("module", ["refcalc", "refcalc.cli"])
def test_import_loads_no_scipy(module):
    code = (
        "import importlib, json, sys; sys.path.insert(0, sys.argv[1]); "
        "importlib.import_module(sys.argv[2]); print(json.dumps(sorted(sys.modules)))"
    )
    loaded = _loaded(code, module)
    assert module in loaded
    assert [m for m in loaded if m.startswith(HEAVY)] == []


@pytest.mark.parametrize("command", [
    ["eval", "diverged.json"],
    ["eval", "spoiler.json"],
    ["figure", "fig3"],
    ["figure", "figg"],
    ["sweep", "diverged.json", "--var", "b_R", "--from", "-0.4", "--to", "0.4",
     "--steps", "9", "--quantities",
     "win_prob,net_benefit,gamma_star,r_bind,r_star,r_star_star,delta_second,delta_traditional"],
])
def test_analytic_commands_load_no_scipy(tmp_path, command):
    for name, scenario in (("diverged", DIVERGED), ("spoiler", SPOILER)):
        (tmp_path / f"{name}.json").write_text(json.dumps(scenario))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "from refcalc.cli import main; code = main(sys.argv[2:]); "
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    code, loaded = _loaded(code, *argv, "--out", str(tmp_path / "out.csv"))
    assert code == 0
    assert (tmp_path / "out.csv").stat().st_size > 0
    assert [m for m in loaded if m.startswith(HEAVY)] == []
