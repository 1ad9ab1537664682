"""Scenario JSON parsing: defaults, strictness, and error paths."""
from __future__ import annotations

import json
import math

import pytest

from refcalc.errors import InvalidParamsError, ScenarioError
from refcalc.model import ReferendumRegime
from refcalc.scenario import DEFAULT_VALENCE, load_scenario, parse_scenario


def _minimal():
    return {
        "r": 0.45,
        "mu": 0.5,
        "p": 0.2,
        "b_L": -0.5,
        "b_R": 0.3,
        "taste": {"family": "normal", "scale": 0.2},
        "shock": {"family": "normal", "scale": 0.25},
    }


def test_minimal_scenario_defaults():
    sc = parse_scenario(_minimal())
    assert sc.params.r == 0.45
    assert sc.params.taste.family == "normal"
    assert sc.regime is ReferendumRegime.NO_REFERENDUM
    assert sc.third is None
    assert sc.turnout is None
    # Library defaults flow through untouched.
    assert sc.quadrature.abs_tol == 1e-10
    assert sc.sim.n_policy_voters == 100_000
    assert sc.sim.agent_level is False


def test_regime_parses_each_value():
    for value, member in (
        ("no_referendum", ReferendumRegime.NO_REFERENDUM),
        ("binding", ReferendumRegime.BINDING),
        ("non_binding", ReferendumRegime.NON_BINDING),
    ):
        sc = parse_scenario({**_minimal(), "regime": value})
        assert sc.regime is member


def test_regime_rejects_unknown_value():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({**_minimal(), "regime": "advisory"})
    assert "no_referendum" in str(exc.value)


def test_unknown_top_level_key_rejected_with_path():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({**_minimal(), "bL": -0.5}, source="scn")
    msg = str(exc.value)
    assert "bL" in msg and "scn" in msg


def test_unknown_nested_key_rejected_with_path():
    data = _minimal()
    data["taste"] = {"family": "normal", "scale": 0.2, "mean": 0.0}
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(data, source="scn")
    assert "scn.taste" in str(exc.value)


def test_missing_required_key():
    data = _minimal()
    del data["mu"]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(data)
    assert "mu" in str(exc.value)


def test_type_errors_are_scenario_errors():
    with pytest.raises(ScenarioError):
        parse_scenario({**_minimal(), "p": "0.2"})
    with pytest.raises(ScenarioError):
        parse_scenario({**_minimal(), "p": True})  # bool is not a number here
    data = _minimal()
    data["taste"] = {"family": "triangular", "scale": 0.2}
    with pytest.raises(ScenarioError):
        parse_scenario(data)
    data = _minimal()
    data["taste"] = {"family": "normal", "scale": -1.0}
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_invalid_params_surface_as_invalid_params_error():
    with pytest.raises(InvalidParamsError):
        parse_scenario({**_minimal(), "b_L": 0.5})


def test_third_party_block_with_default_valence():
    sc = parse_scenario({**_minimal(), "b_R": -0.1, "third_party": {}})
    assert sc.third is not None
    assert sc.third.v == DEFAULT_VALENCE
    explicit = parse_scenario({**_minimal(), "b_R": -0.1, "third_party": {"v": -0.05}})
    assert explicit.third.v == -0.05


def test_third_party_block_requires_aligned_majors():
    # b_R = 0.3 > 0 violates the spoiler preconditions.
    with pytest.raises(InvalidParamsError):
        parse_scenario({**_minimal(), "third_party": {}})


def test_turnout_block_requires_all_three_keys():
    good = parse_scenario(
        {**_minimal(), "turnout": {"c_bar": 8.0, "sigma": 3.0, "kappa": 1.0}}
    )
    assert good.turnout is not None
    assert good.turnout.c_bar == 8.0
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({**_minimal(), "turnout": {"c_bar": 8.0, "sigma": 3.0}})
    assert "kappa" in str(exc.value)


def test_quadrature_and_sim_overrides():
    sc = parse_scenario(
        {
            **_minimal(),
            "quadrature": {"abs_tol": 1e-8, "max_subdivisions": 500},
            "sim": {"n_policy_voters": 1000, "seed": 7, "agent_level": True},
        }
    )
    assert sc.quadrature.abs_tol == 1e-8
    assert sc.quadrature.rel_tol == 1e-8  # untouched default
    assert sc.quadrature.max_subdivisions == 500
    assert sc.sim.n_policy_voters == 1000
    assert sc.sim.n_replications == 10_000  # untouched default
    assert sc.sim.seed == 7
    assert sc.sim.agent_level is True


@pytest.mark.parametrize("block, message", [
    ({"rel_tol": math.nan}, "rel_tol must be finite and non-negative, got nan"),
    ({"abs_tol": 0.0}, "abs_tol must be finite and positive, got 0.0"),
    ({"max_subdivisions": 0}, "max_subdivisions must be at least 1"),
])
def test_quadrature_block_errors_name_their_path(block, message):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({**_minimal(), "quadrature": block}, source="scn.json")
    assert str(exc.value) == f"scn.json.quadrature: {message}"


@pytest.mark.parametrize("block, message", [
    ({"n_replications": 0}, "n_replications must be a positive integer, got 0"),
    ({"n_policy_voters": 0}, "n_policy_voters must be a positive integer, got 0"),
    ({"seed": -1}, "seed must be an integer in [0, 2^64), got -1"),
])
def test_sim_block_errors_name_their_path(block, message):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({**_minimal(), "sim": block}, source="scn.json")
    assert str(exc.value) == f"scn.json.sim: {message}"


def test_quadrature_type_error_names_its_field_once():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({**_minimal(), "quadrature": {"rel_tol": "x"}}, source="scn.json")
    assert str(exc.value) == "scn.json.quadrature.rel_tol must be a number, got 'x'"


def test_sim_integer_fields_reject_floats_and_bools():
    with pytest.raises(ScenarioError):
        parse_scenario({**_minimal(), "sim": {"seed": 1.5}})
    with pytest.raises(ScenarioError):
        parse_scenario({**_minimal(), "sim": {"agent_level": 1}})


def test_top_level_must_be_object():
    with pytest.raises(ScenarioError):
        parse_scenario([1, 2, 3])


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({**_minimal(), "regime": "non_binding"}))
    sc = load_scenario(str(path))
    assert sc.regime is ReferendumRegime.NON_BINDING


def test_load_scenario_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"r": 0.45,\n  "mu": }\n')
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(path))
    msg = str(exc.value)
    assert "line 2" in msg
    assert "broken.json" in msg


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/path/scn.json")
