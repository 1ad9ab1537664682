"""Scenario files: the JSON surface of the command-line tools.

A scenario is one electorate plus optional extension blocks. The parser is
deliberately strict: unknown keys are rejected with their JSON path, wrong
types name the expected one, and semantic validation reuses the library's
own validators so a file that loads here is accepted by every module.

Schema (all numbers JSON numbers, booleans JSON booleans):

    {
      "r": 0.45, "mu": 0.5, "p": 0.2, "b_L": -0.5, "b_R": -0.1,
      "taste": {"family": "normal", "scale": 0.2},
      "shock": {"family": "normal", "scale": 0.25},
      "regime": "no_referendum" | "binding" | "non_binding",   # optional
      "third_party": {"v": -0.01},                             # optional
      "turnout": {"c_bar": 9.0, "sigma": 1.2, "kappa": 0.7},   # optional
      "quadrature": {"abs_tol": ..., "rel_tol": ...},          # optional
      "sim": {"n_policy_voters": ..., "n_replications": ...,
              "seed": ..., "agent_level": ...}                 # optional
    }

The sim block carries no "mode": the tools pick the oracle mode from which
extension blocks are present. In the third_party block v may be omitted
(defaults to DEFAULT_VALENCE, which this module re-exports from third_party).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .distributions import DistributionSpec
from .errors import ScenarioError, UsageError
from .model import ElectorateParams, ReferendumRegime, require_valid
from .oracle import SimConfig
from .quadrature import QuadratureConfig
from .third_party import DEFAULT_VALENCE, ThirdPartyParams, require_valid_third
from .turnout import TurnoutParams, require_valid_turnout


@dataclass(frozen=True)
class Scenario:
    params: ElectorateParams
    regime: ReferendumRegime
    third: ThirdPartyParams | None
    turnout: TurnoutParams | None
    quadrature: QuadratureConfig
    sim: SimConfig


def _require_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{path} must be a JSON object, got {type(value).__name__}")
    return value


def _reject_unknown(obj: dict, path: str, allowed) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(
                f'unknown key "{key}" at {path}; allowed keys: {", ".join(sorted(allowed))}'
            )


def _real(obj: dict, key: str, path: str) -> float:
    if key not in obj:
        raise ScenarioError(f'missing required key "{key}" at {path}')
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # JSON integers have no size limit; float() overflows past its range.
        raise ScenarioError(f"{path}.{key} must be a finite number, got {value!r}") from None


def _distribution(obj: dict, key: str, path: str) -> DistributionSpec:
    if key not in obj:
        raise ScenarioError(f'missing required key "{key}" at {path}')
    where = f"{path}.{key}"
    block = _require_object(obj[key], where)
    _reject_unknown(block, where, ("family", "scale"))
    scale = _real(block, "scale", where)
    try:
        return DistributionSpec(family=block.get("family"), scale=scale)
    except UsageError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _fields(obj: dict, key: str, source: str, parsers: dict, required=()) -> dict:
    """Keyword arguments from the optional block obj[key]; {} when it is absent.

    parsers maps each allowed key to its parser, or to None to pass the JSON
    value on for the target's own check; keys in required must be present,
    the others fall back to the target's defaults.
    """
    if key not in obj:
        return {}
    path = f"{source}.{key}"
    block = _require_object(obj[key], path)
    _reject_unknown(block, path, parsers)
    return {
        name: parse(block, name, path) if parse else block[name]
        for name, parse in parsers.items()
        if name in block or name in required
    }


_TOP_KEYS = (
    "r", "mu", "p", "b_L", "b_R", "taste", "shock",
    "regime", "third_party", "turnout", "quadrature", "sim",
)


def parse_scenario(data, source: str = "scenario") -> Scenario:
    """Build a validated Scenario from decoded JSON (a dict)."""
    obj = _require_object(data, source)
    _reject_unknown(obj, source, _TOP_KEYS)

    params = ElectorateParams(
        r=_real(obj, "r", source),
        mu=_real(obj, "mu", source),
        p=_real(obj, "p", source),
        b_L=_real(obj, "b_L", source),
        b_R=_real(obj, "b_R", source),
        taste=_distribution(obj, "taste", source),
        shock=_distribution(obj, "shock", source),
    )
    require_valid(params)

    regime = ReferendumRegime.NO_REFERENDUM
    if "regime" in obj:
        raw = obj["regime"]
        try:
            regime = ReferendumRegime(raw)
        except ValueError:
            raise ScenarioError(
                f"{source}.regime must be one of "
                f"{[m.value for m in ReferendumRegime]}, got {raw!r}"
            ) from None

    third = None
    if "third_party" in obj:
        third = ThirdPartyParams(
            base=params, **_fields(obj, "third_party", source, {"v": _real})
        )
        require_valid_third(third)

    turnout = None
    if "turnout" in obj:
        sizes = ("c_bar", "sigma", "kappa")
        turnout = TurnoutParams(
            base=params,
            **_fields(obj, "turnout", source, dict.fromkeys(sizes, _real), sizes),
        )
        require_valid_turnout(turnout)

    tolerances = _fields(obj, "quadrature", source, dict.fromkeys(("abs_tol", "rel_tol"), _real))
    try:
        quadrature = QuadratureConfig(**tolerances)
    except UsageError as exc:
        raise ScenarioError(f"{source}.quadrature: {exc}") from None
    settings = _fields(obj, "sim", source, dict.fromkeys(
        ("n_policy_voters", "n_replications", "seed", "agent_level")
    ))
    try:
        sim = SimConfig(**settings)
    except UsageError as exc:
        raise ScenarioError(f"{source}.sim: {exc}") from None

    return Scenario(
        params=params, regime=regime, third=third, turnout=turnout,
        quadrature=quadrature, sim=sim,
    )


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file; errors carry line or path context."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path} is not valid JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}"
        ) from exc
    return parse_scenario(data, source=path)
