"""Parameter validation, referendum support, and party position rules."""
from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from refcalc.errors import InvalidParamsError, UsageError
from refcalc.model import (
    DistributionSpec,
    ElectorateParams,
    PartyPositions,
    ReferendumRegime,
    initial_positions,
    post_referendum_positions,
    referendum_support,
    require_valid,
    validate,
)

from conftest import SCENARIO_A


def test_baseline_scenario_is_valid(scenario_a):
    assert validate(scenario_a) == []
    require_valid(scenario_a)


@pytest.mark.parametrize(
    "changes, fragment",
    [
        (dict(r=0.0), "r must lie in (0, 1)"),
        (dict(r=1.0), "r must lie in (0, 1)"),
        (dict(mu=1.5), "mu must lie in (0, 1)"),
        (dict(p=0.0), "p must be positive"),
        (dict(p=-0.1), "p must be positive"),
        (dict(b_L=0.1, b_R=0.5), "bias ordering violated"),
        (dict(b_L=-0.2, b_R=-0.3), "bias ordering violated"),
        (dict(mu=0.9, r=0.9), "competitiveness violated"),
        (dict(mu=0.9, r=0.05), "competitiveness violated"),
        (dict(p=math.inf), "p must be positive and finite"),
        (dict(b_R=math.inf), "b_R must be finite"),
        (dict(b_L=-math.inf), "b_L must be finite"),
    ],
)
def test_validate_reports_each_violation(scenario_a, changes, fragment):
    bad = replace(scenario_a, **changes)
    violations = validate(bad)
    assert any(fragment in v for v in violations), violations
    with pytest.raises(InvalidParamsError) as exc:
        require_valid(bad)
    assert fragment in str(exc.value)


def test_competitiveness_band_is_open():
    # At mu = 0.5 the band is (0, 1): any interior r passes.
    p = ElectorateParams(
        r=0.99, mu=0.5, p=0.1, b_L=-0.5, b_R=0.0,
        taste=DistributionSpec("normal", 1.0),
        shock=DistributionSpec("normal", 1.0),
    )
    assert validate(p) == []
    # At mu = 0.8 the band is (0.375, 0.625); the edge itself fails.
    q = replace(p, mu=0.8, r=0.625)
    assert any("competitiveness" in v for v in validate(q))


def test_referendum_support_midpoint(scenario_a):
    # With b_R = -b_L and r = 1/2 the support at gamma = 0 is exactly 1/2.
    sym = replace(scenario_a, r=0.5, b_L=-0.3, b_R=0.3)
    assert referendum_support(sym, 0.0) == pytest.approx(0.5, abs=1e-12)


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_referendum_support_monotone(g1, g2):
    lo, hi = sorted((g1, g2))
    s_lo = referendum_support(SCENARIO_A, lo)
    s_hi = referendum_support(SCENARIO_A, hi)
    assert s_lo <= s_hi + 1e-12
    assert 0.0 <= s_lo <= 1.0
    assert 0.0 <= s_hi <= 1.0


def test_initial_positions_by_bias_sign(scenario_a):
    # Scenario A: b_L < 0 <= b_R, so positions diverge.
    pos = initial_positions(scenario_a)
    assert pos == PartyPositions(y_left=0, y_right=1)
    assert pos.diverged
    aligned = replace(scenario_a, b_R=-0.1)
    pos2 = initial_positions(aligned)
    assert pos2 == PartyPositions(y_left=0, y_right=0)
    assert not pos2.diverged


def test_post_referendum_positions_non_binding(scenario_a):
    # Non-binding: party J adopts iff gamma >= -b_J.
    assert post_referendum_positions(
        scenario_a, -0.4, ReferendumRegime.NON_BINDING
    ) == PartyPositions(0, 0)
    assert post_referendum_positions(
        scenario_a, 0.0, ReferendumRegime.NON_BINDING
    ) == PartyPositions(0, 1)
    assert post_referendum_positions(
        scenario_a, 0.6, ReferendumRegime.NON_BINDING
    ) == PartyPositions(1, 1)


def test_post_referendum_positions_binding(scenario_a):
    # Binding: both parties stand on the referendum majority.
    low = post_referendum_positions(scenario_a, -2.0, ReferendumRegime.BINDING)
    high = post_referendum_positions(scenario_a, 2.0, ReferendumRegime.BINDING)
    assert low == PartyPositions(0, 0)
    assert high == PartyPositions(1, 1)
    assert not low.diverged and not high.diverged


def test_post_referendum_positions_needs_regime(scenario_a):
    with pytest.raises(UsageError):
        post_referendum_positions(scenario_a, 0.0, ReferendumRegime.NO_REFERENDUM)
