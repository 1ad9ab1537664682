"""Parameter validation, referendum support, and party position rules."""
from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from refcalc.errors import InvalidParamsError
from refcalc.model import (
    DistributionSpec,
    ElectorateParams,
    PartyPositions,
    ReferendumRegime,
    initial_positions,
    moved_pieces,
    referendum_support,
    require_valid,
    shock_pieces,
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


def _positions_at(pieces, gamma):
    # The positions on the piece that holds gamma; a piece holds its lo end.
    (positions,) = [
        pos for lo, hi, pos in pieces
        if (lo is None or lo <= gamma) and (hi is None or gamma < hi)
    ]
    return positions


def test_shock_pieces_non_binding(scenario_a):
    # Non-binding: party J adopts iff gamma >= -b_J.
    pieces = shock_pieces(scenario_a.b_L, scenario_a.b_R, ReferendumRegime.NON_BINDING)
    assert _positions_at(pieces, -0.4) == PartyPositions(0, 0)
    assert _positions_at(pieces, 0.0) == PartyPositions(0, 1)
    assert _positions_at(pieces, 0.6) == PartyPositions(1, 1)


def test_shock_pieces_binding(scenario_a):
    # Binding: both parties stand together on the whole line.
    (piece,) = shock_pieces(scenario_a.b_L, scenario_a.b_R, ReferendumRegime.BINDING)
    assert piece[:2] == (None, None)
    assert not piece[2].diverged


@pytest.mark.parametrize("regime", list(ReferendumRegime))
@pytest.mark.parametrize(
    "b_L, b_R", [(-0.5, -0.2), (-0.5, 0.0), (-0.5, 0.3), (-0.1, 1.2), (-1.0, -0.99)]
)
def test_shock_pieces_tile_the_line(b_L, b_R, regime):
    pieces = shock_pieces(b_L, b_R, regime)
    assert pieces[0][0] is None and pieces[-1][1] is None
    for (_, hi, _), (lo, _, _) in zip(pieces, pieces[1:]):
        assert hi == lo
    initial = PartyPositions(int(b_L >= 0), int(b_R >= 0))
    for lo, hi, positions in pieces:
        if lo is not None and hi is not None:
            assert lo < hi
        if regime is ReferendumRegime.NO_REFERENDUM:
            assert positions == initial
        elif regime is ReferendumRegime.BINDING:
            assert not positions.diverged
        else:
            # Party J holds y=1 exactly when gamma >= -b_J.
            gamma = hi - 1.0 if lo is None else lo + 1.0 if hi is None else (lo + hi) / 2
            assert positions == PartyPositions(int(gamma >= -b_L), int(gamma >= -b_R))
    moved = [piece for piece in pieces if piece[2].diverged != initial.diverged]
    assert list(moved_pieces(b_L, b_R, regime)) == moved
