"""Same-day referendum turnout lever: intensities, win shift, and r_T.

Each intensity is one shock quadrature over the closed-form taste moment;
most tests run it at a relaxed tolerance (errors observed well under 1e-8
against the scipy reference) and lean on a small cache for repeated
intensity lookups.
"""
from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

import pytest

from refcalc import quadrature
from refcalc.errors import InvalidParamsError, QuadratureError
from refcalc.model import DistributionSpec, ElectorateParams, ReferendumRegime
from refcalc.quadrature import QuadratureConfig
from refcalc.turnout import (
    TurnoutParams,
    intensity,
    net_benefit_turnout,
    r_T,
    validate_turnout,
    win_prob_turnout,
)

# FROZEN expectations below come from scipy nested quad over the truncated
# densities written out by hand.
BASE_T = ElectorateParams(
    r=0.55,
    mu=0.6,
    p=0.2,
    b_L=-0.8,
    b_R=-0.4,
    taste=DistributionSpec("normal", 1.2),
    shock=DistributionSpec("normal", 0.3),
)
TURNOUT = TurnoutParams(base=BASE_T, c_bar=6.0, sigma=3.0, kappa=1.0)

CFG = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-6)
NO_REF = ReferendumRegime.NO_REFERENDUM
BINDING = ReferendumRegime.BINDING


def _with(**base_changes):
    return replace(TURNOUT, base=replace(BASE_T, **base_changes))


@lru_cache(maxsize=None)
def _cached_intensity(b_J):
    return intensity(b_J, TURNOUT, CFG)


def test_scenario_satisfies_support_ordering():
    assert validate_turnout(TURNOUT) == []


def test_validate_turnout_collects_violations():
    tight = replace(TURNOUT, c_bar=4.0)
    assert any(
        "c_bar >= p + sigma + kappa + max(|b_L|, |b_R|)" in v
        for v in validate_turnout(tight)
    )
    small_kappa = replace(TURNOUT, kappa=0.5)
    assert any("kappa > max(|b_R|, |b_L|)" in v for v in validate_turnout(small_kappa))
    small_sigma = replace(TURNOUT, sigma=1.0)
    assert any("sigma > p + kappa" in v for v in validate_turnout(small_sigma))
    priceless = replace(TURNOUT, c_bar=math.inf)
    assert any("c_bar must be positive and finite" in v for v in validate_turnout(priceless))
    lopsided = _with(mu=0.8, r=0.7)
    assert any("competitiveness" in v for v in validate_turnout(lopsided))
    with pytest.raises(InvalidParamsError):
        intensity(-0.4, tight)


def test_sigma_must_exceed_p_plus_kappa_strictly():
    """sigma == p + kappa is rejected, and the next float above it accepted.

    Kills the mutants `sigma >= p + kappa` and `sigma > p - kappa` in
    validate_turnout, which both accept the edge.
    """
    edge = BASE_T.p + TURNOUT.kappa
    violations = validate_turnout(replace(TURNOUT, sigma=edge))
    assert violations == [f"need sigma > p + kappa, got {edge} vs {edge}"]
    assert validate_turnout(replace(TURNOUT, sigma=math.nextafter(edge, math.inf))) == []


def test_intensity_frozen():
    # FROZEN scipy: I(-0.8) = 1.1585232962496952, I(-0.4) = 1.0082682745509306.
    assert _cached_intensity(-0.8) == pytest.approx(1.1585232962496952, abs=1e-7)
    assert _cached_intensity(-0.4) == pytest.approx(1.0082682745509306, abs=1e-7)


def test_intensity_frozen_at_default_tolerance():
    # Same FROZEN scipy values, at DEFAULT_QUADRATURE and a 1000x tighter bound.
    assert intensity(-0.8, TURNOUT) == pytest.approx(1.1585232962496952, abs=1e-10)
    assert intensity(-0.4, TURNOUT) == pytest.approx(1.0082682745509306, abs=1e-10)


def test_intensity_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 2)
    with pytest.raises(QuadratureError):
        intensity(-0.8, TURNOUT, QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12))


def test_intensity_even_and_monotone_in_magnitude():
    assert _cached_intensity(0.4) == pytest.approx(_cached_intensity(-0.4), abs=5e-8)
    assert _cached_intensity(-0.4) < _cached_intensity(-0.8)
    assert _cached_intensity(0.0) < _cached_intensity(-0.4)


def test_win_prob_without_referendum_closed_form():
    # 1/2 + (mu/(1-mu)) (p/c_bar) (r - 1/2) = 0.5025 at the scenario values.
    assert win_prob_turnout(TURNOUT, NO_REF, config=CFG) == pytest.approx(
        0.5025, abs=1e-12
    )


def test_win_prob_with_referendum_frozen():
    # FROZEN scipy: 0.5066515084613311.
    assert win_prob_turnout(TURNOUT, BINDING, config=CFG) == pytest.approx(
        0.5066515084613311, abs=1e-7
    )


def test_net_benefit_is_win_prob_difference():
    net = net_benefit_turnout(TURNOUT, CFG)
    diff = win_prob_turnout(TURNOUT, BINDING, config=CFG) - win_prob_turnout(
        TURNOUT, NO_REF, config=CFG
    )
    assert net == pytest.approx(diff, abs=1e-14)
    assert net == pytest.approx(0.5066515084613311 - 0.5025, abs=1e-7)
    assert net > 0  # r = 0.55 sits above r_T for these biases.


@pytest.mark.xfail(
    strict=True,
    reason="the affine win map is not clamped: at mu=0.95 it leaves [0, 1]",
)
def test_win_prob_stays_a_probability_when_the_map_saturates():
    # Passes validate_turnout. The per-shock map spans [0.127, 1.756] and
    # crosses 1 once, at gamma ~ 0.08682. FROZEN scipy quad of the map
    # clipped to [0, 1], split there: 0.9207506833217723 (the unclipped
    # integral, which win_prob_turnout returns, is 1.0731749). A counts-engine
    # run of the oracle (1e5 voters x 2e5 replications, seed 3) gave
    # 0.920825 +- 0.000604.
    tp = TurnoutParams(
        base=replace(BASE_T, r=0.52, mu=0.95, b_L=-0.1, b_R=-0.9),
        c_bar=3.5,
        sigma=1.3,
        kappa=1.0,
    )
    assert validate_turnout(tp) == []
    prob = win_prob_turnout(tp, BINDING, config=CFG)
    assert 0.0 <= prob <= 1.0
    assert prob == pytest.approx(0.9207506833217723, abs=1e-6)


def test_r_T_frozen():
    rep = r_T(TURNOUT, CFG)
    assert rep.name == "r_T"
    # FROZEN scipy: I_L / (I_L + I_R) = 0.5346722369893764.
    assert rep.value == pytest.approx(0.5346722369893764, abs=1e-7)
    assert rep.residual < 1e-12


def test_r_T_half_at_equal_magnitudes():
    assert r_T(_with(b_L=-0.6, b_R=0.6), CFG).value == pytest.approx(0.5, abs=5e-8)
    # Identical biases run the identical integral twice: exactly one half.
    assert r_T(_with(b_L=-0.6, b_R=-0.6), CFG).value == pytest.approx(0.5, abs=1e-14)


def test_r_T_symmetry_identities():
    # The calculus runs through |b_J| only: flipping either bias sign, or
    # both, leaves the threshold unchanged.
    reference = r_T(TURNOUT, CFG).value
    assert r_T(_with(b_R=0.4), CFG).value == pytest.approx(reference, abs=5e-8)
    assert r_T(_with(b_L=0.8), CFG).value == pytest.approx(reference, abs=5e-8)
    assert r_T(_with(b_L=0.8, b_R=0.4), CFG).value == pytest.approx(reference, abs=5e-8)


def test_r_T_monotone_in_stakes():
    # Right's supporters caring more pulls the threshold down; Left's caring
    # more pushes it up.
    assert r_T(_with(b_R=-0.6), CFG).value < r_T(TURNOUT, CFG).value
    assert r_T(_with(b_L=-0.95), CFG).value > r_T(TURNOUT, CFG).value


def test_net_benefit_sign_flips_at_r_T():
    pivot = r_T(TURNOUT, CFG).value
    assert net_benefit_turnout(_with(r=pivot - 0.02), CFG) < 0
    assert net_benefit_turnout(_with(r=pivot + 0.02), CFG) > 0
    assert net_benefit_turnout(_with(r=pivot), CFG) == pytest.approx(0.0, abs=1e-6)


def test_p_does_not_move_the_lever():
    # p cancels out of both the mobilization difference and the threshold.
    shifted = _with(p=0.35)
    assert net_benefit_turnout(shifted, CFG) == pytest.approx(
        net_benefit_turnout(TURNOUT, CFG), abs=1e-12
    )
    assert r_T(shifted, CFG).value == pytest.approx(r_T(TURNOUT, CFG).value, abs=1e-12)
