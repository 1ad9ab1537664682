"""Spoiler-party extension: three-way races and the advisory-referendum motive."""
from __future__ import annotations

from dataclasses import replace

import math

import pytest

from refcalc.election import lambda_win, win_prob
from refcalc.errors import InvalidParamsError, QuadratureError, UsageError
from refcalc.model import DistributionSpec, ElectorateParams, ReferendumRegime
from refcalc.third_party import (
    DEFAULT_VALENCE,
    ThirdPartyParams,
    classify_referendum_preference,
    net_benefit_third,
    phi,
    phi_thresholds,
    validate_third,
    win_prob_third,
    worse_off_condition,
)

from conftest import SPOILER_HELPS, spoiler

NO_REF = ReferendumRegime.NO_REFERENDUM
NON_BINDING = ReferendumRegime.NON_BINDING

# Aligned-majors electorate with a mild spoiler; the FROZEN values below were
# produced by scipy quadrature over hand-written retention shares.
BASE_B = ElectorateParams(
    r=0.55,
    mu=0.5,
    p=0.2,
    b_L=-0.5,
    b_R=-0.1,
    taste=DistributionSpec("normal", 0.6),
    shock=DistributionSpec("normal", 0.25),
)
SPOILER = ThirdPartyParams(base=BASE_B, v=-0.05)

SHOCK_HALF = DistributionSpec("normal", 0.5)


def test_default_valence_is_small_and_negative():
    assert DEFAULT_VALENCE == -0.01


def test_validate_third_requires_aligned_majors_and_negative_valence():
    assert validate_third(SPOILER) == []
    diverged = ThirdPartyParams(base=replace(BASE_B, b_R=0.2), v=-0.05)
    assert any("b_L < b_R < 0" in v for v in validate_third(diverged))
    cherished = ThirdPartyParams(base=BASE_B, v=0.1)
    assert any("valence" in v for v in validate_third(cherished))
    infinitely_shunned = ThirdPartyParams(base=BASE_B, v=-math.inf)
    assert any("v must be negative and finite" in v for v in validate_third(infinitely_shunned))


def test_win_prob_third_frozen():
    # FROZEN scipy quad: no referendum 0.46555792854946826, advisory
    # referendum 0.48553450953041294.
    assert win_prob_third(SPOILER, NO_REF) == pytest.approx(
        0.46555792854946826, abs=1e-8
    )
    assert win_prob_third(SPOILER, NON_BINDING) == pytest.approx(
        0.48553450953041294, abs=1e-8
    )


def test_net_benefit_third_frozen_and_dual_route():
    # FROZEN scipy difference: 0.01997658098094468.
    gamma = net_benefit_third(SPOILER)
    assert gamma == pytest.approx(0.01997658098094468, abs=1e-8)
    # The module computes the net benefit by its own integral; it must agree
    # with the difference of the two win probabilities it refines.
    diff = win_prob_third(SPOILER, NON_BINDING) - win_prob_third(SPOILER, NO_REF)
    assert gamma == pytest.approx(diff, abs=1e-8)


def test_a_nan_in_the_spoiler_integrand_raises(monkeypatch):
    # The benchmark's spoiler electorate. A taste cdf that returns NaN on
    # part of its range must fail the quadrature, not be saturated to 1.0
    # and integrated as a probability.
    tp = ThirdPartyParams(
        base=ElectorateParams(
            r=0.45, mu=0.5, p=0.2, b_L=-0.5, b_R=-0.1,
            taste=DistributionSpec("normal", 0.2),
            shock=DistributionSpec("normal", 0.25),
        ),
        v=-0.01,
    )
    assert win_prob_third(tp, NO_REF) == pytest.approx(0.3714, abs=1e-4)
    cdf = DistributionSpec.cdf
    monkeypatch.setattr(
        DistributionSpec, "cdf",
        lambda self, x: math.nan if type(x) is float and -0.50 < x < -0.30 else cdf(self, x),
    )
    for regime in (NO_REF, NON_BINDING):
        with pytest.raises(QuadratureError, match="non-finite integrand"):
            win_prob_third(tp, regime)
    with pytest.raises(QuadratureError, match="non-finite integrand"):
        net_benefit_third(tp)


def test_a_hopeless_spoiler_leaves_the_single_issue_race():
    # As the spoiler becomes arbitrarily unattractive no voter leaves a major
    # party and the three-way race collapses to the single-issue one.
    hopeless = ThirdPartyParams(base=BASE_B, v=-50.0)
    assert win_prob_third(hopeless, NO_REF) == pytest.approx(
        lambda_win(BASE_B.r, BASE_B.mu), abs=1e-9
    )


def test_phi_closed_form_identities():
    shock = SHOCK_HALF
    for b_L in (-0.8, -0.5, -0.2):
        # b_R -> b_L: the general expression collapses to G(b_L).
        assert phi(b_L, b_L, shock) == pytest.approx(shock.cdf(b_L), abs=1e-12)
        # b_R -> 0: collapses to 2 G(b_L) - 1/2.
        assert phi(b_L, 0.0, shock) == pytest.approx(
            2.0 * shock.cdf(b_L) - 0.5, abs=1e-12
        )


@pytest.mark.parametrize("b_L, b_R, match", [
    (0.0, 0.0, "b_L must be negative"),
    (math.nan, -0.1, "b_L must be negative"),
    (-0.5, -0.6, "need b_L <= b_R <= 0"),
    (-0.5, 0.1, "need b_L <= b_R <= 0"),
])
def test_phi_rejects_arguments_outside_its_domain(b_L, b_R, match):
    with pytest.raises(UsageError, match=match):
        phi(b_L, b_R, SHOCK_HALF)


def test_phi_thresholds_rejects_a_nonnegative_b_L():
    with pytest.raises(UsageError, match="b_L must be negative"):
        phi_thresholds(0.0, SHOCK_HALF)


def test_phi_thresholds_has_no_b_R_star_from_the_lower_quartile_up():
    # Above the shock's lower quartile phi(b_L, 0) = 2 G(b_L) - 1/2 > 0 and
    # phi falls in b_R, so it stays positive on [b_L, 0] and has no root.
    quartile = SHOCK_HALF.quantile(0.25)
    # FROZEN scipy: norm.ppf(0.25, scale=0.5) = -0.33724487509804085.
    assert quartile == pytest.approx(-0.33724487509804085, abs=1e-12)
    assert phi_thresholds(quartile, SHOCK_HALF) == (quartile, None)
    for b_L in (-0.3, -0.2, -1e-9):
        assert phi_thresholds(b_L, SHOCK_HALF) == (quartile, None)
        for b_R in (b_L, b_L / 2, 0.0):
            assert phi(b_L, b_R, SHOCK_HALF) > 0


def test_phi_thresholds_frozen():
    th = phi_thresholds(-0.5, SHOCK_HALF)
    # FROZEN scipy: norm.ppf(1/4, scale=0.5) = -0.33724487509804085.
    assert th.b_L_star == pytest.approx(-0.33724487509804085, abs=1e-10)
    # FROZEN scipy brentq on phi(-0.5, .) = 0: -0.23761642462354035.
    assert th.b_R_star == pytest.approx(-0.23761642462354035, abs=1e-8)
    assert phi(-0.5, th.b_R_star, SHOCK_HALF) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("b_L", [-3.0, -10.0, -20.0])
def test_phi_thresholds_tail_against_mpmath(b_L):
    # phi = 0 is G(b_R) = 2 G(b_L); solved in 40-digit arithmetic. Deep in the
    # shock tail G(-b_L) rounds to one, which a root finder on phi cannot see;
    # at -20, G(b_L) ~ 4e-350 underflows to zero in double precision.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        target = 2 * mpmath.ncdf(b_L, sigma=0.5)
        exact = mpmath.findroot(
            lambda x: mpmath.ncdf(x, sigma=0.5) - target, b_L + 0.01
        )
    assert phi_thresholds(b_L, SHOCK_HALF).b_R_star == pytest.approx(
        float(exact), abs=1e-12
    )


def test_phi_thresholds_logistic_far_tail_against_mpmath():
    # At b_L = -400, scale 0.5, G(b_L) = expit(-800) ~ 4e-348 underflows to
    # zero in double precision; the logistic quantile of 2 G(b_L) is closed form.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        target = 2 / (1 + mpmath.exp(800))
        exact = 0.5 * mpmath.log(target / (1 - target))
    shock = DistributionSpec("logistic", 0.5)
    assert phi_thresholds(-400.0, shock).b_R_star == pytest.approx(
        float(exact), abs=1e-12
    )


def test_phi_sign_structure_around_thresholds():
    th = phi_thresholds(-0.5, SHOCK_HALF)
    # Left bias below b_L_star: phi changes sign in (b_L, 0) at b_R_star.
    assert phi(-0.5, th.b_R_star - 0.1, SHOCK_HALF) > 0
    assert phi(-0.5, th.b_R_star + 0.05, SHOCK_HALF) < 0
    # Left bias above b_L_star: phi is positive on the whole aligned range.
    mild = th.b_L_star + 0.05
    for b_R in (mild, mild / 2, -1e-6):
        assert phi(mild, b_R, SHOCK_HALF) > 0


def test_worse_off_condition_matches_definition():
    # Right is worse off with the spoiler present when its three-way win
    # probability falls short of the two-party one, lambda(r) for the aligned
    # baseline. Where the spoiler map saturates, the spoiler can help Right.
    for tp in (SPOILER, *map(spoiler, SPOILER_HELPS.values())):
        b = tp.base
        expected = win_prob_third(tp, NO_REF) < lambda_win(b.r, b.mu)
        assert worse_off_condition(tp) is expected
        assert expected is (tp is SPOILER)
        assert win_prob(b, NO_REF) == pytest.approx(lambda_win(b.r, b.mu), abs=1e-12)


def test_classify_requires_wide_dispersion():
    with pytest.raises(UsageError) as exc:
        classify_referendum_preference(SPOILER)
    assert "wide-dispersion" in str(exc.value)


def test_classify_requires_small_mu():
    tp = _wide_spoiler(r=0.55, mu=0.7)
    with pytest.raises(UsageError):
        classify_referendum_preference(tp)


def test_classify_rejects_exact_tie():
    with pytest.raises(UsageError):
        classify_referendum_preference(_wide_spoiler(r=0.5))


def _wide_spoiler(r, mu=0.6):
    base = ElectorateParams(
        r=r,
        mu=mu,
        p=0.01,
        b_L=-0.02,
        b_R=-0.01,
        taste=DistributionSpec("normal", 1.0),
        shock=DistributionSpec("normal", 0.01),
    )
    return ThirdPartyParams(base=base, v=-0.001)


def test_classify_sign_rule():
    # phi(-0.02, -0.01, N(0.01)) = 1 - 2 G(0.02) + G(0.01): strongly negative
    # since both biases are a couple of shock scales below zero.
    up = classify_referendum_preference(_wide_spoiler(r=0.55))
    assert up.standing == "advantaged"
    assert up.phi_value < 0
    assert up.asymptotic_sign == -1.0
    assert up.decision == "not_hold"
    assert "wide_dispersion_proxy" in up.flags

    down = classify_referendum_preference(_wide_spoiler(r=0.45))
    assert down.standing == "disadvantaged"
    assert down.asymptotic_sign == 1.0
    assert down.decision == "hold"


def test_classify_flags_near_zero_phi():
    base = ElectorateParams(
        r=0.55,
        mu=0.6,
        p=0.01,
        # b_R at the phi root for this b_L keeps |phi| < 0.01.
        b_L=-0.02,
        b_R=float(phi_thresholds(-0.02, DistributionSpec("normal", 0.01)).b_R_star),
        taste=DistributionSpec("normal", 1.0),
        shock=DistributionSpec("normal", 0.01),
    )
    pref = classify_referendum_preference(ThirdPartyParams(base=base, v=-0.001))
    assert "phi_near_zero" in pref.flags


def test_invalid_spoiler_raises():
    with pytest.raises(InvalidParamsError):
        win_prob_third(ThirdPartyParams(base=BASE_B, v=0.5), NO_REF)
