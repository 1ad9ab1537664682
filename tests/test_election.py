"""Right's win probability and the value of holding a referendum."""
from __future__ import annotations

import math
from dataclasses import replace

import pytest

from refcalc.election import (
    _clamp,
    lambda_margin,
    lambda_win,
    net_benefit,
    right_share_multi,
    split_at_kinks,
    win_prob,
)
from refcalc import quadrature
from refcalc.errors import InvalidParamsError, UsageError
from refcalc.model import DistributionSpec, ElectorateParams, ReferendumRegime, shock_pieces
from refcalc.quadrature import QuadratureConfig
from refcalc.third_party import ThirdPartyParams, lambda_hat, win_prob_third
from refcalc.thresholds import r_bind

from conftest import PRIM_WIDE

NO_REF = ReferendumRegime.NO_REFERENDUM
BINDING = ReferendumRegime.BINDING
NON_BINDING = ReferendumRegime.NON_BINDING


def test_lambda_win_shape():
    assert lambda_win(0.5, 0.5) == 0.5
    # mu = 0.5 makes the map the identity on [0, 1].
    assert lambda_win(0.3, 0.5) == pytest.approx(0.3, abs=1e-15)
    assert lambda_win(0.6, 0.75) == pytest.approx(0.8, abs=1e-12)
    # The raw map is affine and unsaturated; saturation happens where it is
    # read, by _clamp, or by splitting the shock line at its kinks.
    assert lambda_win(0.75, 0.8) > 1.0
    assert _clamp(lambda_win(0.6, 0.75)) == lambda_win(0.6, 0.75)
    assert _clamp(lambda_win(0.75, 0.8)) == 1.0
    assert _clamp(lambda_win(0.25, 0.8)) == 0.0
    # A NaN is not saturated: it must reach the quadrature, which raises.
    # min(1.0, max(0.0, nan)) would turn it into 0.0.
    assert math.isnan(_clamp(math.nan))


@pytest.mark.parametrize("share", [-1e-12, 1.0 + 1e-12, -math.inf, math.inf])
def test_lambda_win_rejects_a_share_outside_the_unit_interval(share):
    with pytest.raises(UsageError, match="share must lie in"):
        lambda_win(share, 0.5)


def test_lambda_win_passes_a_nan_share_through():
    # A NaN share is a numerical fault upstream, not a point where the win
    # probability is undefined: it must reach the quadrature, which raises.
    assert math.isnan(lambda_win(math.nan, 0.5))
    assert math.isnan(lambda_margin(math.nan, 0.5))
    assert lambda_win(0.0, 0.5) == 0.0 and lambda_win(1.0, 0.5) == 1.0


@pytest.mark.parametrize("mu", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_win_map_rejects_mu_outside_the_open_unit_interval(mu):
    with pytest.raises(UsageError, match="mu must lie in"):
        lambda_margin(0.1, mu)
    with pytest.raises(UsageError, match="mu must lie in"):
        lambda_win(0.5, mu)


_MUS = (5e-324, 1e-300, 1e-12, 0.1, 1.0 / 3.0, 0.5, 0.7, 0.9, 1.0 - 1e-12,
        math.nextafter(1.0, 0.0))
_SHARES = (0.0, 5e-324, 1e-17, 0.25, math.nextafter(0.5, 0.0), 0.5,
           math.nextafter(0.5, 1.0), 0.7, math.nextafter(1.0, 0.0), 1.0)


def test_win_map_keeps_the_bits_of_its_share_form():
    # The map is stated once on the margin D = 2x - 1. It must equal, bit for
    # bit, the share form 1/2 + mu/(1-mu) (x - 1/2) written out here, from
    # mu near 0 to mu near 1 and at shares 0, 1/2 and 1.
    scenario = ElectorateParams(
        r=0.5, mu=0.5, p=0.2, b_L=-0.5, b_R=0.3,
        taste=DistributionSpec("normal", 0.2), shock=DistributionSpec("normal", 0.25),
    )
    for mu in _MUS:
        for x in _SHARES:
            share_form = 0.5 + mu / (1.0 - mu) * (x - 0.5)
            assert lambda_win(x, mu) == share_form, (mu, x)
            assert lambda_margin(2.0 * x - 1.0, mu) == share_form, (mu, x)
        params = replace(scenario, mu=mu)
        for g in (-1.0, -0.1, 0.0, 0.2, 1.0):
            share = right_share_multi(params, g)
            clamped = min(1.0, max(0.0, 0.5 + mu / (1.0 - mu) * (share - 0.5)))
            assert _clamp(lambda_win(share, mu)) == clamped, (mu, g)


def test_spoiler_map_keeps_the_bits_of_its_retention_form():
    # lambda_hat reads the same map at the margin r B(-v-b_R-g) - (1-r)
    # B(p-v-b_L-g); the retention form it replaced is written out here.
    for mu in _MUS:
        for r in (0.3, 0.5, 0.6):
            base = ElectorateParams(
                r=r, mu=mu, p=0.2, b_L=-0.5, b_R=-0.1,
                taste=DistributionSpec("logistic", 0.6),
                shock=DistributionSpec("normal", 0.25),
            )
            tp = ThirdPartyParams(base, v=-0.05)
            B = base.taste.cdf
            for g in (-2.0, -0.3, 0.0, 0.15, 2.0):
                raw = 0.5 - mu / (2.0 * (1.0 - mu)) * (
                    (1.0 - r) * B(base.p - tp.v - base.b_L - g)
                    - r * B(-tp.v - base.b_R - g)
                )
                assert lambda_hat(tp, g) == min(1.0, max(0.0, raw)), (mu, r, g)


def test_right_share_multi_monotone(scenario_a):
    lo = right_share_multi(scenario_a, -1.0)
    mid = right_share_multi(scenario_a, 0.0)
    hi = right_share_multi(scenario_a, 1.0)
    assert lo < mid < hi
    # Diverged-race share at gamma: r B(gamma + b_R + p) + (1-r) B(gamma + b_L - p).
    tB = scenario_a.taste.cdf
    expect = 0.45 * tB(0.3 + 0.2) + 0.55 * tB(-0.5 - 0.2)
    assert mid == pytest.approx(expect, abs=1e-12)


def test_win_prob_baseline_frozen(scenario_a):
    # FROZEN scipy quad: integral of lambda(share(gamma)) g(gamma) dgamma
    # for the diverged baseline = 0.4312868827503117.
    assert win_prob(scenario_a, NO_REF) == pytest.approx(
        0.4312868827503117, abs=1e-8
    )


def test_win_prob_non_binding_frozen(scenario_a):
    # FROZEN scipy quad: aligned tails at lambda(r) plus the diverged middle
    # integral = 0.44589834351968965.
    assert win_prob(scenario_a, NON_BINDING) == pytest.approx(
        0.44589834351968965, abs=1e-8
    )


def test_win_prob_binding_is_single_issue(scenario_a):
    # Binding referendum collapses divergence: win probability is lambda(r),
    # which at mu = 1/2 is r itself.
    assert win_prob(scenario_a, BINDING) == pytest.approx(0.45, abs=1e-12)


def test_win_prob_aligned_baseline_is_lambda_r(scenario_a):
    aligned = replace(scenario_a, b_R=-0.1)
    assert win_prob(aligned, NO_REF) == pytest.approx(0.45, abs=1e-12)


def test_the_clip_holds_lambda_r_at_a_band_edge():
    # competitive_band leaves r = 0.09090909090909095 valid at mu = 0.55,
    # where lambda(r) rounds to -1.1e-16. Aligned majors race at lambda(r),
    # so without the clip the win probability would be negative.
    params = ElectorateParams(
        r=0.09090909090909095, mu=0.55, p=0.2, b_L=-0.5, b_R=-0.1,
        taste=DistributionSpec("normal", 0.2), shock=DistributionSpec("normal", 0.25),
    )
    assert lambda_win(params.r, params.mu) < 0.0
    assert win_prob(params, NO_REF) == 0.0
    ahead = win_prob_third(ThirdPartyParams(params, v=-0.01), NON_BINDING)
    assert 0.0 <= ahead <= 1.0


def test_win_prob_rejects_invalid_params(scenario_a):
    with pytest.raises(InvalidParamsError):
        win_prob(replace(scenario_a, p=-1.0), NO_REF)


def test_net_benefit_non_binding_frozen(scenario_a):
    # FROZEN: difference of the two frozen win probabilities.
    assert net_benefit(scenario_a, NON_BINDING) == pytest.approx(
        0.44589834351968965 - 0.4312868827503117, abs=1e-8
    )


def test_net_benefit_binding_aligned_is_exactly_zero(scenario_a):
    # Aligned positions and a binding vote change nothing for either party;
    # the implementation short-circuits to literal zero, no quadrature noise.
    aligned = replace(scenario_a, b_R=-0.1)
    assert net_benefit(aligned, BINDING) == 0.0


def test_net_benefit_binding_sign_flips_at_r_bind():
    # At mu = 1/2 the binding net benefit is r - baseline win probability,
    # which changes sign exactly at r_bind. Both read the same two kernels
    # over the whole line, so at r_bind the net benefit is the threshold's
    # own residual, not a difference of two quadratures.
    taste = DistributionSpec("normal", 1.0)
    shock = DistributionSpec("normal", 0.5)
    rb = r_bind(-1.0, 0.5, 0.05, taste, shock).value
    # FROZEN scipy: 0.3582516326965752.
    assert rb == pytest.approx(0.3582516326965752, abs=1e-8)

    def nb(r):
        params = ElectorateParams(
            r=r, mu=0.5, p=0.05, b_L=-1.0, b_R=0.5, taste=taste, shock=shock
        )
        return net_benefit(params, BINDING)

    assert nb(rb - 0.05) < 0
    assert nb(rb + 0.05) > 0
    assert nb(rb) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("mu", [0.5, 0.7])
@pytest.mark.parametrize("b_R", [-0.1, 0.2])
@pytest.mark.parametrize("regime", [BINDING, NON_BINDING])
def test_net_benefit_is_the_win_prob_difference(regime, b_R, mu):
    # net_benefit integrates only where the referendum moves the parties; it
    # must agree with the difference of the two win probabilities, also where
    # the win map saturates (mu = 0.7 from a diverged start).
    params = ElectorateParams(
        r=0.45, mu=mu, p=0.3, b_L=-0.4, b_R=b_R,
        taste=DistributionSpec("normal", 1.0),
        shock=DistributionSpec("normal", 0.5),
    )
    gain = net_benefit(params, regime)
    diff = win_prob(params, regime) - win_prob(params, NO_REF)
    assert abs(gain - diff) <= 1e-10
    diverged = [
        (lo, hi) for reg in (regime, NO_REF)
        for lo, hi, positions in shock_pieces(params.b_L, params.b_R, reg)
        if positions.diverged
    ]
    saturates = mu > 0.5 and b_R >= 0
    assert any(split_at_kinks(params, lo, hi) for lo, hi in diverged) == saturates


def test_split_at_kinks_reports_saturation():
    # Policy voters dominant enough that lambda saturates for some shocks.
    params = ElectorateParams(
        r=0.5,
        mu=0.95,
        p=0.5,
        b_L=-0.5,
        b_R=0.5,
        taste=DistributionSpec("normal", 0.2),
        shock=DistributionSpec("normal", 0.5),
    )
    (_, c, low), (c_in, d_in, inside), (d, _, high) = split_at_kinks(params, None, None)
    assert (low, inside, high) == (0.0, None, 1.0)
    assert (c, d) == (c_in, d_in) and c < d
    # The kinks are where the map reaches 0 and 1.
    assert lambda_win(right_share_multi(params, c), params.mu) == pytest.approx(0.0, abs=1e-10)
    assert lambda_win(right_share_multi(params, d), params.mu) == pytest.approx(1.0, abs=1e-10)
    # At mu = 1/2 the map is the identity and never leaves [0, 1].
    assert split_at_kinks(replace(params, mu=0.5), None, None) == ()


def test_a_piece_saturated_throughout_is_its_shock_mass(monkeypatch):
    # Right's policy share stays above 1/2 + (1-mu)/(2 mu) over the whole
    # truncated shock range, so the map is 1 on the whole line: the win
    # probability is the line's shock mass, exactly 1, and nothing is
    # integrated.
    params = ElectorateParams(
        r=0.55, mu=0.9, p=0.001, b_L=-0.001, b_R=0.5,
        taste=DistributionSpec("normal", 0.05),
        shock=DistributionSpec("normal", 0.01),
    )

    def no_quadrature(*args, **kwargs):
        raise AssertionError("a saturated piece was integrated")

    monkeypatch.setattr(quadrature, "integrate", no_quadrature)
    assert split_at_kinks(params, None, None) == ((None, None, 1.0),)
    assert win_prob(params, NO_REF) == 1.0
    assert net_benefit(params, BINDING) == lambda_win(0.55, 0.9) - 1.0


def test_quadrature_config_threading(scenario_a):
    # A looser tolerance must still land within its own error budget.
    loose = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5)
    tight = win_prob(scenario_a, NO_REF)
    rough = win_prob(scenario_a, NO_REF, config=loose)
    assert rough == pytest.approx(tight, abs=1e-4)
