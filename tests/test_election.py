"""Right's win probability and the value of holding a referendum."""
from __future__ import annotations

import math
from dataclasses import replace

import pytest

from refcalc.election import (
    _clamp,
    _wins,
    lambda_margin,
    lambda_win,
    net_benefit,
    split_at_kinks,
    win_prob,
)
from refcalc import quadrature
from refcalc.errors import InvalidParamsError, UsageError
from refcalc.model import (
    DistributionSpec,
    ElectorateParams,
    ReferendumRegime,
    competitive_band,
    shock_pieces,
    validate,
)
from refcalc.quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from refcalc.third_party import ThirdPartyParams, net_benefit_third, win_prob_third
from refcalc.thresholds import gamma_star, r_bind

from conftest import ADD_UP, DRIFT, PRIM_WIDE, diverged_draws, electorate, with_aligned_variants

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
    # A NaN is not saturated: it stays a NaN, the mark of a fault upstream.
    # min(1.0, max(0.0, nan)) would turn it into 0.0.
    assert math.isnan(_clamp(math.nan))


@pytest.mark.parametrize("share", [-1e-12, 1.0 + 1e-12, -math.inf, math.inf])
def test_lambda_win_rejects_a_share_outside_the_unit_interval(share):
    with pytest.raises(UsageError, match="share must lie in"):
        lambda_win(share, 0.5)


def test_lambda_win_passes_a_nan_share_through():
    # A NaN share is a numerical fault upstream, not a point where the win
    # probability is undefined: it must come back a NaN, not a probability.
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
    for mu in _MUS:
        for x in _SHARES:
            share_form = 0.5 + mu / (1.0 - mu) * (x - 0.5)
            assert lambda_win(x, mu) == share_form, (mu, x)
            assert lambda_margin(2.0 * x - 1.0, mu) == share_form, (mu, x)


@pytest.mark.parametrize("mu, r, levels", [
    (0.9, 0.52, (None, 0.0, None)),
    (0.7, 0.45, (None, 0.0, None)),
    (0.5, 0.45, ()),
])
def test_spoiler_split_finds_the_kinks_of_its_retention_form(mu, r, levels):
    # The spoiler map, the win map at the margin r B(-v-b_R-g) - (1-r)
    # B(p-v-b_L-g) of the kept shares, is written out here. For log-concave
    # taste it falls from lambda(r), then rises to 1/2, so where it dips
    # below 0 it is 0 between two kinks, one on each side of its minimum.
    params = ElectorateParams(
        r=r, mu=mu, p=0.2, b_L=-0.5, b_R=-0.1,
        taste=DistributionSpec("normal", 0.2), shock=DistributionSpec("normal", 0.25),
    )
    v = -0.01
    B = params.taste.cdf

    def spoiler_map(g):
        return 0.5 - mu / (2.0 * (1.0 - mu)) * (
            (1.0 - r) * B(params.p - v - params.b_L - g) - r * B(-v - params.b_R - g)
        )

    pieces = split_at_kinks(params, None, None, v)
    assert tuple(level for *_, level in pieces) == levels
    for (_, kink, before), (start, _, after) in zip(pieces, pieces[1:]):
        assert start == kink
        assert spoiler_map(kink) == pytest.approx(after if before is None else before, abs=1e-10)
    for x, y, level in pieces:
        inside = spoiler_map(((x if x is not None else y - 1.0) + (y if y is not None else x + 1.0)) / 2)
        if level is None:
            assert 0.0 < inside < 1.0
        else:
            assert (inside >= 1.0) if level else (inside <= 0.0)


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


@pytest.mark.parametrize("mu", [0.55, 0.6448905175136281])
def test_the_clip_holds_lambda_r_at_a_band_edge(mu):
    # The band is open, yet one ulp inside its lower end validate accepts an
    # r where lambda(r) rounds to -1.1e-16 (r = 0.09090909090909095 at
    # mu = 0.55, 0.22467459759255373 at the second mu). Aligned majors race
    # at lambda(r), so without the clip the win probability would be
    # negative.
    r = math.nextafter(competitive_band(mu)[0], 1.0)
    params = ElectorateParams(
        r=r, mu=mu, p=0.2, b_L=-0.5, b_R=-0.1,
        taste=DistributionSpec("normal", 0.2), shock=DistributionSpec("normal", 0.25),
    )
    assert validate(params) == []
    assert lambda_win(r, mu) == -1.1102230246251565e-16
    assert win_prob(params, NO_REF) == 0.0
    ahead = win_prob_third(ThirdPartyParams(params, v=-0.01), NON_BINDING)
    assert 0.0 <= ahead <= 1.0


def _inside_band_ends(electorates):
    # Each electorate at r one ulp inside each end of its competitive band
    # that lies in (0, 1), where lambda(r) is within a rounding of 0 or 1.
    lo_hi = [(p, competitive_band(p.mu)) for p in electorates]
    return [
        replace(p, r=r) for p, (lo, hi) in lo_hi
        for r in (math.nextafter(lo, 1.0), math.nextafter(hi, 0.0)) if 0.0 < r < 1.0
    ]


RACES = with_aligned_variants([*diverged_draws(60, seed=3), electorate(DRIFT)])


@pytest.mark.parametrize("params", [*RACES, *_inside_band_ends(RACES)])
def test_win_probs_stay_probabilities_and_differ_by_the_gain(params):
    # Each win probability with a referendum is a sum, the one without it
    # plus the gain, so it must stay in [0, 1], and the rows printed for a
    # race add up: in the two-party race under each referendum, and in the
    # spoiler race from the aligned starts.
    no_ref = win_prob(params, NO_REF)
    assert 0.0 <= no_ref <= 1.0
    for regime in (BINDING, NON_BINDING):
        with_ref = win_prob(params, regime)
        assert 0.0 <= with_ref <= 1.0
        assert abs((with_ref - no_ref) - net_benefit(params, regime)) <= ADD_UP
    if params.b_R < 0:
        spoiler = ThirdPartyParams(params)
        ahead_no, ahead = (win_prob_third(spoiler, regime) for regime in (NO_REF, NON_BINDING))
        assert 0.0 <= ahead_no <= 1.0 and 0.0 <= ahead <= 1.0
        assert abs((ahead - ahead_no) - net_benefit_third(spoiler)) <= ADD_UP


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
    # net_benefit integrates only where the referendum moves the parties, and
    # the win probability with a referendum is the one without it plus that
    # gain, so the two agree up to rounding, also where the win map
    # saturates (mu = 0.7 from a diverged start).
    params = ElectorateParams(
        r=0.45, mu=mu, p=0.3, b_L=-0.4, b_R=b_R,
        taste=DistributionSpec("normal", 1.0),
        shock=DistributionSpec("normal", 0.5),
    )
    gain = net_benefit(params, regime)
    diff = win_prob(params, regime) - win_prob(params, NO_REF)
    assert abs(gain - diff) <= ADD_UP
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
    B = params.taste.cdf

    def share(g):
        return params.r * B(g + params.b_R + params.p) + (1.0 - params.r) * B(g + params.b_L - params.p)

    assert lambda_win(share(c), params.mu) == pytest.approx(0.0, abs=1e-10)
    assert lambda_win(share(d), params.mu) == pytest.approx(1.0, abs=1e-10)
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


@pytest.mark.parametrize("mu, r", [(0.5, 0.45), (0.9, 0.52)])
def test_reads_of_adjacent_pieces_add_up(scenario_a, mu, r):
    # The congruence levels and delta read Right's win over
    # (-inf, gamma_star] as the reads of (-inf, -b_R] and [-b_R, gamma_star].
    # At mu 0.9 the map sits at 0 on the left tail and has a kink inside
    # [-b_R, gamma_star], which each read finds on its own.
    params = replace(scenario_a, mu=mu, r=r)
    gs = gamma_star(params).value
    quad = DEFAULT_QUADRATURE
    whole = _wins(params, None, gs, quad)
    left = _wins(params, None, -params.b_R, quad)
    right = _wins(params, -params.b_R, gs, quad)
    assert bool(split_at_kinks(params, None, gs)) == (mu > 0.5)
    for value, a, b in zip(whole, left, right):
        assert abs(value - (a + b)) <= 10 * quad.abs_tol


def test_quadrature_config_threading(scenario_a):
    # A looser tolerance must still land within its own error budget.
    loose = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5)
    tight = win_prob(scenario_a, NO_REF)
    rough = win_prob(scenario_a, NO_REF, config=loose)
    assert rough == pytest.approx(tight, abs=1e-4)
