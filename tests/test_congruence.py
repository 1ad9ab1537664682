"""Congruence between implemented policy and the policy-voter majority."""
from __future__ import annotations

from dataclasses import replace

import pytest

from refcalc.congruence import (
    KNIFE_EDGE_FLAG,
    _region_flag,
    classify_congruence_region,
    second_delta,
    second_issue_congruence,
    second_issue_levels,
    traditional_delta,
    traditional_issue_congruence,
    traditional_report,
)
from refcalc.election import net_benefit, split_at_kinks, win_prob
from refcalc.errors import InvalidParamsError, UsageError
from refcalc.model import DistributionSpec, ElectorateParams, ReferendumRegime
from refcalc.quadrature import DEFAULT_QUADRATURE, memo

from conftest import diverged_draws, mirror

BINDING = ReferendumRegime.BINDING
NON_BINDING = ReferendumRegime.NON_BINDING
NO_REF = ReferendumRegime.NO_REFERENDUM


def test_second_issue_frozen_non_binding(scenario_a):
    # FROZEN scipy quad: 0.5663985038425927 without, 0.6084073802175197 with.
    rep = second_issue_congruence(scenario_a, NON_BINDING)
    assert rep.issue == "second"
    assert rep.prob_no_ref == pytest.approx(0.5663985038425927, abs=1e-8)
    assert rep.prob_with_ref == pytest.approx(0.6084073802175197, abs=1e-8)
    assert rep.delta == pytest.approx(0.04200887637492701, abs=1e-8)
    assert rep.flags == ()


def test_second_issue_binding_is_perfect(scenario_a):
    # A binding referendum implements the majority preference by definition;
    # the probability is exactly one, not a quadrature limit.
    rep = second_issue_congruence(scenario_a, BINDING)
    assert rep.prob_with_ref == 1.0
    assert rep.delta == 1.0 - rep.prob_no_ref
    assert rep.delta > 0


def test_second_issue_rejects_baseline_regime(scenario_a):
    with pytest.raises(UsageError):
        second_issue_congruence(scenario_a, NO_REF)


def test_traditional_tracks_minority_left(scenario_a):
    # Scenario A has r = 0.45 < 1/2: the traditional majority is Left, so the
    # report is Left's win probability and its delta is minus Right's gain.
    rep = traditional_issue_congruence(scenario_a, NON_BINDING)
    wp_no = win_prob(scenario_a, NO_REF)
    wp_with = win_prob(scenario_a, NON_BINDING)
    assert rep.prob_no_ref == pytest.approx(1.0 - wp_no, abs=1e-12)
    assert rep.prob_with_ref == pytest.approx(1.0 - wp_with, abs=1e-12)
    assert rep.delta == pytest.approx(-net_benefit(scenario_a, NON_BINDING), abs=1e-9)
    # FROZEN complements of the scenario A win probabilities.
    assert rep.prob_no_ref == pytest.approx(1.0 - 0.4312868827503117, abs=1e-8)
    assert rep.prob_with_ref == pytest.approx(1.0 - 0.44589834351968965, abs=1e-8)


def test_traditional_tracks_majority_right(scenario_a):
    flipped = replace(scenario_a, r=0.55)
    rep = traditional_issue_congruence(flipped, NON_BINDING)
    assert rep.prob_no_ref == pytest.approx(
        win_prob(flipped, NO_REF), abs=1e-12
    )
    assert rep.delta == pytest.approx(net_benefit(flipped, NON_BINDING), abs=1e-9)
    assert rep.flags == ()


def test_traditional_saturated_figg_cell_frozen():
    # The figg cell b_R=-0.36, r=0.70: mu = 0.7 > 1/2, so the clamped win map
    # saturates and has a kink inside the middle interval that is not a panel
    # boundary. FROZEN scipy quad (perfbench/reference.json): -0.04920599459504249,
    # held to 1x the requested tolerance at the default config.
    params = ElectorateParams(
        r=0.70, mu=0.7, p=1.0, b_L=-1.0, b_R=-0.36,
        taste=DistributionSpec("logistic", 1.0),
        shock=DistributionSpec("normal", 0.5),
    )
    frozen = -0.04920599459504249
    delta = traditional_issue_congruence(params, NON_BINDING).delta
    assert abs(delta - frozen) <= 1e-10 + 1e-8 * max(abs(frozen), 1.0)


def test_traditional_knife_edge_is_flagged_and_has_no_delta(scenario_a):
    # At r = 1/2 neither party holds the majority: the report keeps the
    # Right-as-majority convention under a flag, and traditional_delta is
    # None instead of picking one.
    tied = replace(scenario_a, r=0.5)
    rep = traditional_issue_congruence(tied, NON_BINDING)
    assert rep.flags == (KNIFE_EDGE_FLAG,)
    assert rep.delta is None
    assert rep.prob_no_ref == win_prob(tied, NO_REF)
    assert rep.prob_with_ref == win_prob(tied, NON_BINDING)
    assert traditional_delta(tied, NON_BINDING) is None


@pytest.mark.parametrize("r", [0.45, 0.55])
@pytest.mark.parametrize("regime", [BINDING, NON_BINDING])
def test_traditional_delta_is_the_report_delta_off_the_knife_edge(scenario_a, r, regime):
    params = replace(scenario_a, r=r)
    assert traditional_delta(params, regime) == (
        traditional_issue_congruence(params, regime).delta
    )


@pytest.mark.parametrize("r", [0.45, 0.5, 0.55])
@pytest.mark.parametrize("regime", [BINDING, NON_BINDING])
def test_traditional_report_on_held_win_probabilities_is_the_integrated_one(
    scenario_a, r, regime
):
    params = replace(scenario_a, r=r)
    wp_no, wp_with = win_prob(params, NO_REF), win_prob(params, regime)
    gain = net_benefit(params, regime)
    assert traditional_report(r, regime, wp_no, wp_with, gain) == (
        traditional_issue_congruence(params, regime)
    )


def test_traditional_report_tracks_the_majority_party():
    # The delta is the gain, signed by the majority, not wp_with - wp_no.
    left = traditional_report(0.4, BINDING, 0.25, 0.5, 0.125)
    assert (left.prob_no_ref, left.prob_with_ref, left.delta) == (0.75, 0.5, -0.125)
    right = traditional_report(0.6, BINDING, 0.25, 0.5, 0.125)
    assert (right.prob_no_ref, right.prob_with_ref, right.delta) == (0.25, 0.5, 0.125)
    assert left.flags == right.flags == ()
    tied = traditional_report(0.5, BINDING, 0.25, 0.5, 0.125)
    assert (tied.prob_no_ref, tied.prob_with_ref, tied.delta) == (0.25, 0.5, None)
    assert tied.flags == (KNIFE_EDGE_FLAG,)
    # Left's delta of a zero gain is +0.0, which prints as 0, not -0.
    assert str(traditional_report(0.4, BINDING, 0.25, 0.25, 0.0).delta) == "0.0"


def test_traditional_delta_validates_on_the_knife_edge(scenario_a):
    # The knife edge skips the integrals, not the checks.
    tied = replace(scenario_a, r=0.5)
    with pytest.raises(UsageError, match="post_referendum"):
        traditional_delta(tied, NO_REF)
    with pytest.raises(InvalidParamsError, match="bias ordering"):
        traditional_delta(replace(tied, b_L=0.1), NON_BINDING)


def test_region_map_flags_match_deltas(scenario_a):
    cells = classify_congruence_region(
        scenario_a, b_R_values=[-0.3, 0.2], r_values=[0.45, 0.5, 0.55]
    )
    assert len(cells) == 6
    # Row-major, b_R outer.
    assert [c.b_R for c in cells] == [-0.3, -0.3, -0.3, 0.2, 0.2, 0.2]
    for cell in cells:
        if cell.r == 0.5:
            assert cell.region_flag == "knife_edge"
            assert cell.delta_traditional is None
            continue
        expected = {
            (True, True): "both_negative",
            (True, False): "second_negative",
            (False, True): "traditional_negative",
            (False, False): "none_negative",
        }[(cell.delta_second < 0, cell.delta_traditional < 0)]
        assert cell.region_flag == expected
        # Spot-check one cell against the direct computations.
    probe = replace(scenario_a, b_R=0.2, r=0.55)
    direct2 = second_issue_congruence(probe, NON_BINDING).delta
    directt = traditional_issue_congruence(probe, NON_BINDING).delta
    match = [c for c in cells if c.b_R == 0.2 and c.r == 0.55][0]
    assert match.delta_second == pytest.approx(direct2, abs=1e-12)
    assert match.delta_traditional == pytest.approx(directt, abs=1e-12)


# Both congruence deltas are sums of a handful of integrals, each accepted
# within the declared absolute tolerance at scale 1, so an identity that is
# exact in exact arithmetic holds within a small multiple of it.
DELTA_BOUND = 10 * DEFAULT_QUADRATURE.abs_tol


@pytest.mark.parametrize("regime", [BINDING, NON_BINDING])
@pytest.mark.parametrize("params", diverged_draws(16, seed=26))
def test_both_deltas_are_invariant_under_the_party_mirror(params, regime):
    deltas = []
    for electorate in (params, mirror(params)):
        with memo():
            deltas.append((
                second_delta(electorate, regime), traditional_delta(electorate, regime)))
    (second, trad), (second_m, trad_m) = deltas
    assert abs(second - second_m) <= DELTA_BOUND
    assert abs(trad - trad_m) <= DELTA_BOUND


def test_the_mirror_draws_reach_the_saturated_win_map():
    # The draws above would not test the kinks' mirror if none saturated.
    saturated = [p for p in diverged_draws(16, seed=26) if split_at_kinks(p, None, None)]
    assert len(saturated) >= 5


@pytest.mark.parametrize("regime", [BINDING, NON_BINDING])
@pytest.mark.parametrize("b_R", [0.3, -0.1], ids=["diverged", "aligned"])
@pytest.mark.parametrize("mu, r", [(0.5, 0.45), (0.9, 0.52)], ids=["interior", "saturated"])
def test_each_delta_is_the_difference_of_its_report_levels(scenario_a, regime, b_R, mu, r):
    # One point per (regime, start) branch of the changed pieces, each also
    # where the win map saturates.
    params = replace(scenario_a, b_R=b_R, mu=mu, r=r)
    second = second_issue_congruence(params, regime)
    trad = traditional_issue_congruence(params, regime)
    assert second.delta == second_delta(params, regime)
    assert trad.delta == traditional_delta(params, regime)
    assert abs(second.delta - (second.prob_with_ref - second.prob_no_ref)) <= DELTA_BOUND
    assert abs(trad.delta - (trad.prob_with_ref - trad.prob_no_ref)) <= DELTA_BOUND


def test_second_delta_is_exactly_zero_where_both_tails_saturate(scenario_a):
    # A non-binding referendum changes only the tails of this diverged start.
    # At mu = 0.9 the win map sits at 0 on the whole left tail and at 1 on
    # the whole right one, so the majority's party wins there with the
    # referendum or without it: the delta is 0.0, not rounding noise whose
    # sign the region flag would read.
    params = replace(scenario_a, mu=0.9, r=0.52)
    assert split_at_kinks(params, None, -0.3) == ((None, -0.3, 0.0),)
    assert split_at_kinks(params, 0.5, None) == ((0.5, None, 1.0),)
    assert second_issue_congruence(params, NON_BINDING).delta == 0.0
    assert second_delta(params, NON_BINDING) == 0.0


# The region grid of the next two tests: b_R -0.1 is an aligned start and 0.3
# a diverged one, and r lies below, at and above 1/2, so with both regimes
# every (regime, start) branch of congruence._deltas is read.
CORE_B_R, CORE_R = (-0.1, 0.3), (0.46, 0.5, 0.54)


@pytest.mark.parametrize("regime", [BINDING, NON_BINDING])
@pytest.mark.parametrize("family", ["normal", "logistic"])
@pytest.mark.parametrize("mu", [0.5, 0.7, 0.9], ids=["interior", "saturated_0.7", "saturated_0.9"])
def test_each_region_cell_holds_its_reports_deltas(scenario_a, regime, family, mu):
    params = replace(scenario_a, mu=mu, taste=DistributionSpec(family, 0.2))
    cells = classify_congruence_region(params, CORE_B_R, CORE_R, regime)
    assert [(c.b_R, c.r) for c in cells] == [(b_R, r) for b_R in CORE_B_R for r in CORE_R]
    for cell in cells:
        electorate = replace(params, b_R=cell.b_R, r=cell.r)
        second = second_issue_congruence(electorate, regime)
        assert abs(cell.delta_second - (second.prob_with_ref - second.prob_no_ref)) <= DELTA_BOUND
        assert cell.delta_second == second.delta == second_delta(electorate, regime)
        assert (second.prob_no_ref, second.prob_with_ref) == second_issue_levels(electorate, regime)
        # The core's traditional half is traditional_delta's double.
        assert (cell.delta_traditional is None) == (cell.r == 0.5)
        assert cell.delta_traditional == traditional_delta(electorate, regime)
        assert cell.region_flag == _region_flag(cell.delta_second, cell.delta_traditional)


def test_the_region_cells_reach_the_saturated_win_map(scenario_a):
    # Above mu = 1/2 the whole line and both tails of every cell above
    # saturate; at 0.9 the aligned start's split piece [0.1, 0.5] does too.
    for family in ("normal", "logistic"):
        for mu in (0.5, 0.7, 0.9):
            for b_R in CORE_B_R:
                for r in CORE_R:
                    params = replace(
                        scenario_a, mu=mu, b_R=b_R, r=r, taste=DistributionSpec(family, 0.2))
                    assert (
                        bool(split_at_kinks(params, None, None))
                        == bool(split_at_kinks(params, None, -b_R))
                        == bool(split_at_kinks(params, 0.5, None))
                        == (mu > 0.5)
                    )
                    if b_R < 0:
                        assert bool(split_at_kinks(params, -b_R, 0.5)) == (mu == 0.9)
