"""Congruence between implemented policy and the policy-voter majority."""
from __future__ import annotations

from dataclasses import replace

import pytest

from refcalc.congruence import (
    KNIFE_EDGE_FLAG,
    classify_congruence_region,
    second_issue_congruence,
    traditional_delta,
    traditional_issue_congruence,
    traditional_report,
)
from refcalc.election import net_benefit, win_prob
from refcalc.errors import InvalidParamsError, UsageError
from refcalc.model import DistributionSpec, ElectorateParams, ReferendumRegime

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
    assert traditional_report(r, regime, wp_no, wp_with) == (
        traditional_issue_congruence(params, regime)
    )


def test_traditional_report_tracks_the_majority_party():
    left = traditional_report(0.4, BINDING, 0.25, 0.5)
    assert (left.prob_no_ref, left.prob_with_ref, left.delta) == (0.75, 0.5, -0.25)
    right = traditional_report(0.6, BINDING, 0.25, 0.5)
    assert (right.prob_no_ref, right.prob_with_ref, right.delta) == (0.25, 0.5, 0.25)
    assert left.flags == right.flags == ()
    tied = traditional_report(0.5, BINDING, 0.25, 0.5)
    assert (tied.prob_no_ref, tied.prob_with_ref, tied.delta) == (0.25, 0.5, None)
    assert tied.flags == (KNIFE_EDGE_FLAG,)


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
