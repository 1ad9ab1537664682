"""Congruence: does the implemented policy match the policy-voter majority?

Separately for each issue, these functions compute the ex-ante probability
that the policy actually implemented after the election equals the one a
majority of policy voters prefers, with and without a referendum, and the
delta between the two. Holding a referendum can move congruence in either
direction; the region classifier maps out where it falls on each issue.

Majority conventions. On the emerging issue the majority preference flips at
the pivotal shock gamma_star; the zero-measure boundary point is counted on
the y=1 side. On the traditional issue the majority party is Right when
r > 1/2 and Left when r < 1/2; at exactly r = 1/2 there is no strict
majority, so reports carry both conventions and a knife-edge flag instead of
picking one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .election import win_given_diverged, win_prob
from .model import (
    ElectorateParams,
    ReferendumRegime,
    initial_positions,
    require_regime,
    require_valid,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .thresholds import gamma_star

ISSUE_TRADITIONAL = "traditional"
ISSUE_SECOND = "second"

KNIFE_EDGE_FLAG = "knife_edge_majority"


@dataclass(frozen=True)
class CongruenceReport:
    """Congruence probabilities for one issue, without and with a referendum.

    delta = prob_with_ref - prob_no_ref. The alt_* fields are populated only
    on the traditional issue at r = 1/2, where the main fields use the
    Right-as-majority convention and the alternates the Left one.
    """

    issue: str
    regime: ReferendumRegime
    prob_no_ref: float
    prob_with_ref: float
    delta: float
    flags: tuple[str, ...] = ()
    alt_prob_no_ref: float | None = None
    alt_prob_with_ref: float | None = None
    alt_delta: float | None = None


def _lose_given_diverged(params, lo, hi, config):
    # P(Left wins and the shock lies in [lo, hi]), positions diverged there.
    G = params.shock.cdf
    mass = (1.0 if hi is None else G(hi)) - (0.0 if lo is None else G(lo))
    return mass - win_given_diverged(params, lo, hi, config)


def second_issue_congruence(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> CongruenceReport:
    """Probability the implemented emerging policy matches the majority.

    Without a referendum: if the parties agree on y=0, the outcome is
    congruent exactly when the shock stays below gamma_star; if they diverge,
    congruence requires the right-sided party to win on the right side of
    gamma_star. A binding referendum makes the match certain. A non-binding
    one realigns positions with the shock, which helps in the tails (both
    parties end up on the majority side) but still leaves the middle interval
    to the election, now with gamma_star interior to it.
    """
    require_valid(params)
    require_regime(regime, "post_referendum")
    gs = gamma_star(params).value
    G = params.shock.cdf

    if initial_positions(params).diverged:
        no_ref = _lose_given_diverged(params, None, gs, config) + win_given_diverged(
            params, gs, None, config
        )
    else:
        no_ref = G(gs)

    if regime is ReferendumRegime.BINDING:
        with_ref = 1.0
    else:
        with_ref = (
            G(-params.b_R)
            + _lose_given_diverged(params, -params.b_R, gs, config)
            + win_given_diverged(params, gs, -params.b_L, config)
            + 1.0
            - G(-params.b_L)
        )

    return CongruenceReport(
        ISSUE_SECOND, regime, no_ref, with_ref, with_ref - no_ref
    )


def traditional_issue_congruence(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> CongruenceReport:
    """Probability the majority party wins the election.

    The referendum never moves any platform on the traditional issue; it
    matters here only through how realigned emerging-issue positions shift
    the win probability. With r > 1/2 the report tracks Right's win
    probability, with r < 1/2 Left's; at r = 1/2 both conventions are
    reported and flagged.
    """
    require_valid(params)
    require_regime(regime, "post_referendum")
    wp_no = win_prob(params, ReferendumRegime.NO_REFERENDUM, config)
    wp_with = win_prob(params, regime, config)

    if params.r > 0.5:
        return CongruenceReport(
            ISSUE_TRADITIONAL, regime, wp_no, wp_with, wp_with - wp_no
        )
    if params.r < 0.5:
        return CongruenceReport(
            ISSUE_TRADITIONAL,
            regime,
            1.0 - wp_no,
            1.0 - wp_with,
            wp_no - wp_with,
        )
    return CongruenceReport(
        ISSUE_TRADITIONAL,
        regime,
        wp_no,
        wp_with,
        wp_with - wp_no,
        flags=(KNIFE_EDGE_FLAG,),
        alt_prob_no_ref=1.0 - wp_no,
        alt_prob_with_ref=1.0 - wp_with,
        alt_delta=wp_no - wp_with,
    )


@dataclass(frozen=True)
class RegionCell:
    """One grid cell of the congruence map; delta_traditional is None on the
    r = 1/2 knife edge."""

    b_R: float
    r: float
    delta_second: float
    delta_traditional: float | None
    region_flag: str


def _region_flag(delta_second, delta_traditional):
    if delta_traditional is None:
        return "knife_edge"
    second_neg = delta_second < 0
    trad_neg = delta_traditional < 0
    if second_neg and trad_neg:
        return "both_negative"
    if second_neg:
        return "second_negative"
    if trad_neg:
        return "traditional_negative"
    return "none_negative"


def classify_congruence_region(
    params: ElectorateParams,
    b_R_values,
    r_values,
    regime: ReferendumRegime = ReferendumRegime.NON_BINDING,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list[RegionCell]:
    """Sign map of both congruence deltas over a (b_R, r) grid.

    Remaining primitives are taken from params. Cells are emitted row-major,
    b_R outer, r inner. Cells at exactly r = 1/2 get the knife_edge flag and
    an empty traditional delta rather than an arbitrary majority convention.
    """
    require_regime(regime, "post_referendum")
    cells = []
    for b_R in b_R_values:
        for r in r_values:
            cell_params = replace(params, b_R=float(b_R), r=float(r))
            d2 = second_issue_congruence(cell_params, regime, config).delta
            if r == 0.5:
                dt = None
            else:
                dt = traditional_issue_congruence(cell_params, regime, config).delta
            cells.append(
                RegionCell(float(b_R), float(r), d2, dt, _region_flag(d2, dt))
            )
    return cells
