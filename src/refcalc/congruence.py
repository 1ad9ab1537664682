"""Congruence: does the implemented policy match the policy-voter majority?

Separately for each issue, these functions compute the ex-ante probability
that the policy actually implemented after the election equals the one a
majority of policy voters prefers, with and without a referendum, and the
delta between the two. Holding a referendum can move congruence in either
direction; the region classifier maps out where it falls on each issue.

The levels come from _levels and both deltas from _deltas. Each states the
four (regime, start) branches once, from one gamma* and from election._wins,
the one reader of a race piece. _deltas reads the race only on the shock
pieces whose positions the regime changes, so a delta may differ from the
difference of the two levels in the last digit. With W Right's win integral
over a piece (over the whole line where no piece is named), G the shock cdf
and gamma* the pivotal shock, the levels without and with the referendum,
and the delta, are:

* non-binding, diverged start (b_R >= 0): G(gamma*) - 2 W(-inf, gamma*] + W
  and G(gamma*) - 2 W[-b_R, gamma*] + W[-b_R, -b_L] + 1 - G(-b_L), as both
  tails are congruent and the split piece is left to the election; the
  delta reads only the two tails, where the parties move to the majority's
  side: W below -b_R plus the mass less W above -b_L, without gamma*;
* non-binding, aligned start: G(gamma*) and the same level with the
  referendum; the delta reads the split piece [-b_R, -b_L] and
  [-b_R, gamma*]: 1 - G(-b_L) + W[-b_R, -b_L] - 2 W[-b_R, gamma*];
* binding, diverged start: G(gamma*) - 2 W(-inf, gamma*] + W and 1; the
  delta reads the whole line and (-inf, gamma*], as (-inf, -b_R] and
  [-b_R, gamma*]: 1 - (G(gamma*) - 2 W(-inf, gamma*] + W);
* binding, aligned start: G(gamma*) and 1; the delta reads nothing:
  1 - G(gamma*).

delta_traditional is Right's net benefit, signed by the traditional
majority: the gaps of the same reads, the doubles net_benefit sums, in its
order. traditional_delta computes it from net_benefit alone, so a caller that
wants only it pays no gamma*. Every read goes through the kernels
quadrature.memo() keeps, so within one command the levels and the delta
integrate the [-b_R, gamma*] pair once.

Majority conventions. On the emerging issue the majority preference flips at
the pivotal shock gamma_star; the zero-measure boundary point is counted on
the y=1 side. On the traditional issue the majority party is Right when
r > 1/2 and Left when r < 1/2; at exactly r = 1/2 (knife_edge) there is no
strict majority, so the report is flagged and its delta, like
traditional_delta, is None instead of picking a convention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .election import _wins, net_benefit, win_prob
from .model import ElectorateParams, ReferendumRegime, require_regime, require_valid
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .thresholds import gamma_star

ISSUE_TRADITIONAL = "traditional"
ISSUE_SECOND = "second"

KNIFE_EDGE_FLAG = "knife_edge_majority"


@dataclass(frozen=True)
class CongruenceReport:
    """Congruence probabilities for one issue, without and with a referendum.

    delta is prob_with_ref - prob_no_ref, computed from what the referendum
    changes (second_delta, traditional_delta), so it may differ from that
    difference in the last digit. On the traditional issue at r = 1/2 the
    probabilities use the Right-as-majority convention, the report carries
    KNIFE_EDGE_FLAG, and delta is None.
    """

    issue: str
    regime: ReferendumRegime
    prob_no_ref: float
    prob_with_ref: float
    delta: float | None
    flags: tuple[str, ...] = ()


def knife_edge(r: float) -> bool:
    """True at r = 1/2, where neither party holds the traditional majority."""
    return r == 0.5


def _win_below(params, lo, gs, config):
    # Right's win over [lo, gamma_star], lo -b_R or -inf: the read of
    # [-b_R, gamma_star], plus from -inf the left tail's read.
    w = _wins(params, -params.b_R, gs, config)[0]
    if lo is None:
        w = _wins(params, None, -params.b_R, config)[0] + w
    return w


def _levels(params, regime, config):
    # (prob_no_ref, prob_with_ref) of the emerging issue, from one
    # gamma_star; the module docstring lists each branch's reads.
    b_L, b_R, G = params.b_L, params.b_R, params.shock.cdf
    gs = gamma_star(params).value
    no_ref = g_gs = G(gs)
    if b_R >= 0:
        w_below = _win_below(params, None, gs, config)
        no_ref = g_gs - 2.0 * w_below + _wins(params, None, None, config)[0]
    if regime is ReferendumRegime.BINDING:
        return no_ref, 1.0
    # Summed piece by piece in shock order: the left tail's mass g_R, the
    # split piece's g_gs - g_R - 2 W[-b_R, gamma_star] + W[-b_R, -b_L], and
    # the right tail's 1 - G(-b_L). Cancelling g_R would move the level by
    # a few ulps.
    g_R, w_below = G(-b_R), _win_below(params, -b_R, gs, config)
    w_split = _wins(params, -b_R, -b_L, config)[0]
    return no_ref, g_R + g_gs - g_R - 2.0 * w_below + w_split + 1.0 - G(-b_L)


def _deltas(params, regime, config):
    # (delta_second, delta_traditional), validated once, from one _wins read
    # of each piece whose positions the regime changes; the module docstring
    # lists each branch's pieces. Every branch but a diverged start under
    # non_binding computes gamma_star. The traditional gain is summed as
    # net_benefit sums its moved pieces, from 0.0, so it is net_benefit's
    # double.
    require_valid(params)
    require_regime(regime, "post_referendum")
    b_L, b_R, G = params.b_L, params.b_R, params.shock.cdf
    if regime is ReferendumRegime.NON_BINDING and b_R >= 0:
        w_left, gap_left = _wins(params, None, -b_R, config)
        w_right, gap_right = _wins(params, -b_L, None, config)
        second = w_left + (1.0 - G(-b_L) - w_right)
        gain = 0.0 + gap_left + gap_right
    elif regime is ReferendumRegime.NON_BINDING:
        w_split, gap_split = _wins(params, -b_R, -b_L, config)
        gs = gamma_star(params).value
        second = 1.0 - G(-b_L) + w_split - 2.0 * _win_below(params, -b_R, gs, config)
        gain = 0.0 - gap_split
    elif b_R >= 0:
        w_line, gap_line = _wins(params, None, None, config)
        gs = gamma_star(params).value
        second = 1.0 - (G(gs) - 2.0 * _win_below(params, None, gs, config) + w_line)
        gain = 0.0 + gap_line
    else:
        second, gain = 1.0 - G(gamma_star(params).value), 0.0
    return second, _majority_delta(params.r, gain)


def second_delta(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """second_issue_congruence's delta, without its levels.

    The first half of _deltas: it reads the race once on each piece whose
    positions the regime changes (the module docstring lists them per
    regime and start). From a diverged start (b_R >= 0) a non-binding
    referendum changes only the tails, so it needs no gamma_star, and its
    kernels do not move with r. Only a regime that splits the parties across
    gamma_star (binding from a diverged start, non-binding from an aligned
    one) reads the piece [-b_R, gamma_star].
    """
    return _deltas(params, regime, config)[0]


def second_issue_levels(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """second_issue_congruence's prob_no_ref and prob_with_ref, without its
    delta, for a caller that prints only the levels."""
    require_valid(params)
    require_regime(regime, "post_referendum")
    return _levels(params, regime, config)


def second_issue_congruence(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> CongruenceReport:
    """Probability the implemented emerging policy matches the majority.

    Stated per (regime, start) branch, as the module docstring lists them,
    from one gamma_star (_levels). Where the parties agree on y=0 the
    outcome is congruent exactly when the shock stays below gamma_star; where
    they diverge, congruence requires the right-sided party to win on the
    right side of gamma_star. A binding referendum makes the match certain. A
    non-binding one realigns positions with the shock, which helps in the
    tails (both parties end up on the majority side) but still leaves the
    middle interval to the election, now with gamma_star interior to it.
    The delta is second_delta's. Each computes gamma_star; within
    quadrature.memo() they share the kernels over [-b_R, gamma_star].
    """
    delta = _deltas(params, regime, config)[0]
    return CongruenceReport(ISSUE_SECOND, regime, *_levels(params, regime, config), delta)


def traditional_issue_congruence(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> CongruenceReport:
    """Probability the majority party wins the election.

    The referendum never moves any platform on the traditional issue; it
    matters here only through how realigned emerging-issue positions shift
    the win probability. With r > 1/2 the report tracks Right's win
    probability, with r < 1/2 Left's; at r = 1/2 Right's, flagged with
    KNIFE_EDGE_FLAG and with delta None (see traditional_report).
    """
    require_valid(params)
    require_regime(regime, "post_referendum")
    wp_no = win_prob(params, ReferendumRegime.NO_REFERENDUM, config)
    wp_with = win_prob(params, regime, config)
    return traditional_report(params.r, regime, wp_no, wp_with, net_benefit(params, regime, config))


def _majority_delta(r, gain):
    # Right's net benefit as the traditional majority's gain: itself where
    # Right holds the majority, 0.0 - gain (a zero gain stays +0.0) where
    # Left does, None on the knife edge.
    if knife_edge(r):
        return None
    return gain if r > 0.5 else 0.0 - gain


def traditional_report(
    r: float, regime: ReferendumRegime, wp_no: float, wp_with: float, gain: float
) -> CongruenceReport:
    """The traditional-issue report from Right's win probabilities without
    (wp_no) and with (wp_with) the referendum and Right's net benefit (gain),
    for a caller that already holds them. delta is traditional_delta's: the
    gain signed by the majority, and None on the r = 1/2 knife edge."""
    delta = _majority_delta(r, gain)
    if r < 0.5:
        return CongruenceReport(ISSUE_TRADITIONAL, regime, 1.0 - wp_no, 1.0 - wp_with, delta)
    flags = (KNIFE_EDGE_FLAG,) if delta is None else ()
    return CongruenceReport(ISSUE_TRADITIONAL, regime, wp_no, wp_with, delta, flags)


def traditional_delta(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float | None:
    """The traditional congruence delta: the majority party's gain in win
    probability, so net_benefit where Right holds the majority (r > 1/2) and
    minus it where Left does. None on the r = 1/2 knife edge, which is
    validated but not integrated."""
    if knife_edge(params.r):
        require_valid(params)
        require_regime(regime, "post_referendum")
        return None
    return _majority_delta(params.r, net_benefit(params, regime, config))


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
    Both deltas of a cell come from one read of each moved piece (_deltas):
    delta_second is second_delta's and delta_traditional traditional_delta's.
    """
    require_regime(regime, "post_referendum")
    cells = []
    for b_R in b_R_values:
        for r in r_values:
            cell_params = replace(params, b_R=float(b_R), r=float(r))
            d2, dt = _deltas(cell_params, regime, config)
            cells.append(RegionCell(float(b_R), float(r), d2, dt, _region_flag(d2, dt)))
    return cells
