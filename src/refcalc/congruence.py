"""Congruence: does the implemented policy match the policy-voter majority?

Separately for each issue, these functions compute the ex-ante probability
that the policy actually implemented after the election equals the one a
majority of policy voters prefers, with and without a referendum, and the
delta between the two. Holding a referendum can move congruence in either
direction; the region classifier maps out where it falls on each issue.

The level without a referendum comes from _no_ref and both deltas from
_deltas, each from one gamma* and from election._wins, the one reader of a
race piece. With W Right's win integral over a piece (over the whole line
where no piece is named), G the shock cdf and gamma* the pivotal shock, the
level without the referendum is G(gamma*) from an aligned start (b_R < 0)
and G(gamma*) - 2 W(-inf, gamma*] + W from a diverged one (b_R >= 0). A
binding referendum makes the level with it 1, so its delta is 1 minus that
level, and its traditional gain is the gap of _no_ref's whole-line read (0
from an aligned start, where nothing moves). A non-binding one leaves the
split piece [-b_R, -b_L] to the election, and its delta reads the race only
on the pieces whose positions it changes:

* diverged start: the two tails, where the parties move to the majority's
  side: W below -b_R plus the mass less W above -b_L, without gamma*;
* aligned start: the split piece and [-b_R, gamma*]:
  1 - G(-b_L) + W[-b_R, -b_L] - 2 W[-b_R, gamma*].

Its level with the referendum is the level without it plus that delta, so
the two levels of a report differ by its delta up to one rounding.

delta_traditional is Right's net benefit, signed by the traditional
majority: the gaps of the same reads, the doubles net_benefit sums, in its
order. traditional_delta computes it from net_benefit alone, so a caller that
wants only it pays no gamma*. Every read goes through the kernels
quadrature.memo() keeps, so within one command the level and the delta
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
    changes (second_delta, traditional_delta). On the emerging issue
    prob_with_ref is 1.0 under a binding referendum, where delta is
    1.0 - prob_no_ref, and prob_no_ref + delta under a non-binding one. On
    the traditional issue, at r = 1/2 the probabilities use the
    Right-as-majority convention, the report carries KNIFE_EDGE_FLAG, and
    delta is None.
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


def _no_ref(params, config):
    # (prob_no_ref, line) of the emerging issue, from one gamma_star: G(gamma*)
    # from an aligned start, G(gamma*) - 2 W(-inf, gamma*] + W from a
    # diverged one, with line the whole-line _wins read (None when aligned),
    # whose gap is the binding referendum's gain.
    b_R, gs = params.b_R, gamma_star(params).value
    level = params.shock.cdf(gs)
    if b_R < 0:
        return level, None
    w_below = _wins(params, -b_R, gs, config)[0] + _wins(params, None, -b_R, config)[0]
    line = _wins(params, None, None, config)
    return level - 2.0 * w_below + line[0], line


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
    if regime is ReferendumRegime.BINDING:
        no_ref, line = _no_ref(params, config)
        second, gain = 1.0 - no_ref, 0.0 if line is None else line[1]
    elif b_R >= 0:
        w_left, gap_left = _wins(params, None, -b_R, config)
        w_right, gap_right = _wins(params, -b_L, None, config)
        second = w_left + (1.0 - G(-b_L) - w_right)
        gain = 0.0 + gap_left + gap_right
    else:
        w_split, gap_split = _wins(params, -b_R, -b_L, config)
        gs = gamma_star(params).value
        second = 1.0 - G(-b_L) + w_split - 2.0 * _wins(params, -b_R, gs, config)[0]
        gain = 0.0 - gap_split
    return second, _majority_delta(params.r, gain)


def second_delta(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """second_issue_congruence's delta, without its levels.

    The first half of _deltas. Under a binding referendum it is 1 minus the
    level without it, which from a diverged start (b_R >= 0) reads the whole
    line, (-inf, -b_R] and [-b_R, gamma_star]. A non-binding referendum reads
    the race once on each piece whose positions it changes (the module
    docstring lists them per start): from a diverged start only the tails, so
    it needs no gamma_star and its kernels do not move with r; from an
    aligned one the split piece and [-b_R, gamma_star].
    """
    return _deltas(params, regime, config)[0]


def second_issue_congruence(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> CongruenceReport:
    """Probability the implemented emerging policy matches the majority.

    Where the parties agree on y=0 the outcome is congruent exactly when the
    shock stays below gamma_star; where they diverge, congruence requires the
    right-sided party to win on the right side of gamma_star. That level
    without the referendum is stated once (_no_ref). A binding referendum
    makes the match certain: prob_with_ref is 1.0 and delta 1.0 minus the
    level. A non-binding one realigns positions with the shock, which helps
    in the tails (both parties end up on the majority side) but still leaves
    the middle interval to the election, now with gamma_star interior to it:
    delta is second_delta's and prob_with_ref prob_no_ref + delta. Within
    quadrature.memo() the level and the delta share the kernels over
    [-b_R, gamma_star].
    """
    require_valid(params)
    require_regime(regime, "post_referendum")
    no_ref = _no_ref(params, config)[0]
    if regime is ReferendumRegime.BINDING:
        return CongruenceReport(ISSUE_SECOND, regime, no_ref, 1.0, 1.0 - no_ref)
    delta = _deltas(params, regime, config)[0]
    return CongruenceReport(ISSUE_SECOND, regime, no_ref, no_ref + delta, delta)


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
    KNIFE_EDGE_FLAG. Right's win probability with the referendum is the one
    without it plus net_benefit, and delta is traditional_delta's: that gain
    signed by the majority, and None on the knife edge.
    """
    require_valid(params)
    require_regime(regime, "post_referendum")
    wp_no = win_prob(params, ReferendumRegime.NO_REFERENDUM, config)
    return _traditional(params.r, regime, wp_no, net_benefit(params, regime, config))


def _traditional(r, regime, wp_no, gain):
    # The traditional report at share r from Right's win probability without
    # the referendum and its gain from it, the two terms of its win
    # probability with it.
    wp_with, delta = wp_no + gain, _majority_delta(r, gain)
    if r < 0.5:
        return CongruenceReport(ISSUE_TRADITIONAL, regime, 1.0 - wp_no, 1.0 - wp_with, delta)
    flags = (KNIFE_EDGE_FLAG,) if delta is None else ()
    return CongruenceReport(ISSUE_TRADITIONAL, regime, wp_no, wp_with, delta, flags)


def _majority_delta(r, gain):
    # Right's net benefit as the traditional majority's gain: itself where
    # Right holds the majority, 0.0 - gain (a zero gain stays +0.0) where
    # Left does, None on the knife edge.
    if knife_edge(r):
        return None
    return gain if r > 0.5 else 0.0 - gain


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
