"""Congruence: does the implemented policy match the policy-voter majority?

Separately for each issue, these functions compute the ex-ante probability
that the policy actually implemented after the election equals the one a
majority of policy voters prefers, with and without a referendum, and the
delta between the two. Holding a referendum can move congruence in either
direction; the region classifier maps out where it falls on each issue.

Both deltas come from one core, _deltas, which reads the race once on each
shock piece whose positions the regime changes (election._wins) and takes
both deltas from those reads, so each may differ from the difference of the
two levels in the last digit. With W Right's win integral over a piece, G the
shock cdf and gamma* the pivotal shock, each (regime, start) branch reads:

* non-binding, diverged start (b_R >= 0): the two tails, where the parties
  move to the majority's side; delta_second is W below -b_R plus the mass
  less W above -b_L, with neither gamma* nor a fresh kernel;
* non-binding, aligned start: the split piece [-b_R, -b_L] and
  [-b_R, gamma*], over the fresh kernel pair; delta_second is
  1 - G(-b_L) + W[-b_R, -b_L] - 2 W[-b_R, gamma*];
* binding, diverged start: the whole line and (-inf, gamma*]; delta_second
  is 1 - (G(gamma*) - 2 W(-inf, gamma*] + W);
* binding, aligned start: nothing; delta_second is 1 - G(gamma*).

delta_traditional is Right's net benefit, signed by the traditional
majority: the gaps of the same reads, the doubles net_benefit sums, in its
order. traditional_delta computes it from net_benefit alone, so a caller that
wants only it pays no gamma*.

Majority conventions. On the emerging issue the majority preference flips at
the pivotal shock gamma_star; the zero-measure boundary point is counted on
the y=1 side. On the traditional issue the majority party is Right when
r > 1/2 and Left when r < 1/2; at exactly r = 1/2 (knife_edge) there is no
strict majority, so the report is flagged and its delta, like
traditional_delta, is None instead of picking a convention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .election import _wins, net_benefit, win_given_diverged, win_prob
from .model import (
    ElectorateParams,
    ReferendumRegime,
    cdf_ends,
    require_regime,
    require_valid,
    shock_pieces,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .thresholds import _fresh_kernels, _kernels, gamma_star

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


def _once(compute):
    # compute(), called at the first call only; every call returns its value.
    kept = []

    def value():
        if not kept:
            kept.append(compute())
        return kept[0]

    return value


def _pivot(params, config):
    """(gs, fresh): gs() is gamma_star and fresh() the kernels L and R over
    [-b_R, gamma_star], the one pair whose piece moves with r; each is
    computed when first called, and once."""
    gs = _once(lambda: gamma_star(params).value)
    fresh = _once(lambda: _fresh_kernels(
        params.b_L, params.b_R, params.p, params.taste, params.shock, -params.b_R, gs(), config
    ))
    return gs, fresh


def _win_below(params, lo, gs, fresh, config):
    # Right's win over [lo, gamma_star], lo -b_R or -inf: the fresh kernel
    # pair over [-b_R, gamma_star], plus the left tail's kept pair from -inf.
    fresh_L, fresh_R = fresh()
    if lo is None:
        tail = shock_pieces(params.b_L, params.b_R, ReferendumRegime.NON_BINDING)[:1]
        L, R = _kernels(params.b_L, params.b_R, params.p, params.taste, params.shock, tail, config)
        fresh_L, fresh_R = L + fresh_L, R + fresh_R
    return _wins(params, lo, gs(), config, (fresh_L, fresh_R))[0]


def _congruent(params, pieces, gs, fresh, config):
    # P(the implemented emerging policy is the majority's, y=1 iff the shock
    # is at least gamma_star), summed over pieces, one regime's
    # model.shock_pieces. gamma_star lies strictly inside (-b_R, -b_L), so a
    # piece that ends by -b_R lies below it and one that starts at -b_L
    # above it; the parties split only across it.
    G = params.shock.cdf
    total = 0.0
    for lo, hi, positions in pieces:
        if positions.diverged:
            # Left must win below gamma_star, Right above it: with W the win
            # integral over a piece, mass[lo, gs] - 2 W[lo, gs] + W[lo, hi].
            g_lo, g_gs = cdf_ends(G, lo, gs())
            w_below = _win_below(params, lo, gs, fresh, config)
            total = total + g_gs - g_lo - 2.0 * w_below + win_given_diverged(params, lo, hi, config)
            continue
        # Aligned at y: congruent where the majority wants y; a binding
        # majority is always wanted.
        below = hi is not None and hi <= -params.b_R
        above = lo is not None and lo >= -params.b_L
        y = positions.y_left
        if below or above:
            if y != (1 if above else 0):
                continue
        elif y == 0:
            hi = gs() if hi is None else min(hi, gs())
        elif y == 1:
            lo = gs() if lo is None else max(lo, gs())
        g_lo, g_hi = cdf_ends(G, lo, hi)
        total = total + g_hi - g_lo
    return total


def _levels(params, regime, gs, fresh, config):
    # (prob_no_ref, prob_with_ref) of the emerging issue.
    return tuple(
        _congruent(params, shock_pieces(params.b_L, params.b_R, reg), gs, fresh, config)
        for reg in (ReferendumRegime.NO_REFERENDUM, regime)
    )


def _deltas(params, regime, gs, fresh, config):
    # (delta_second, delta_traditional), validated once, from one _wins read
    # of each piece whose positions the regime changes; the module docstring
    # lists each branch's pieces. Only the branches that split the parties
    # across gamma_star call fresh(), and only they and an aligned start
    # under binding call gs() (_pivot). The traditional gain is summed as
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
        second = 1.0 - G(-b_L) + w_split - 2.0 * _win_below(params, -b_R, gs, fresh, config)
        gain = 0.0 - gap_split
    elif b_R >= 0:
        w_line, gap_line = _wins(params, None, None, config)
        second = 1.0 - (G(gs()) - 2.0 * _win_below(params, None, gs, fresh, config) + w_line)
        gain = 0.0 + gap_line
    else:
        second, gain = 1.0 - G(gs()), 0.0
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
    referendum changes only the tails, so it needs neither gamma_star nor a
    kernel quadrature.memo() does not keep. Only a regime that splits the
    parties across gamma_star (binding from a diverged start, non-binding
    from an aligned one) needs the fresh kernel pair over [-b_R, gamma_star].
    """
    return _deltas(params, regime, *_pivot(params, config), config)[0]


def second_issue_levels(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """second_issue_congruence's prob_no_ref and prob_with_ref, without its
    delta, for a caller that prints only the levels."""
    require_valid(params)
    require_regime(regime, "post_referendum")
    return _levels(params, regime, *_pivot(params, config), config)


def second_issue_congruence(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> CongruenceReport:
    """Probability the implemented emerging policy matches the majority.

    Summed over model.shock_pieces. Where the parties agree on y=0 the
    outcome is congruent exactly when the shock stays below gamma_star; where
    they diverge, congruence requires the right-sided party to win on the
    right side of gamma_star. A binding referendum makes the match certain. A
    non-binding one realigns positions with the shock, which helps in the
    tails (both parties end up on the majority side) but still leaves the
    middle interval to the election, now with gamma_star interior to it.
    The delta is second_delta's; it and the levels share gamma_star and the
    fresh kernel pair.
    """
    gs, fresh = _pivot(params, config)
    delta = _deltas(params, regime, gs, fresh, config)[0]
    return CongruenceReport(ISSUE_SECOND, regime, *_levels(params, regime, gs, fresh, config), delta)


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
            d2, dt = _deltas(cell_params, regime, *_pivot(cell_params, config), config)
            cells.append(RegionCell(float(b_R), float(r), d2, dt, _region_flag(d2, dt)))
    return cells
