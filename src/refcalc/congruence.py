"""Congruence: does the implemented policy match the policy-voter majority?

Separately for each issue, these functions compute the ex-ante probability
that the policy actually implemented after the election equals the one a
majority of policy voters prefers, with and without a referendum, and the
delta between the two. Holding a referendum can move congruence in either
direction; the region classifier maps out where it falls on each issue.

Each delta comes from what the referendum changes, so it may differ from
the difference of the two levels in the last digit: second_delta sums the
congruence with the referendum less without it over the shock pieces whose
positions the regime changes, and traditional_delta is Right's net
benefit, signed by the traditional majority.

Majority conventions. On the emerging issue the majority preference flips at
the pivotal shock gamma_star; the zero-measure boundary point is counted on
the y=1 side. On the traditional issue the majority party is Right when
r > 1/2 and Left when r < 1/2; at exactly r = 1/2 (knife_edge) there is no
strict majority, so the report is flagged and its delta, like
traditional_delta, is None instead of picking a convention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

from .election import _gap, _wins, lambda_win, net_benefit, win_given_diverged, win_prob
from .model import (
    ElectorateParams,
    ReferendumRegime,
    cdf_ends,
    initial_positions,
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


def _pivot(params, config):
    """(gs, fresh): gs() is gamma_star and fresh() the kernels L and R over
    [-b_R, gamma_star], the one pair whose piece moves with r; each is
    computed when first called, and once."""
    gs = cache(lambda: gamma_star(params).value)
    fresh = cache(lambda: _fresh_kernels(
        params.b_L, params.b_R, params.p, params.taste, params.shock, -params.b_R, gs(), config
    ))
    return gs, fresh


def _congruent(params, pieces, gs, fresh, config):
    # P(the implemented emerging policy is the majority's, y=1 iff the shock
    # is at least gamma_star, and the shock lies in one of pieces), entries
    # (lo, hi, positions) of model.shock_pieces. gamma_star lies strictly
    # inside (-b_R, -b_L), so a piece that ends by -b_R lies below it and one
    # that starts at -b_L above it; only a piece across that interval calls
    # gs() and fresh() (_pivot).
    G = params.shock.cdf
    total = 0.0
    for lo, hi, positions in pieces:
        below = hi is not None and hi <= -params.b_R
        above = lo is not None and lo >= -params.b_L
        if positions.diverged and (below or above):
            # Left (y=0) must win below gamma_star, Right (y=1) above it.
            right, left = _wins(params, lo, hi, config)
            total = total + (left if below else right)
            continue
        if positions.diverged:
            # gamma_star lies inside the split piece: Left must win below
            # it, Right above it. With W the win integral over a piece, that
            # is mass[lo, gs] - W[lo, gs] + W[gs, hi], where
            # W[gs, hi] = W[lo, hi] - W[lo, gs]. The piece starts at -b_R or
            # at -inf; there the kernels over [lo, gs] add the left tail's.
            tail = shock_pieces(params.b_L, params.b_R, ReferendumRegime.NON_BINDING)[:1]
            L, R = _kernels(
                params.b_L, params.b_R, params.p, params.taste, params.shock,
                tail if lo is None else (), config,
            )
            fresh_L, fresh_R = fresh()
            g_lo, g_gs = cdf_ends(G, lo, gs())
            w_below = (g_gs - g_lo) * lambda_win(params.r, params.mu) - _gap(
                params, lo, gs(), config, (L + fresh_L, R + fresh_R)
            )
            total = total + g_gs - g_lo - 2.0 * w_below + win_given_diverged(params, lo, hi, config)
            continue
        # Aligned at y: congruent where the majority wants y; a binding
        # majority is always wanted.
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


def _second_delta(params, regime, gs, fresh, config):
    # The congruence with the referendum less without it, summed piece by
    # piece over the regime's shock pieces whose positions differ from the
    # initial ones. Per piece, so a piece whose two terms are the same
    # double, such as a tail where the win map is saturated, adds 0.0.
    initial = initial_positions(params)
    delta = 0.0
    for lo, hi, positions in shock_pieces(params.b_L, params.b_R, regime):
        if positions != initial:
            delta += _congruent(params, ((lo, hi, positions),), gs, fresh, config) - _congruent(
                params, ((lo, hi, initial),), gs, fresh, config
            )
    return delta


def second_delta(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """second_issue_congruence's delta, without its levels.

    From a diverged start (b_R >= 0) a non-binding referendum changes only
    the tails: the delta is Right's win below -b_R plus Left's win above
    -b_L, with neither gamma_star nor a kernel quadrature.memo() does not
    keep. Only a regime that splits the parties across gamma_star (binding
    from a diverged start, non-binding from an aligned one) needs the fresh
    kernel pair over [-b_R, gamma_star].
    """
    require_valid(params)
    require_regime(regime, "post_referendum")
    return _second_delta(params, regime, *_pivot(params, config), config)


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
    The delta is second_delta's.
    """
    require_valid(params)
    require_regime(regime, "post_referendum")
    gs, fresh = _pivot(params, config)
    no_ref = _congruent(
        params, shock_pieces(params.b_L, params.b_R, ReferendumRegime.NO_REFERENDUM),
        gs, fresh, config,
    )
    with_ref = _congruent(params, shock_pieces(params.b_L, params.b_R, regime), gs, fresh, config)
    delta = _second_delta(params, regime, gs, fresh, config)
    return CongruenceReport(ISSUE_SECOND, regime, no_ref, with_ref, delta)


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
    """
    require_regime(regime, "post_referendum")
    cells = []
    for b_R in b_R_values:
        for r in r_values:
            cell_params = replace(params, b_R=float(b_R), r=float(r))
            d2 = second_delta(cell_params, regime, config)
            dt = traditional_delta(cell_params, regime, config)
            cells.append(RegionCell(float(b_R), float(r), d2, dt, _region_flag(d2, dt)))
    return cells
