"""Win probabilities and the net electoral value of holding a referendum.

The election layer: policy voters split between the parties according to the
positions on offer, noise voters split by a uniform popularity shock eta, and
Right wins when its total vote share exceeds one half. Conditional on the
policy-voter margin D (Right's share minus Left's), the win probability is

    lambda_margin(D) = 1/2 + mu D / (2 (1-mu)),

saturated into [0, 1] because eta is uniform on [0, 1]. lambda_win and the
spoiler race read this one statement; only turnout keeps an unclamped copy,
until it gets its own clamp. Saturation is exact, not an approximation. The
closed-form thresholds are derived from the unsaturated affine map and only
coincide exactly where it never binds (mu <= 1/2 guarantees that);
split_at_kinks says where it does.

No win integral integrates the map itself. _race states each race, the
two-party one where the parties split and the spoiler race while both majors
hold y=0, as a coefficient and two cohesion kernels of the thresholds
module: over a shock piece the gap lambda(r) - lambda is affine in them.
_wins is the one reader of a race piece: it gives Right's win and that gap
together; no other module reads a race's kernels. _piece picks the race a
shock piece holds from its positions, for both models, the spoiler's with
its valence v. _gain_walk sums its gaps over the pieces a regime moves, and
_win_walk adds that gain to its whole-line read under the initial positions.
Where the map saturates, the piece is cut at its kinks (split_at_kinks): the
saturated sub-pieces are shock masses, and the stretches between kinks read
kernels like any other piece. Every kernel goes through thresholds._kernel, so
within quadrature.memo() each is integrated once per command. Right's win
over a saturated sub-piece is its mass times the level, exactly, so a tail
where one side always wins adds exactly 0 to the emerging-issue delta.
"""

from __future__ import annotations

from .errors import UsageError
from .model import (
    ElectorateParams,
    ReferendumRegime,
    cdf_ends,
    initial_positions,
    require_regime,
    require_valid,
    shock_pieces,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, shock_bounds
from .thresholds import _brent, _integrand, _kernel


def _clamp(value):
    """value saturated into [0, 1].

    A NaN is returned unchanged, the mark of a fault upstream, rather than
    saturated into a probability: max and min keep their first argument
    when the comparison is false, so the NaN must come first.
    """
    return min(max(value, 0.0), 1.0)


def lambda_margin(margin: float, mu: float) -> float:
    """Right's win probability given the policy-voter margin D (unsaturated).

    A NaN margin passes through as a NaN probability, the mark of a fault
    upstream; no quadrature integrates this map, so none raises on it.
    """
    if not 0 < mu < 1:
        raise UsageError(f"mu must lie in (0, 1), got {mu}")
    return 0.5 + mu / (2.0 * (1.0 - mu)) * margin


def lambda_win(share: float, mu: float) -> float:
    """Right's win probability given the policy-voter share backing it (unsaturated).

    lambda_margin at the margin 2 share - 1. A share outside [0, 1] is a
    usage error; a NaN share is not, and passes through as a NaN.
    """
    if share < 0.0 or share > 1.0:
        raise UsageError(f"share must lie in [0, 1], got {share}")
    return lambda_margin(2.0 * share - 1.0, mu)


def _race(params: ElectorateParams, v=None) -> tuple:
    """(c, kL, kR): Right's unclamped win map at shock gamma in the race is
    lambda(r) - c (r KR(gamma) - (1-r) KL(gamma)), with KL and KR the
    thresholds._integrand of each (form, b, p), as the taste is symmetric.

    Two-party (v None), parties split: r - share = r B(-p - gamma - b_R)
    - (1-r) B(-p + gamma + b_L), so c = mu/(1-mu) with L(b_L, p) and R(b_R, p).
    Spoiler race, both majors at y=0: the map is lambda_margin at the margin
    r B(-v - b_R - gamma) - (1-r) B(p - v - b_L - gamma) of the shares the
    majors keep, so c = mu/(2(1-mu)) with L-form kernels at (b_L, p - v) and
    (b_R, -v).
    """
    mu = params.mu
    if v is None:
        return mu / (1.0 - mu), ("L", params.b_L, params.p), ("R", params.b_R, params.p)
    return mu / (2.0 * (1.0 - mu)), ("L", params.b_L, params.p - v), ("L", params.b_R, -v)


# Taste scales around the spoiler kernels' centres within which their peak is
# sought: there the nearer taste density is still a normal double.
_PEAK_WINDOW = 30.0


def split_at_kinks(params: ElectorateParams, lo, hi, v=None) -> tuple:
    """The piece [lo, hi] of the race _race(params, v), split where its win
    map saturates.

    Empty where the map stays inside [0, 1], which mu <= 1/2 guarantees.
    Otherwise the sub-pieces (x, y, level) in shock order: level is 0.0 or 1.0
    where the map sits at that value, None between kinks.

    The map is 0 where the excess e = c (r KR - (1-r) KL) - lambda(r) is at
    least 0 and 1 where it is at most -1. e is read at the piece's truncated
    ends (quadrature.shock_bounds); Brent finds each level it crosses between
    reads. In the two-party race e falls, so the two end reads are the whole
    gate. In the spoiler race, for log-concave taste, e rises, then falls: its
    peak, a root of the slope r b(gamma - cR) - (1-r) b(gamma - cL), with b
    the taste density and cL, cR the kernels' centres, is found by Brent
    within _PEAK_WINDOW taste scales of the centres and read too.
    """
    if params.mu <= 0.5:
        return ()
    r = params.r
    c, kL, kR = _race(params, v)
    fL, fR = _integrand(*kL, params.taste), _integrand(*kR, params.taste)
    lam_r = lambda_win(r, params.mu)

    def excess(g):
        return c * (r * fR(g) - (1.0 - r) * fL(g)) - lam_r

    a, b = shock_bounds(params.shock, lo, hi)
    reads = [(lo, a, excess(a)), (hi, b, excess(b))]
    if v is None and not (reads[0][2] > 0.0 or reads[1][2] < -1.0):
        return ()
    if v is not None:
        (_, bL, pL), (_, bR, pR), pdf = kL, kR, params.taste._scalar_pdf

        def slope(g):
            return r * pdf(-pR + g + bR) - (1.0 - r) * pdf(-pL + g + bL)

        reach = _PEAK_WINDOW * params.taste.scale
        w_lo = min(max(a, min(pL - bL, pR - bR) - reach), b)
        w_hi = max(min(b, max(pL - bL, pR - bR) + reach), w_lo)
        if slope(w_lo) > 0.0 > slope(w_hi):
            peak = _brent(slope, w_lo, w_hi, "spoiler win map peak")[0]
            reads.insert(1, (peak, peak, excess(peak)))
    cuts = [(lo, reads[0][2])]
    for (_, x, ex), (y, yb, ey) in zip(reads, reads[1:]):
        for level in ((0.0, -1.0) if ex > ey else (-1.0, 0.0)):
            if min(ex, ey) < level < max(ex, ey):
                cuts.append((_brent(lambda g: excess(g) - level, x, yb, "win map kink")[0], level))
        cuts.append((y, ey))
    pieces = []
    for (x, ex), (y, ey) in zip(cuts, cuts[1:]):
        level = 0.0 if min(ex, ey) >= 0.0 else 1.0 if max(ex, ey) <= -1.0 else None
        if pieces and pieces[-1][2] == level:
            x = pieces.pop()[0]
        pieces.append((x, y, level))
    return () if pieces == [(lo, hi, None)] else tuple(pieces)


def _wins(params, lo, hi, config, v=None):
    """(W, gap) over the piece [lo, hi] of the race _race(params, v): W is
    Right's probability of winning the race (in the spoiler race, of
    finishing ahead of Left) with the shock in the piece, and gap the
    integral of lambda(r) less the win map, saturated into [0, 1], against
    the shock.

    The piece is cut by split_at_kinks (uncut where the map stays inside
    [0, 1]) and its stretches summed in shock order. Between kinks the gap
    is c (r R - (1-r) L), with L and R the race's kernels over the stretch
    (thresholds._kernel, kept within quadrature.memo()), and Right gets the
    stretch's shock mass times lambda(r) less it. Where the map sits at a
    level, Right gets mass * level, exactly, so a piece wholly saturated at
    0 gives 0.0 and one at 1 its mass, and the gap gets mass times
    lambda(r) - level.
    """
    r, taste, shock = params.r, params.taste, params.shock
    lam_r = lambda_win(r, params.mu)
    c, kL, kR = _race(params, v)
    right = gap = 0.0
    for x, y, level in split_at_kinks(params, lo, hi, v) or ((lo, hi, None),):
        g_x, g_y = cdf_ends(shock._scalar_cdf, x, y)
        mass = g_y - g_x
        if level is None:
            L, R = (_kernel(*k, taste, shock, x, y, config) for k in (kL, kR))
            stretch = c * (r * R - (1.0 - r) * L)
            right += mass * lam_r - stretch
            gap += stretch
        else:
            right += mass * level
            gap += (lam_r - level) * mass
    return right, gap


def _piece(params, lo, hi, positions, config, v=None):
    """(W, gap) over the piece [lo, hi] of the race the positions hold:
    two-party where the parties split, spoiler (v) where both majors hold
    y=0, else single-issue at share r, its gap 0.0 inside the band."""
    if positions.diverged:
        return _wins(params, lo, hi, config)
    if v is not None and positions.y_right == 0:
        return _wins(params, lo, hi, config, v)
    g_lo, g_hi = cdf_ends(params.shock._scalar_cdf, lo, hi)
    lam_r = lambda_win(params.r, params.mu)
    return (g_hi - g_lo) * _clamp(lam_r), (g_hi - g_lo) * (lam_r - _clamp(lam_r))


def _gain_walk(params, regime, config, v=None):
    """Right's gain from the regime: on each piece whose positions it
    changes, the gap under the initial positions less that under its own."""
    start = initial_positions(params)
    total = 0.0
    for lo, hi, positions in shock_pieces(params.b_L, params.b_R, regime):
        if positions != start:
            before = _piece(params, lo, hi, start, config, v)[1]
            total = total + (before - _piece(params, lo, hi, positions, config, v)[1])
    return total


def _win_walk(params, regime, config, v=None):
    """Right's win probability: _piece's W over the whole line under the
    initial positions, plus _gain_walk's gain (0.0 without a referendum)."""
    start = _piece(params, None, None, initial_positions(params), config, v)[0]
    return start + _gain_walk(params, regime, config, v)


def win_prob(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Probability that Right wins the election under the given regime.

    The race over the whole line under the initial positions, single-issue
    at share r or the integral of lambda(share(gamma)) where the parties
    split, plus net_benefit where a referendum is held.
    """
    require_valid(params)
    return _win_walk(params, regime, config)


def net_benefit(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Right's gain in win probability from the referendum being held.

    win_prob(regime) is win_prob(NO_REFERENDUM) plus this gain, computed
    only where the regime moves the parties, so each regime's sign structure
    is explicit: the integral of lambda(r) - lambda(share) where the
    referendum aligns the parties, minus it where the referendum splits
    them, and exactly zero where it moves nothing (binding, b_R < 0).
    """
    require_valid(params)
    require_regime(regime, "post_referendum")
    return _gain_walk(params, regime, config)
