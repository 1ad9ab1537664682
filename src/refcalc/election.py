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

No two-party win integral integrates the map itself. Over a shock piece
where the parties split, the gap lambda(r) - lambda(share) is affine in the
cohesion kernels L and R of the thresholds module (_gap), so win_prob,
net_benefit, the congruence deltas and the spoiler race's net benefit read
the kernels the thresholds integrate, once per command within
quadrature.memo(). Where the map saturates, the piece is split at its kinks
(split_at_kinks): the saturated sub-pieces are shock masses, and only the
one between them takes fresh kernels.
"""

from __future__ import annotations

from .errors import UsageError
from .model import (
    ElectorateParams,
    ReferendumRegime,
    cdf_ends,
    moved_pieces,
    require_regime,
    require_valid,
    shock_pieces,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, shock_bounds
from .thresholds import _brent, _fresh_kernels, _kernels


def _clamp(value):
    """value saturated into [0, 1].

    A NaN is returned unchanged, so the quadrature that integrates it raises
    rather than counting it as a probability: max and min keep their first
    argument when the comparison is false, so the NaN must come first.
    """
    return min(max(value, 0.0), 1.0)


def lambda_margin(margin: float, mu: float) -> float:
    """Right's win probability given the policy-voter margin D (unsaturated).

    A NaN margin passes through as a NaN probability, so the quadrature
    integrating it raises QuadratureError instead of reading as undefined.
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


def right_share_multi(params: ElectorateParams, gamma):
    """Right's policy-voter share when positions diverge on both dimensions.

    Conservatives stick with Right unless the emerging-policy draw outweighs
    the traditional advantage p; liberals mirror. Strictly increasing in gamma.
    """
    B = params.taste.cdf
    return params.r * B(gamma + params.b_R + params.p) + (1.0 - params.r) * B(
        gamma + params.b_L - params.p
    )


def split_at_kinks(params: ElectorateParams, lo, hi) -> tuple:
    """The diverged piece [lo, hi] split where the win map saturates.

    Empty where the map stays inside [0, 1] throughout, which mu <= 1/2
    guarantees. Otherwise the sub-pieces (x, y, level) in shock order: level
    is 0.0 or 1.0 where the map sits at that value, None on the sub-piece
    between them, which is left out where one saturated sub-piece covers the
    piece.

    For mu > 1/2 the map saturates where the share, strictly increasing in
    gamma, leaves 1/2 -+ (1-mu)/(2 mu). The share is read at the piece's
    truncated ends (quadrature.shock_bounds) and each crossing between them
    is found by Brent.
    """
    mu = params.mu
    if mu <= 0.5:
        return ()
    band = (1.0 - mu) / (2.0 * mu)
    floor, ceiling = 0.5 - band, 0.5 + band
    a, b = shock_bounds(params.shock, lo, hi)
    share_a, share_b = right_share_multi(params, a), right_share_multi(params, b)
    if not (share_a < floor or share_b > ceiling):
        return ()

    def crossing(level):
        # Where the share passes level; lo or hi where it does not.
        if share_a >= level:
            return lo
        if share_b <= level:
            return hi
        return _brent(
            lambda g: right_share_multi(params, g) - level, a, b, "win map kink"
        )[0]

    c, d = crossing(floor), crossing(ceiling)
    low = ((lo, c, 0.0),) if share_a < floor else ()
    inside = () if share_b <= floor or share_a >= ceiling else ((c, d, None),)
    high = ((d, hi, 1.0),) if share_b > ceiling else ()
    return low + inside + high


def _gap(params, lo, hi, config, kernels=None):
    """Integral of lambda(r) - lambda(share(gamma)), saturated into [0, 1],
    against the shock over the diverged piece [lo, hi].

    Where the map stays inside [0, 1] the gap is affine in the cohesion
    kernels over the piece: the taste family is symmetric, so
    r - share = r B(-p - gamma - b_R) - (1-r) B(-p + gamma + b_L), and the
    gap is mu/(1-mu) (r R - (1-r) L). kernels, if given, are L and R over
    [lo, hi]; otherwise they are thresholds._kernels of the piece, which
    quadrature.memo() keeps.

    Where it saturates, the piece is split by split_at_kinks. A saturated
    sub-piece adds its shock mass times lambda(r) - level; the kernels are
    then integrated afresh over the sub-piece in between, if there is one.
    """
    r, mu = params.r, params.mu
    gap = 0.0
    pieces = split_at_kinks(params, lo, hi)
    if pieces:
        lam_r = lambda_win(r, mu)
        inside = None
        for x, y, level in pieces:
            if level is None:
                inside = x, y
            else:
                g_x, g_y = cdf_ends(params.shock.cdf, x, y)
                gap += (lam_r - level) * (g_y - g_x)
        if inside is None:
            return gap
        lo, hi = inside
        kernels = _fresh_kernels(
            params.b_L, params.b_R, params.p, params.taste, params.shock, lo, hi, config
        )
    if kernels is None:
        kernels = _kernels(
            params.b_L, params.b_R, params.p, params.taste, params.shock,
            ((lo, hi, None),), config,
        )
    L, R = kernels
    return gap + mu / (1.0 - mu) * (r * R - (1.0 - r) * L)


def win_given_diverged(
    params: ElectorateParams,
    lo=None,
    hi=None,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """P(Right wins and the shock lies in [lo, hi]), positions diverged there.

    The piece's shock mass times lambda(r), less the gap _gap reads off the
    cohesion kernels. Within quadrature.memo() the kernels of a piece where
    the map stays inside [0, 1] are integrated once per command.
    """
    g_lo, g_hi = cdf_ends(params.shock.cdf, lo, hi)
    return (g_hi - g_lo) * lambda_win(params.r, params.mu) - _gap(params, lo, hi, config)


def win_prob(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Probability that Right wins the election under the given regime.

    Sums over the regime's model.shock_pieces: where the parties agree the
    race is single-issue at share r, where they split it is the multi-issue
    integral of lambda(share(gamma)).
    """
    require_valid(params)
    aligned = diverged = 0.0
    for lo, hi, positions in shock_pieces(params.b_L, params.b_R, regime):
        if positions.diverged:
            diverged = diverged + win_given_diverged(params, lo, hi, config)
        else:
            g_lo, g_hi = cdf_ends(params.shock.cdf, lo, hi)
            aligned = aligned + g_hi - g_lo
    return aligned * _clamp(lambda_win(params.r, params.mu)) + diverged


def net_benefit(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Right's gain in win probability from the referendum being held.

    Equals win_prob(regime) - win_prob(NO_REFERENDUM), but computed only over
    model.moved_pieces, so each regime's sign structure is explicit: the
    integral of lambda(r) - lambda(share) where the referendum aligns the
    parties, minus it where the referendum splits them, and exactly zero
    where it moves nothing (binding, b_R < 0).
    """
    require_valid(params)
    require_regime(regime, "post_referendum")
    total = 0.0
    for lo, hi, positions in moved_pieces(params.b_L, params.b_R, regime):
        piece = _gap(params, lo, hi, config)
        total = total - piece if positions.diverged else total + piece
    return total
