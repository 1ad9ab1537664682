"""Win probabilities and the net electoral value of holding a referendum.

The election layer: policy voters split between the parties according to the
positions on offer, noise voters split by a uniform popularity shock eta, and
Right wins when its total vote share exceeds one half. Conditional on the
policy-voter margin D (Right's share minus Left's), the win probability is

    lambda_margin(D) = 1/2 + mu D / (2 (1-mu)),

saturated into [0, 1] because eta is uniform on [0, 1]. lambda_win and the
spoiler race read this one statement; only turnout keeps an unclamped copy,
until it gets its own clamp. Saturation is exact, not an approximation; a
diagnostic flag records whether it ever bound, since downstream closed-form
thresholds are derived from the unsaturated affine map and only coincide
exactly when it never does (mu <= 1/2 guarantees that).
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate_shock


@dataclass
class ClampDiagnostics:
    """Mutable flag threaded through integrations to record saturation."""

    clamped: bool = False


def _clamp(value, diagnostics):
    """value saturated into [0, 1], setting diagnostics.clamped if it was outside.

    diagnostics may be None. A NaN is returned unchanged, so the quadrature
    that integrates it raises rather than counting it as a probability.
    """
    if value < 0.0 or value > 1.0:
        if diagnostics is not None:
            diagnostics.clamped = True
        return 0.0 if value < 0.0 else 1.0
    return value


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


def _win_at_share(params, share, diag):
    return _clamp(lambda_margin(2.0 * share - 1.0, params.mu), diag)


def win_given_shock(
    params: ElectorateParams, gamma, diagnostics: ClampDiagnostics | None = None
):
    """Right's win probability conditional on the shock, positions diverged."""
    return _win_at_share(params, right_share_multi(params, gamma), diagnostics)


def win_given_diverged(
    params: ElectorateParams,
    lo=None,
    hi=None,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
    diagnostics: ClampDiagnostics | None = None,
) -> float:
    """P(Right wins and the shock lies in [lo, hi]), positions diverged there.

    Computed afresh on every call, also within quadrature.memo(): the
    integral depends on every electorate parameter, so a command almost
    never asks for the same one twice.
    """
    return integrate_shock(
        lambda g: win_given_shock(params, g, diagnostics), params.shock, lo, hi, config
    )


def win_prob(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
    diagnostics: ClampDiagnostics | None = None,
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
            diverged = diverged + win_given_diverged(params, lo, hi, config, diagnostics)
        else:
            g_lo, g_hi = cdf_ends(params.shock.cdf, lo, hi)
            aligned = aligned + g_hi - g_lo
    return aligned * _win_at_share(params, params.r, diagnostics) + diverged


def net_benefit(
    params: ElectorateParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
    diagnostics: ClampDiagnostics | None = None,
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

    def gap(g):
        return _win_at_share(params, params.r, diagnostics) - _win_at_share(
            params, right_share_multi(params, g), diagnostics
        )

    total = 0.0
    for lo, hi, positions in moved_pieces(params.b_L, params.b_R, regime):
        piece = integrate_shock(gap, params.shock, lo, hi, config)
        total = total - piece if positions.diverged else total + piece
    return total
