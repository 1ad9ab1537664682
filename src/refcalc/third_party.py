"""Spoiler-party extension: a third candidate fixed at x=1, y=1 with a
valence penalty v < 0, entering while both majors sit at y=0 (b_L < b_R < 0).

The spoiler only ever draws votes away: conservatives defect when their
emerging-issue draw beats -v, liberals when it beats p - v, so Right bleeds
more as the natural home of x=1 voters. An advisory referendum can repair
that by revealing the shock and letting the majors reposition; once either
major matches the spoiler's emerging position the spoiler's support
collapses and the race reverts to the two-party formulas.

The spoiler race (election._race, v) tracks the probability Right finishes
ahead of Left, the margin the analytic results are stated in; whether the
spoiler itself can win is a question for the finite-agent simulator, and the
wide-dispersion classifier below presumes dispersion large enough that it
cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .distributions import DistributionSpec
from .congruence import knife_edge
from .election import _clamp, _wins, lambda_win
from .errors import InvalidParamsError, UsageError
from .model import ElectorateParams, ReferendumRegime, cdf_ends, require_regime, shock_pieces
from .model import validate as validate_base
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig

DEFAULT_VALENCE = -0.01

# Stand-in for "taste dispersion large": 50x every other scale in play.
WIDE_DISPERSION_FACTOR = 50.0


@dataclass(frozen=True)
class ThirdPartyParams:
    base: ElectorateParams
    v: float = DEFAULT_VALENCE


def validate_third(tp: ThirdPartyParams) -> list[str]:
    violations = validate_base(tp.base)
    if not tp.base.b_R < 0:
        violations.append(
            f"spoiler analysis needs both majors at y=0 (b_L < b_R < 0), "
            f"got b_R={tp.base.b_R}"
        )
    if not -math.inf < tp.v < 0:
        violations.append(f"valence v must be negative and finite, got {tp.v}")
    return violations


def require_valid_third(tp: ThirdPartyParams) -> None:
    violations = validate_third(tp)
    if violations:
        raise InvalidParamsError(violations)


def win_prob_third(
    tp: ThirdPartyParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """P(Right ahead of Left), without or with an advisory referendum.

    Sums over the regime's model.shock_pieces. While both majors hold y=0
    the spoiler keeps its base: the race is the spoiler race, read by
    election._wins(..., v). Where Right alone moves to y=1 it absorbs that
    base and the race is the diverged two-party one; where both sit at y=1
    it is single-issue at share r.
    """
    require_valid_third(tp)
    require_regime(regime, "third_party")
    b = tp.base
    total = 0.0
    for lo, hi, positions in shock_pieces(b.b_L, b.b_R, regime):
        if positions.diverged:
            total = total + _wins(b, lo, hi, config)[0]
        elif positions.y_right == 0:
            total = total + _wins(b, lo, hi, config, tp.v)[0]
        else:
            g_lo, g_hi = cdf_ends(b.shock.cdf, lo, hi)
            total = total + (g_hi - g_lo) * _clamp(lambda_win(b.r, b.mu))
    return total


def net_benefit_third(
    tp: ThirdPartyParams, config: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Right's gain, ahead-of-Left probability, from the advisory referendum.

    Summed only over the non-binding model.shock_pieces where Right has left
    y=0, the only shocks at which the reveal changes anything. On each, the
    spoiler race's gap (election._wins(..., v)), the integral of lambda(r)
    less the spoiler map, less, where the majors split, the two-party gap:
    both read cohesion kernels and split at their win map's kinks.
    Identical (up to quadrature) to the difference of the two win_prob_third
    calls where both meet their tolerance; kept in this form so the sign
    analysis stays legible.
    """
    require_valid_third(tp)
    b = tp.base
    total = 0.0
    for lo, hi, positions in shock_pieces(b.b_L, b.b_R, ReferendumRegime.NON_BINDING):
        if positions.y_right == 0:
            continue
        total = total + _wins(b, lo, hi, config, tp.v)[1]
        if positions.diverged:
            total = total - _wins(b, lo, hi, config)[1]
    return total


def worse_off_condition(
    tp: ThirdPartyParams, config: QuadratureConfig = DEFAULT_QUADRATURE
) -> bool:
    """True when the spoiler's presence lowers Right's chance of beating Left.

    That is, when the spoiler race's gap over the whole line
    (election._wins(..., v)), lambda(r) less P(Right ahead of Left), is
    positive. Where the spoiler map stays inside [0, 1], which mu <= 1/2
    guarantees, the gap is c (r KR - (1-r) KL) with KL and KR the race's
    kernels, so this compares the expected defection damage on each side,
    (1-r) KL with r KR; where the map saturates it is exact, as that
    comparison is not. Holds whenever r >= 1/2, and more broadly whenever
    Right has more to lose from the spoiler than Left.
    """
    require_valid_third(tp)
    return _wins(tp.base, None, None, config, tp.v)[1] > 0.0


def phi(b_L: float, b_R: float, shock: DistributionSpec) -> float:
    """Wide-dispersion sign kernel: 1 - 2 G(-b_L) + G(-b_R).

    As taste dispersion grows, the referendum's net benefit to Right gets
    the sign of (r - 1/2) * phi. Strictly increasing in b_L, strictly
    decreasing in b_R; positive at b_R = b_L, and at b_R = 0 positive only
    for b_L above the shock's lower quartile.
    """
    if not b_L < 0:
        raise UsageError(f"b_L must be negative, got {b_L}")
    if not b_L <= b_R <= 0:
        raise UsageError(f"need b_L <= b_R <= 0, got b_R={b_R}")
    G = shock.cdf
    return 1.0 - 2.0 * G(-b_L) + G(-b_R)


class PhiThresholds(NamedTuple):
    b_L_star: float
    b_R_star: float | None


def phi_thresholds(b_L: float, shock: DistributionSpec) -> PhiThresholds:
    """Where phi changes sign as its arguments move.

    b_L_star is the shock's lower quartile: above it phi > 0 for every
    b_R in [b_L, 0]. Below it phi crosses zero at a unique b_R_star in
    (b_L, 0): by the shock's symmetry phi = 0 is G(b_R) = 2 G(b_L), so
    b_R_star = G^-1(2 G(b_L)), taken in log space so that it holds where
    G(b_L) underflows.
    """
    if not b_L < 0:
        raise UsageError(f"b_L must be negative, got {b_L}")
    b_L_star = shock.quantile(0.25)
    if b_L >= b_L_star:
        return PhiThresholds(b_L_star, None)
    return PhiThresholds(b_L_star, shock.ilogcdf(math.log(2.0) + shock.logcdf(b_L)))


@dataclass(frozen=True)
class ReferendumPreference:
    """Hold-or-not classification in the wide-dispersion regime.

    decision follows the asymptotic sign; exact_net_benefit is the quadrature
    value at the actual (finite) dispersion so the two can be compared.
    """

    decision: str
    standing: str
    asymptotic_sign: float
    phi_value: float
    exact_net_benefit: float
    flags: tuple[str, ...]


def classify_referendum_preference(
    tp: ThirdPartyParams, config: QuadratureConfig = DEFAULT_QUADRATURE
) -> ReferendumPreference:
    """Does Right want the advisory referendum, given a dominant taste scale?

    Preconditions: mu < 2/3 (the clamp-free range of the three-way margin)
    and taste dispersion at least WIDE_DISPERSION_FACTOR times every other
    scale, the proxy for "dispersion large". r = 1/2 has no strict majority
    and is rejected rather than classified.
    """
    require_valid_third(tp)
    b = tp.base
    if not b.mu < 2.0 / 3.0:
        raise UsageError(f"classification requires mu < 2/3, got {b.mu}")
    floor = WIDE_DISPERSION_FACTOR * max(
        b.p, abs(b.b_L), abs(b.b_R), b.shock.scale, abs(tp.v)
    )
    if b.taste.scale < floor:
        raise UsageError(
            f"taste scale {b.taste.scale} is below the wide-dispersion proxy "
            f"{floor:.6g} ({WIDE_DISPERSION_FACTOR:g}x the largest other "
            f"scale in play)"
        )
    if knife_edge(b.r):
        raise UsageError("r = 1/2: no strict majority, nothing to classify")
    ph = phi(b.b_L, b.b_R, b.shock)
    asym = (b.r - 0.5) * ph
    flags = ["wide_dispersion_proxy"]
    if abs(ph) < 0.01:
        flags.append("phi_near_zero")
    return ReferendumPreference(
        decision="hold" if asym > 0 else "not_hold",
        standing="advantaged" if b.r > 0.5 else "disadvantaged",
        asymptotic_sign=math.copysign(1.0, asym) if asym != 0 else 0.0,
        phi_value=ph,
        exact_net_benefit=net_benefit_third(tp, config),
        flags=tuple(flags),
    )
