"""Electorate primitives: parameters, validity checks, and party positions.

The policy space has two binary dimensions. On the traditional dimension the
parties are fixed (Left at 0, Right at 1) and a fraction r of policy voters
sides with Right. On the emerging dimension each party J holds a bias b_J;
individual voters draw a taste b_J + gamma + u where gamma is an aggregate
shock common to everyone and u an idiosyncratic draw from the taste family.
A fraction mu of the electorate are policy voters; the rest split by a uniform
popularity shock and sit out referendums.

Two maintained restrictions gate every computation:

* bias ordering: b_L < 0 and b_L < b_R (Left opposes the emerging policy and
  is more opposed than Right);
* interior competitiveness: 1 - 1/(2 mu) < r < 1/(2 mu), so neither party's
  single-issue win probability saturates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .distributions import DistributionSpec
from .errors import InvalidParamsError, UsageError


class ReferendumRegime(enum.Enum):
    NO_REFERENDUM = "no_referendum"
    BINDING = "binding"
    NON_BINDING = "non_binding"


# The regimes each model defines, keyed by oracle mode; "post_referendum"
# covers the quantities that compare a referendum with the no-referendum
# baseline (net benefit, congruence, positions after the vote). A spoiler
# race has no binding referendum, and a same-day ballot measure leaves no
# room to reposition, so turnout has no non-binding one.
REGIMES = {
    "two_party": tuple(ReferendumRegime),
    "third_party": (ReferendumRegime.NO_REFERENDUM, ReferendumRegime.NON_BINDING),
    "turnout": (ReferendumRegime.NO_REFERENDUM, ReferendumRegime.BINDING),
    "post_referendum": (ReferendumRegime.BINDING, ReferendumRegime.NON_BINDING),
}


def require_regime(regime, model: str) -> None:
    """Raise UsageError unless regime is one of REGIMES[model]."""
    allowed = REGIMES[model]
    if regime not in allowed:
        raise UsageError(
            f"{model} needs one of the regimes "
            f"{', '.join(r.value for r in allowed)}; got {regime!r}"
        )


class PartyPositions(NamedTuple):
    """Emerging-dimension positions. Traditional positions are fixed (L=0, R=1)."""

    y_left: int
    y_right: int

    @property
    def diverged(self):
        return self.y_left != self.y_right


@dataclass(frozen=True)
class ElectorateParams:
    r: float
    mu: float
    p: float
    b_L: float
    b_R: float
    taste: DistributionSpec
    shock: DistributionSpec


def _violations(params: ElectorateParams, bias_order: bool) -> list[str]:
    # Shared by validate and the turnout extension, which skips bias_order.
    v = []
    if not 0 < params.r < 1:
        v.append(f"r must lie in (0, 1), got {params.r}")
    if not 0 < params.mu < 1:
        v.append(f"mu must lie in (0, 1), got {params.mu}")
    if not params.p > 0:
        v.append(f"p must be positive, got {params.p}")
    if bias_order and not (params.b_L < 0 and params.b_L < params.b_R):
        v.append(
            f"bias ordering violated: need b_L < 0 and b_L < b_R, got b_L={params.b_L}, b_R={params.b_R}"
        )
    if 0 < params.mu < 1 and 0 < params.r < 1:
        lo = 1.0 - 1.0 / (2.0 * params.mu)
        hi = 1.0 / (2.0 * params.mu)
        if not lo < params.r < hi:
            v.append(
                f"competitiveness violated: need {lo:.6g} < r < {hi:.6g}, got r={params.r}"
            )
    return v


def validate(params: ElectorateParams) -> list[str]:
    """Return the list of violated model requirements (empty means valid).

    This is a report, not an exception: callers that want to enumerate
    problems (the CLI, scenario linting) read the list; computational entry
    points call require_valid instead.
    """
    return _violations(params, bias_order=True)


def require_valid(params: ElectorateParams) -> None:
    violations = validate(params)
    if violations:
        raise InvalidParamsError(violations)


def initial_positions(params: ElectorateParams) -> PartyPositions:
    """Positions before any referendum: party J adopts 1 iff b_J >= 0."""
    return PartyPositions(
        y_left=1 if params.b_L >= 0 else 0,
        y_right=1 if params.b_R >= 0 else 0,
    )


def referendum_support(params: ElectorateParams, gamma):
    """Continuum share of policy voters favouring the emerging policy at shock gamma.

    A voter backs it iff her taste b_J + gamma + u is nonnegative, so the share
    is r * B(gamma + b_R) + (1 - r) * B(gamma + b_L). Strictly increasing in
    gamma; crossing 1/2 defines the pivotal shock.
    """
    B = params.taste.cdf
    return params.r * B(gamma + params.b_R) + (1.0 - params.r) * B(gamma + params.b_L)


def post_referendum_positions(
    params: ElectorateParams, gamma: float, regime: ReferendumRegime
) -> PartyPositions:
    """Positions after a referendum reveals the aggregate shock gamma.

    Non-binding: each party follows its own updated mean taste, adopting the
    policy iff b_J + gamma >= 0. Binding: both parties stand on the referendum
    majority, i.e. 1 iff the support share reaches 1/2.
    """
    require_regime(regime, "post_referendum")
    if regime is ReferendumRegime.NON_BINDING:
        return PartyPositions(
            y_left=1 if gamma >= -params.b_L else 0,
            y_right=1 if gamma >= -params.b_R else 0,
        )
    y = 1 if referendum_support(params, gamma) >= 0.5 else 0
    return PartyPositions(y_left=y, y_right=y)
