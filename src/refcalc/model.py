"""Electorate primitives: parameters, validity checks, and the position rule.

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
  single-issue win probability saturates, up to rounding at the band's ends,
  where win_prob clamps.
"""

from __future__ import annotations

import enum
import math
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
# baseline (net benefit and congruence). A spoiler race has no binding
# referendum, and a same-day ballot measure leaves no room to reposition, so
# turnout has no non-binding one.
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

    y_left: int | None
    y_right: int | None

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


def competitive_band(mu: float) -> tuple[float, float]:
    """The open band (1 - 1/(2 mu), 1/(2 mu)) of r in which neither party's
    single-issue win probability saturates; it contains (0, 1) for mu <= 1/2."""
    hi = 1.0 / (2.0 * mu)
    return 1.0 - hi, hi


def _violations(params: ElectorateParams, bias_order: bool) -> list[str]:
    # Shared by validate and the turnout extension, which skips bias_order.
    v = []
    if not 0 < params.r < 1:
        v.append(f"r must lie in (0, 1), got {params.r}")
    if not 0 < params.mu < 1:
        v.append(f"mu must lie in (0, 1), got {params.mu}")
    if not 0 < params.p < math.inf:
        v.append(f"p must be positive and finite, got {params.p}")
    for name in ("b_L", "b_R"):
        if not math.isfinite(getattr(params, name)):
            v.append(f"{name} must be finite, got {getattr(params, name)}")
    if bias_order and not (params.b_L < 0 and params.b_L < params.b_R):
        v.append(
            f"bias ordering violated: need b_L < 0 and b_L < b_R, got b_L={params.b_L}, b_R={params.b_R}"
        )
    if 0 < params.mu < 1 and 0 < params.r < 1:
        lo, hi = competitive_band(params.mu)
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
    return shock_pieces(params.b_L, params.b_R, ReferendumRegime.NO_REFERENDUM)[0][2]


def referendum_support(params: ElectorateParams, gamma):
    """Continuum share of policy voters favouring the emerging policy at shock gamma.

    A voter backs it iff her taste b_J + gamma + u is nonnegative, so the share
    is r * B(gamma + b_R) + (1 - r) * B(gamma + b_L). Strictly increasing in
    gamma; crossing 1/2 defines the pivotal shock. At a float gamma, as in
    gamma_star's root search, B is the taste's float cdf closure.
    """
    B = params.taste._scalar_cdf if type(gamma) is float else params.taste.cdf
    return params.r * B(gamma + params.b_R) + (1.0 - params.r) * B(gamma + params.b_L)


def shock_pieces(b_L: float, b_R: float, regime: ReferendumRegime) -> tuple:
    """The position rule: the regime's shock pieces (lo, hi, PartyPositions).

    The pieces tile the shock line in order, with None for an infinite end.
    No referendum keeps the initial positions on the whole line: party J
    holds y=1 iff b_J >= 0. A binding referendum puts both parties on the
    majority's side on the whole line; their common y follows gamma_star and
    is left as None. A non-binding one reveals the shock and party J adopts
    the policy exactly when gamma >= -b_J, so the parties split on
    [-b_R, -b_L] and agree on both tails.
    """
    require_regime(regime, "two_party")
    if regime is ReferendumRegime.NO_REFERENDUM:
        return ((None, None, PartyPositions(int(b_L >= 0), int(b_R >= 0))),)
    if regime is ReferendumRegime.BINDING:
        return ((None, None, PartyPositions(None, None)),)
    return (
        (None, -b_R, PartyPositions(0, 0)),
        (-b_R, -b_L, PartyPositions(0, 1)),
        (-b_L, None, PartyPositions(1, 1)),
    )


def cdf_ends(G, lo, hi):
    """(G(lo), G(hi)) for a shock piece, 0 and 1 at its infinite (None) ends."""
    return (0.0 if lo is None else G(lo)), (1.0 if hi is None else G(hi))


def moved_pieces(b_L: float, b_R: float, regime: ReferendumRegime) -> tuple:
    """The pieces of shock_pieces where the regime changes whether the parties
    split: the only shocks at which the referendum can move the election."""
    split = shock_pieces(b_L, b_R, ReferendumRegime.NO_REFERENDUM)[0][2].diverged
    return tuple(p for p in shock_pieces(b_L, b_R, regime) if p[2].diverged != split)
