"""Same-day binding referendum as a turnout lever.

Here the referendum shares the ballot with the election, so parties cannot
reposition afterwards; y=0 stays in force unless a referendum passes y=1.
Policy voters face a uniform voting cost on [0, c_bar] and participate only
when their stake clears it: p alone without a referendum, p + |b_i| with one.
The referendum therefore mobilizes each party in proportion to the mean
absolute emerging-issue stake of its supporters, intensity(b_J), and the
paying side is decided by r against the threshold r_T. The stake's
expectation over the taste draw is closed form, so each intensity is a
single quadrature over the shock.

Supports are truncated so stakes stay below c_bar: tastes to [-sigma, sigma],
the shock to [-kappa, kappa]. validate_turnout requires
c_bar >= p + sigma + kappa + max(|b_L|, |b_R|), the largest possible stake,
so every participation probability stake/c_bar is at most one and the
affine participation rule is exact; the oracle relies on the same check.

A note on bias signs: nothing here needs b_L < 0 < b_R or any ordering. The
whole calculus runs through |b_J|, and the symmetry identities
r_T(b_L, b_R) = r_T(-b_L, b_R) = r_T(b_L, -b_R) only make sense if sign
flips are representable, so validate_turnout runs the base checks of
model.validate except the bias ordering the sequential-referendum model
imposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import TruncatedDistribution
from .errors import InvalidParamsError
from .model import ElectorateParams, ReferendumRegime, _violations, require_regime
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate
from .thresholds import ThresholdReport, _ratio


@dataclass(frozen=True)
class TurnoutParams:
    base: ElectorateParams
    c_bar: float
    sigma: float
    kappa: float

    @property
    def taste_t(self) -> TruncatedDistribution:
        return TruncatedDistribution(self.base.taste, self.sigma)

    @property
    def shock_t(self) -> TruncatedDistribution:
        return TruncatedDistribution(self.base.shock, self.kappa)


def validate_turnout(tp: TurnoutParams) -> list[str]:
    """Collect every constraint violation; empty list means usable."""
    b = tp.base
    v = _violations(b, bias_order=False)
    for name in ("c_bar", "sigma", "kappa"):
        if not 0 < getattr(tp, name) < math.inf:
            v.append(f"{name} must be positive and finite, got {getattr(tp, name)}")
    ceiling = b.p + tp.sigma + tp.kappa + max(abs(b.b_L), abs(b.b_R))
    if not tp.c_bar >= ceiling:
        v.append(
            f"need c_bar >= p + sigma + kappa + max(|b_L|, |b_R|) so no "
            f"participation probability exceeds one, got {tp.c_bar} vs {ceiling:.6g}"
        )
    if not tp.kappa > max(abs(b.b_R), abs(b.b_L)):
        v.append(
            f"need kappa > max(|b_R|, |b_L|), got {tp.kappa} vs "
            f"{max(abs(b.b_R), abs(b.b_L))}"
        )
    if not tp.sigma > b.p + tp.kappa:
        v.append(f"need sigma > p + kappa, got {tp.sigma} vs {b.p + tp.kappa}")
    return v


def require_valid_turnout(tp: TurnoutParams) -> None:
    violations = validate_turnout(tp)
    if violations:
        raise InvalidParamsError(violations)


def intensity(
    b_J: float, tp: TurnoutParams, config: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Mean absolute stake E|u + b_J + gamma| over both truncated draws.

    Even in b_J and strictly increasing in |b_J|. The expectation over the
    taste u is the closed-form TruncatedDistribution.abs_moment, so one
    adaptive G7-K15 pass over the truncated shock is all that is left.
    """
    require_valid_turnout(tp)
    taste_t, shock_t = tp.taste_t, tp.shock_t
    return integrate(
        lambda g: taste_t.abs_moment(b_J + g) * shock_t.pdf(g),
        -tp.kappa,
        tp.kappa,
        config,
    )


def win_prob_turnout(
    tp: TurnoutParams,
    regime: ReferendumRegime,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Right's win probability with costly voting, without or with the
    binding ballot measure.

    The noise-voter margin turns a policy-vote share difference D into a win
    probability of 1/2 + D / (2(1-mu)). Without a referendum every policy
    voter's stake is p, so D = (mu p / c_bar)(2r - 1) and the probability is
    1/2 + (mu/(1-mu))(p/c_bar)(r - 1/2). A referendum raises voter i's stake
    to p + |b_i|, which adds (mu/c_bar)[r I(b_R) - (1-r) I(b_L)] to D and
    therefore net_benefit_turnout to the win probability. This is the one
    copy of election.lambda_margin's map outside election, left unclamped
    until turnout gets its own clamp: exact only while 1/2 + D/(2(1-mu))
    stays in [0, 1] for every shock, so with large mu the result can leave
    [0, 1].
    """
    require_valid_turnout(tp)
    require_regime(regime, "turnout")
    b = tp.base
    prob = 0.5 + b.mu / (1.0 - b.mu) * (b.p / tp.c_bar) * (b.r - 0.5)
    if regime is ReferendumRegime.BINDING:
        prob += net_benefit_turnout(tp, config)
    return prob


def net_benefit_turnout(
    tp: TurnoutParams, config: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Right's gain from putting the measure on the ballot.

    The p terms cancel between the two win probabilities, leaving only the
    mobilization difference; positive exactly when r > r_T.
    """
    require_valid_turnout(tp)
    b = tp.base
    return (
        b.mu
        / (1.0 - b.mu)
        / (2.0 * tp.c_bar)
        * (
            b.r * intensity(b.b_R, tp, config)
            - (1.0 - b.r) * intensity(b.b_L, tp, config)
        )
    )


def r_T(
    tp: TurnoutParams, config: QuadratureConfig = DEFAULT_QUADRATURE
) -> ThresholdReport:
    """Conservative share above which the referendum helps Right.

    Closed ratio I(b_L) / (I(b_L) + I(b_R)); equals 1/2 at |b_R| = |b_L|,
    falls as Right's supporters care more (|b_R| up), rises as Left's do.
    """
    require_valid_turnout(tp)
    i_L = intensity(tp.base.b_L, tp, config)
    i_R = intensity(tp.base.b_R, tp, config)
    return _ratio("r_T", i_L, i_R, (0.0, 1.0))
