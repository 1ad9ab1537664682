"""The win integrals and the net benefit against mpmath.

Right's win as election._wins reads it, election.net_benefit and
election.win_prob under each regime are checked at the benchmark's diverged (b_R = 0.3) and spoiler (b_R = -0.1)
electorates, with normal and logistic taste, against tests/reference_mp.py,
which shares no code with refcalc. The net benefit's reference is the
difference of the two win probabilities, so it also checks the piecewise
form refcalc computes. win_prob is also checked at conftest.DRIFT, where
the whole-line read misses by more than its pieces do.
At mu <= 1/2 the win map never saturates. The diverged electorate also runs
at mu = 0.7 and 0.9, where it saturates: the reference clamps the map and
splits its integrals at the kinks it finds with mp.findroot. refcalc must
split a piece at its kinks exactly where the reference's map leaves [0, 1].

Each integrate call may miss by the tolerance it declares: abs_tol, plus
rel_tol times the integral of |f| over its piece (the panel acceptance test
summed over panels), plus the 1e-12 of shock mass it drops at each infinite
end (|f| <= 1 here).
"""

from __future__ import annotations

import pytest

from refcalc.election import _wins, net_benefit, split_at_kinks, win_prob
from refcalc.model import ReferendumRegime
from refcalc.quadrature import DEFAULT_QUADRATURE

from conftest import DRIFT, electorate

mp = pytest.importorskip("mpmath")
import reference_mp as ref  # noqa: E402  (needs mpmath)

ABS, REL = DEFAULT_QUADRATURE.abs_tol, DEFAULT_QUADRATURE.rel_tol

DIVERGED = dict(r=0.45, mu=0.5, p=0.2, b_L=-0.5, b_R=0.3, shock=("normal", 0.25))
SPOILER = {**DIVERGED, "b_R": -0.1}
# The benchmark's mu = 1/2 makes the win map the identity, so the logistic
# cases take mu = 0.3 to check its slope as well.
CASES = [
    {**e, "mu": mu, "taste": (family, 0.2)}
    for e in (DIVERGED, SPOILER)
    for family, mu in (("normal", 0.5), ("logistic", 0.3))
] + [
    {**DIVERGED, "mu": mu, "taste": (family, 0.2)}
    for family, mu in (("normal", 0.7), ("logistic", 0.9))
]


def _ids(e):
    return f"b_R={e['b_R']}-mu={e['mu']}-{e['taste'][0]}"


def _finite(lo, hi):
    """A piece's ends as refcalc takes them: None where infinite."""
    return [None if abs(end) == mp.inf else end for end in (lo, hi)]


def _call_tol(integral_of_abs, lo, hi):
    return ABS + REL * integral_of_abs + ref.TAIL * ((lo == -mp.inf) + (hi == mp.inf))


@pytest.mark.parametrize("e", CASES, ids=_ids)
def test_wins_matches_mpmath(e):
    params = electorate(e)
    for lo, hi in ((-mp.inf, mp.inf), (-e["b_R"], -e["b_L"])):
        value = _wins(params, *_finite(lo, hi), DEFAULT_QUADRATURE)[0]
        assert bool(split_at_kinks(params, *_finite(lo, hi))) == ref.saturates(e, lo, hi)
        expected = ref.win_diverged(e, lo, hi)
        # The integrand is a probability, so its integral is its |f| integral.
        assert abs(value - expected) <= _call_tol(expected, lo, hi)


def _net_benefit_pieces(e, regime):
    """The shock pieces net_benefit integrates, one integrate call each."""
    diverged = e["b_R"] >= 0
    if regime == "binding":
        return [(-mp.inf, mp.inf)] if diverged else []
    if diverged:
        return [(-mp.inf, -e["b_R"]), (-e["b_L"], mp.inf)]
    return [(-e["b_R"], -e["b_L"])]


def _net_benefit_tol(e, pieces):
    """The declared tolerance of net_benefit's reads of the pieces."""
    lam_r = ref.lam(e, e["r"])

    def gap(x):
        return abs(lam_r - ref.win(e, x))

    # A tolerance needs only a few digits of the integral of |gap|.
    return sum(
        _call_tol(
            ref.shock_integral(gap, e["shock"], lo, hi, ref.kinks(e, lo, hi), maxdegree=3),
            lo, hi,
        )
        for lo, hi in pieces
    )


@pytest.mark.parametrize("regime", ["binding", "non_binding"])
@pytest.mark.parametrize("e", CASES, ids=_ids)
def test_net_benefit_matches_mpmath(e, regime):
    params = electorate(e)
    value = net_benefit(params, ReferendumRegime(regime))
    expected = ref.win_prob(e, regime) - ref.win_prob(e, "no_referendum")
    pieces = _net_benefit_pieces(e, regime)
    for lo, hi in pieces:
        assert bool(split_at_kinks(params, *_finite(lo, hi))) == ref.saturates(e, lo, hi)
    if not pieces:
        # Binding from an aligned start changes nothing.
        assert value == 0.0 and expected == 0
        return
    assert abs(value - expected) <= _net_benefit_tol(e, pieces)


# Rounding of the few double sums and products that join the reads.
ROUNDING = 1e-15


@pytest.mark.parametrize("regime", ["no_referendum", "binding", "non_binding"])
@pytest.mark.parametrize("e", [*CASES, DRIFT], ids=[*map(_ids, CASES), "drift"])
def test_win_prob_matches_mpmath(e, regime):
    # Right's win probability is the whole-line read under the initial
    # positions plus net_benefit's reads of the moved pieces, so it may miss
    # by the sum of their declared tolerances. From an aligned start the
    # whole line is the single-issue lambda(r), integrated nowhere. On DRIFT
    # the non-binding value misses by 7.6e-12, the whole-line read's miss.
    params = electorate(e)
    value = win_prob(params, ReferendumRegime(regime))
    expected = ref.win_prob(e, regime)
    line = ref.win_diverged(e, -mp.inf, mp.inf) if e["b_R"] >= 0 else None
    tol = ROUNDING + (0.0 if line is None else _call_tol(line, -mp.inf, mp.inf))
    if regime != "no_referendum":
        tol += _net_benefit_tol(e, _net_benefit_pieces(e, regime))
    assert abs(value - expected) <= tol
