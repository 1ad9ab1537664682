"""The spoiler race against mpmath.

third_party.win_prob_third and third_party.net_benefit_third are checked at
the benchmark's spoiler electorate, with normal and logistic taste, at three
points where the win map saturates, and at three more saturating electorates
found by a random scan, against tests/reference_mp.py, which shares no code
with refcalc. The reference clamps the spoiler map and splits its integral
at the kinks it finds with mp.findroot; the net benefit's reference is the
difference of the two win probabilities. At three more saturating
electorates, where the spoiler raises Right's chance of finishing ahead of
Left, worse_off_condition must say that Right is not worse off.

Each integrate call may miss by the tolerance it declares: abs_tol, plus
rel_tol times the integral of |f| over its piece, plus the 1e-12 of shock
mass it drops at each infinite end. Every integrand here lies in [-1, 1], so
the integral of |f| is at most the piece's shock mass. The two-party gap
reads two kernels scaled by mu/(1-mu), and where it splits at a kink, Brent
may misplace the kink by about ROOT_XTOL. The spoiler race's gap reads two
kernels too, scaled by mu/(2(1-mu)); its pieces keep the one-call tolerance
of the clipped integral that it replaced, which it meets by far.
"""

from __future__ import annotations

import pytest

from refcalc.model import ReferendumRegime
from refcalc.quadrature import DEFAULT_QUADRATURE
from refcalc.third_party import net_benefit_third, win_prob_third, worse_off_condition

from conftest import SPOILER_HELPS, spoiler

mp = pytest.importorskip("mpmath")
import reference_mp as ref  # noqa: E402  (needs mpmath)

ABS, REL = DEFAULT_QUADRATURE.abs_tol, DEFAULT_QUADRATURE.rel_tol
# Shock mass within a misplaced kink: 2 ROOT_XTOL at a density below 2.
KINK = 4e-12

SPOILER = dict(
    r=0.45, mu=0.5, p=0.2, b_L=-0.5, b_R=-0.1, v=-0.01,
    taste=("normal", 0.2), shock=("normal", 0.25),
)
# (mu, r) where the map saturates, and the net benefit the reference gives.
SATURATED = {
    (0.9, 0.52): 0.17041500589599388,
    (0.7, 0.45): 0.10768129036676959,
    (0.95, 0.5): 0.10888183727266472,
}
# Saturating electorates from a random scan, with reference_mp.ahead_third
# frozen (no_referendum, non_binding). Integrated as a clipped map, the
# spoiler race missed its kink by 4.8e-7 at the first and by 1.1e-8 at the
# second (logistic taste); at the third, a narrow taste under a wide shock,
# the densities in the map's slope underflow away from the kernels' centres.
FROZEN = {
    (0.79, 0.44): (
        dict(r=0.44, mu=0.79, p=0.44, b_L=-0.32, b_R=-0.1, v=-0.03,
             taste=("normal", 0.47), shock=("normal", 0.21)),
        (0.037698990346660209, 0.13126329503926448),
    ),
    (0.83, 0.42): (
        dict(r=0.42, mu=0.83, p=0.28, b_L=-0.77, b_R=-0.35, v=-0.07,
             taste=("logistic", 0.06), shock=("normal", 0.19)),
        (0.095683778677926476, 0.09900267086181859),
    ),
    (0.806, 0.416): (
        dict(r=0.416, mu=0.806, p=0.186, b_L=-0.767, b_R=-0.562, v=-0.155,
             taste=("normal", 0.051), shock=("normal", 0.619)),
        (0.14386578232257566, 0.15100396216165068),
    ),
}
# The benchmark's mu = 1/2 makes the win map the identity, so the logistic
# case takes mu = 0.3 to check its slope as well.
CASES = [
    SPOILER,
    {**SPOILER, "mu": 0.3, "taste": ("logistic", 0.2)},
    *({**SPOILER, "mu": mu, "r": r} for mu, r in SATURATED),
    *(e for e, _ in FROZEN.values()),
]


def _ids(e):
    return f"mu={e['mu']}-r={e['r']}-{e['taste'][0]}"


def _call_tol(e, lo, hi):
    G = ref.cdf(*e["shock"])
    return ABS + REL * (G(hi) - G(lo)) + ref.TAIL * ((lo == -mp.inf) + (hi == mp.inf))


def _gap_tol(e):
    """Tolerance of the spoiler race's read over the split piece [-b_R, -b_L]
    (election._wins(..., v)): its gap, or Right's win less the piece's mass
    times lambda(r)."""
    k = e["mu"] / (1 - e["mu"])
    return k * _call_tol(e, -e["b_R"], -e["b_L"]) + (1 + k) * 2 * KINK


def _ahead(e, regime):
    frozen = FROZEN.get((e["mu"], e["r"]))
    if frozen is None:
        return ref.ahead_third(e, regime)
    return frozen[1][regime == "non_binding"]


@pytest.mark.parametrize("e, regime", [
    pytest.param(e, regime, id=f"{_ids(e)}-{regime}")
    for e in CASES for regime in ("no_referendum", "non_binding")
])
def test_win_prob_third_matches_mpmath(e, regime):
    value = win_prob_third(spoiler(e), ReferendumRegime(regime))
    expected = _ahead(e, regime)
    if regime == "no_referendum":
        tol = _call_tol(e, -mp.inf, mp.inf)
    else:
        tol = _call_tol(e, -mp.inf, -e["b_R"]) + _gap_tol(e)
    assert abs(value - expected) <= tol


@pytest.mark.parametrize("e", CASES, ids=_ids)
def test_net_benefit_third_matches_mpmath(e):
    value = net_benefit_third(spoiler(e))
    expected = _ahead(e, "non_binding") - _ahead(e, "no_referendum")
    tol = _call_tol(e, -e["b_R"], -e["b_L"]) + _call_tol(e, -e["b_L"], mp.inf) + _gap_tol(e)
    assert abs(value - expected) <= tol


@pytest.mark.parametrize("point", SATURATED, ids=str)
def test_the_saturated_reference_is_frozen(point):
    # The spoiler map's margin is quasi-convex in the shock for log-concave
    # taste, so the map stays <= max(lambda(r), 1/2) < 1 here: it can only
    # cross 0, twice.
    mu, r = point
    e = {**SPOILER, "mu": mu, "r": r}
    kinks = ref.spoiler_kinks(e, -mp.inf, mp.inf)
    assert len(kinks) == 2
    assert all(abs(ref._lam_hat_raw(e, x)) < 1e-12 for x in kinks)
    expected = ref.ahead_third(e, "non_binding") - ref.ahead_third(e, "no_referendum")
    assert abs(expected - SATURATED[point]) < 1e-15


@pytest.mark.parametrize("name", SPOILER_HELPS)
def test_the_spoiler_helps_right_where_its_map_saturates(name):
    # P(Right ahead of Left) exceeds lambda(r), Right's win probability
    # without the entrant, so Right is not worse off with it, although
    # r KR exceeds (1-r) KL.
    e = SPOILER_HELPS[name]
    assert ref.ahead_third(e, "no_referendum") > ref.lam(e, e["r"])
    assert worse_off_condition(spoiler(e)) is False
