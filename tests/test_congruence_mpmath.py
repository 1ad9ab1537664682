"""The pivotal shock and the emerging-issue congruence against mpmath.

thresholds.gamma_star, congruence.second_issue_congruence's three fields
under both regimes, and congruence.second_delta are checked against
tests/reference_mp.py, which shares no code with refcalc and states each
level from its definition. The electorates are the benchmark's diverged
(b_R = 0.3) and aligned (b_R = -0.1) ones, each with normal taste at
mu = 1/2 and logistic taste at mu = 0.3, both at mu = 0.9, where the win map
saturates, and conftest.DRIFT. third_party.phi is checked against its
closed form too.

gamma_star may miss by the bracket brentq stops at: ROOT_XTOL plus 4 eps
times the root. Each win integral that a value combines may miss by the
tolerance its integrate call declares (tests/test_win_mpmath.py): abs_tol,
plus rel_tol times the integral of |f| over its piece, plus the 1e-12 of
shock mass dropped at each infinite end. A value's tolerance is the sum over
the win integrals it combines, each counted as often as the value counts it,
plus the shock density at gamma* times gamma_star's miss where the value
reads gamma*: the level's derivative in gamma* is at most that density.
"""

from __future__ import annotations

import sys

import pytest

from refcalc.congruence import second_delta, second_issue_congruence
from refcalc.distributions import DistributionSpec
from refcalc.model import ReferendumRegime
from refcalc.quadrature import DEFAULT_QUADRATURE
from refcalc.third_party import phi
from refcalc.thresholds import ROOT_XTOL, gamma_star

from conftest import DRIFT, SPOILER_HELPS, electorate

mp = pytest.importorskip("mpmath")
import reference_mp as ref  # noqa: E402  (needs mpmath)

ABS, REL = DEFAULT_QUADRATURE.abs_tol, DEFAULT_QUADRATURE.rel_tol
EPS = sys.float_info.epsilon
BINDING = ReferendumRegime.BINDING
NON_BINDING = ReferendumRegime.NON_BINDING

DIVERGED = dict(r=0.45, mu=0.5, p=0.2, b_L=-0.5, b_R=0.3, shock=("normal", 0.25))
ALIGNED = {**DIVERGED, "b_R": -0.1}
CASES = [
    {**e, "mu": mu, "taste": (family, 0.2)}
    for e in (DIVERGED, ALIGNED)
    for family, mu in (("normal", 0.5), ("logistic", 0.3))
] + [
    {**e, "mu": 0.9, "r": 0.52, "taste": ("normal", 0.2)} for e in (DIVERGED, ALIGNED)
] + [DRIFT]


def _ids(e):
    return f"b_R={e['b_R']:.3g}-mu={e['mu']:.3g}-{e['taste'][0]}"


def _win_tol(e, lo, hi):
    # One win integral's declared tolerance; the integrand is a probability,
    # so its |f| integral is the integral itself.
    w = ref.win_diverged(e, lo, hi)
    return ABS + REL * w + ref.TAIL * ((lo == -mp.inf) + (hi == mp.inf))


def _gamma_tol(gs):
    return ROOT_XTOL + 4 * EPS * abs(gs)


@pytest.fixture(scope="module", params=CASES, ids=_ids)
def case(request):
    e = request.param
    gs = ref.gamma_star(e)
    lo, hi, inf = -mp.mpf(e["b_R"]), -mp.mpf(e["b_L"]), mp.inf
    no_ref, with_nb = ref.congruence_no_ref(e), ref.congruence_non_binding(e)
    # gamma*'s share of a level's miss: the shock density at gamma* times
    # gamma_star's tolerance.
    from_gs = ref.pdf(*e["shock"])(gs) * _gamma_tol(gs)
    if e["b_R"] >= 0:
        # The level reads the whole line, and (-inf, -b_R] and [-b_R, gamma*]
        # twice; the non-binding delta reads both tails.
        tol_no = from_gs + _win_tol(e, -inf, inf) + 2 * (
            _win_tol(e, -inf, lo) + _win_tol(e, lo, gs))
        tol_delta_nb = _win_tol(e, -inf, lo) + _win_tol(e, hi, inf)
    else:
        # The level is G(gamma*); the non-binding delta reads the split piece
        # and [-b_R, gamma*] twice.
        tol_no = from_gs + 8 * EPS
        tol_delta_nb = from_gs + _win_tol(e, lo, hi) + 2 * _win_tol(e, lo, gs)
    return dict(
        params=electorate(e), gamma_star=gs, no_ref=no_ref, with_nb=with_nb,
        tol_no=tol_no, tol_delta_nb=tol_delta_nb,
    )


def test_gamma_star_matches_mpmath(case):
    value = gamma_star(case["params"]).value
    assert abs(value - case["gamma_star"]) <= _gamma_tol(case["gamma_star"])


@pytest.mark.parametrize("regime", [BINDING, NON_BINDING])
def test_second_issue_congruence_matches_mpmath(case, regime):
    report = second_issue_congruence(case["params"], regime, DEFAULT_QUADRATURE)
    assert abs(report.prob_no_ref - case["no_ref"]) <= case["tol_no"]
    if regime is BINDING:
        # A binding referendum makes the match certain; the delta is 1 less
        # the level without it, and misses by as much.
        expected_delta, tol_delta = 1 - case["no_ref"], case["tol_no"]
        assert report.prob_with_ref == 1.0
    else:
        expected_delta, tol_delta = case["with_nb"] - case["no_ref"], case["tol_delta_nb"]
        # The level with it is the level without it plus the delta.
        assert abs(report.prob_with_ref - case["with_nb"]) <= case["tol_no"] + tol_delta
    assert abs(report.delta - expected_delta) <= tol_delta
    assert abs(second_delta(case["params"], regime) - expected_delta) <= tol_delta


@pytest.mark.parametrize("e", SPOILER_HELPS.values(), ids=SPOILER_HELPS)
def test_phi_is_its_closed_form(e):
    value = phi(e["b_L"], e["b_R"], DistributionSpec(*e["shock"]))
    assert abs(value - ref.phi(e["b_L"], e["b_R"], e["shock"])) <= 8 * EPS
