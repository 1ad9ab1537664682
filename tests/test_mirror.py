"""The party mirror and the cohesion thresholds as exact properties.

The party mirror (conftest.mirror) maps r -> 1 - r and (b_L, b_R) ->
(-b_R, -b_L). With a symmetric taste and shock it swaps the parties, so in
every regime Right's win probability becomes Left's, Right's net benefit
becomes Left's, the emerging-issue congruence levels stay, and each cohesion
threshold reflects through 1/2. Only a diverged start mirrors into a valid
electorate. The draws cover normal and logistic taste and mu up to 0.9, so
the kinks of a saturated win map must mirror too.

Every identity is exact in exact arithmetic. Each side is a sum of a few
integrals, each accepted within the declared absolute tolerance at scale 1,
so the identities are held to 10 times it, and r_star_star's, a ratio of
two kernels L/(L+R), to 10 times it over L+R. Such checks need no reference
code; they catch a bug that breaks the symmetry, not a symmetric one.

For mu <= 1/2 the win map never saturates, and each cohesion threshold is
where the net benefit of its regime and start changes sign.
"""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

from refcalc import thresholds
from refcalc.congruence import second_issue_levels
from refcalc.election import net_benefit, split_at_kinks, win_prob
from refcalc.errors import RootFindError
from refcalc.model import DistributionSpec, ElectorateParams, ReferendumRegime, moved_pieces
from refcalc.quadrature import DEFAULT_QUADRATURE, memo
from refcalc.thresholds import r_bind, r_star, r_star_star

from conftest import diverged_draws, mirror

MIRROR_BOUND = 10 * DEFAULT_QUADRATURE.abs_tol
NON_BINDING = ReferendumRegime.NON_BINDING
POST = (ReferendumRegime.BINDING, NON_BINDING)
# The snapshot's underflow scenario: both of r_star_star's kernels are 0.
UNDERFLOW = ElectorateParams(
    r=0.5, mu=0.5, p=3.0, b_L=-1.0, b_R=1.2,
    taste=DistributionSpec("normal", 0.05), shock=DistributionSpec("normal", 0.1),
)
DRAWS = diverged_draws(60, seed=3)


def _quantities(params):
    primitives = (params.b_L, params.b_R, params.p, params.taste, params.shock)
    with memo():
        pieces = moved_pieces(params.b_L, params.b_R, NON_BINDING)
        L, R = thresholds._kernels(*primitives, pieces, DEFAULT_QUADRATURE)
        try:
            rss = r_star_star(*primitives).value
        except RootFindError:
            rss = None
        return (
            [win_prob(params, regime) for regime in ReferendumRegime],
            [net_benefit(params, regime) for regime in POST],
            [second_issue_levels(params, regime) for regime in POST],
            rss,
            L + R,
        )


@pytest.mark.parametrize("params", [*DRAWS, pytest.param(UNDERFLOW, id="underflow")])
def test_the_party_mirror_swaps_the_parties(params):
    wins, gains, levels, rss, kernels = _quantities(params)
    wins_m, gains_m, levels_m, rss_m, _ = _quantities(mirror(params))
    for w, w_m in zip(wins, wins_m):
        assert abs(w_m - (1.0 - w)) <= MIRROR_BOUND
    for g, g_m in zip(gains, gains_m):
        assert abs(g_m + g) <= MIRROR_BOUND
    for pair, pair_m in zip(levels, levels_m):
        for level, level_m in zip(pair, pair_m):
            assert abs(level_m - level) <= MIRROR_BOUND
    # r_star_star is the ratio L/(L+R) of its kernels, which magnifies their
    # error by up to 1/(L+R): at the first draw L+R is 6.2e-11, and the
    # identity is off by 1.6e-8. Where both kernels are 0, both sides raise.
    assert (rss is None) == (rss_m is None) == (kernels == 0.0)
    if rss is not None:
        assert abs(rss_m - (1.0 - rss)) <= MIRROR_BOUND / kernels


def test_the_mirror_draws_reach_the_saturated_win_map():
    # The draws above would not test the kinks' mirror if none saturated.
    saturated = [p for p in DRAWS if split_at_kinks(p, None, None)]
    assert len(saturated) >= 20


def _sign_draws(n, seed):
    # r_bind and r_star_star from a diverged start, r_star from an aligned
    # one, each with its regime; r is set at the threshold.
    rng = random.Random(seed)
    draws = []
    for i in range(n):
        b_L = -rng.uniform(0.05, 1.0)
        params = ElectorateParams(
            r=0.5, mu=rng.uniform(0.2, 0.5), p=rng.uniform(0.05, 1.0), b_L=b_L,
            b_R=rng.uniform(0.05, 1.0),
            taste=DistributionSpec(("normal", "logistic")[i % 2], rng.uniform(0.1, 1.0)),
            shock=DistributionSpec("normal", rng.uniform(0.1, 0.8)),
        )
        aligned = replace(params, b_R=rng.uniform(b_L + 0.01, -0.01))
        draws += [
            pytest.param(r_bind, ReferendumRegime.BINDING, params, id=f"r_bind-{i}"),
            pytest.param(r_star_star, NON_BINDING, params, id=f"r_star_star-{i}"),
            pytest.param(r_star, NON_BINDING, aligned, id=f"r_star-{i}"),
        ]
    return draws


@pytest.mark.parametrize("threshold, regime, params", _sign_draws(50, seed=5))
def test_each_threshold_is_the_net_benefit_sign_change(threshold, regime, params):
    value = threshold(params.b_L, params.b_R, params.p, params.taste, params.shock).value
    assert 1e-6 < value < 1.0 - 1e-6
    below = net_benefit(replace(params, r=value - 1e-6), regime)
    above = net_benefit(replace(params, r=value + 1e-6), regime)
    assert below * above < 0.0
