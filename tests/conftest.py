"""Shared parameter sets for the test suite.

Expected values tagged FROZEN were computed with standalone scipy routines
(scipy.integrate.quad / brentq / stats closed forms) before the tests were
written, so they do not depend on the package's own quadrature.
"""
from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from refcalc import distributions
from refcalc.model import DistributionSpec, ElectorateParams, competitive_band
from refcalc.third_party import ThirdPartyParams

# Baseline two-party scenario used across election / congruence / oracle tests:
# diverged positions (b_R > 0), liberal-leaning electorate.
SCENARIO_A = ElectorateParams(
    r=0.45,
    mu=0.5,
    p=0.2,
    b_L=-0.5,
    b_R=0.3,
    taste=DistributionSpec("normal", 0.2),
    shock=DistributionSpec("normal", 0.25),
)

# Threshold-map primitives: wide taste dispersion, unit-stakes traditional issue.
PRIM_WIDE = dict(
    p=0.05,
    b_L=-1.0,
    taste=DistributionSpec("normal", 1.0),
    shock=DistributionSpec("normal", 0.5),
)

# Aligned-positions primitives for the r_star branch.
PRIM_NARROW = dict(
    p=0.2,
    b_L=-0.5,
    taste=DistributionSpec("normal", 0.2),
    shock=DistributionSpec("normal", 0.25),
)

# Valid spoiler electorates, in the form tests/reference_mp.py reads, where
# the spoiler map saturates and the spoiler raises Right's chance of
# finishing ahead of Left, although r KR exceeds (1-r) KL, the comparison of
# the unclamped spoiler kernels over the whole line.
SPOILER_HELPS = {
    "A": dict(r=0.43, mu=0.82, p=0.1, b_L=-0.8, b_R=-0.73, v=-0.12,
              taste=("normal", 0.106), shock=("normal", 0.77)),
    "B": dict(r=0.41, mu=0.845, p=0.49, b_L=-0.09, b_R=-0.036, v=-0.075,
              taste=("normal", 0.46), shock=("normal", 0.79)),
    "C": dict(r=0.23, mu=0.63, p=0.17, b_L=-0.53, b_R=-0.11, v=-0.4,
              taste=("normal", 0.16), shock=("normal", 0.73)),
}

# An electorate, in the form tests/reference_mp.py reads, where the emerging
# issue's level without a referendum misses its mpmath value by 7.2e-12 and
# the non-binding delta by 3.6e-13, so two levels computed apart would differ
# by other than the delta in the printed 12 digits.
DRIFT = dict(
    r=0.5423513267880153, mu=0.2673229325623562, p=0.8800131320181206,
    b_L=-0.43787516865302867, b_R=0.17780354004872323,
    taste=("normal", 0.18597422077258624), shock=("logistic", 0.7587116519611558),
)


def electorate(e: dict) -> ElectorateParams:
    """The ElectorateParams of an electorate in reference_mp's form."""
    return ElectorateParams(
        r=e["r"], mu=e["mu"], p=e["p"], b_L=e["b_L"], b_R=e["b_R"],
        taste=DistributionSpec(*e["taste"]), shock=DistributionSpec(*e["shock"]),
    )


def spoiler(e: dict) -> ThirdPartyParams:
    """The ThirdPartyParams of a spoiler electorate in reference_mp's form."""
    return ThirdPartyParams(electorate(e), e["v"])


def mirror(params: ElectorateParams) -> ElectorateParams:
    """The party mirror: r -> 1 - r and (b_L, b_R) -> (-b_R, -b_L). With a
    symmetric shock and taste it swaps the parties, y=0 with y=1 and the
    shock with its negative, so neither issue's congruence moves."""
    return replace(params, r=1.0 - params.r, b_L=-params.b_R, b_R=-params.b_L)


def diverged_draws(n: int, seed: int) -> list[ElectorateParams]:
    """n fixed-seed diverged starts (b_L < 0 < b_R, so the mirror is one
    too), with normal and logistic taste in turn and mu up to 0.9, where the
    win map saturates."""
    rng = random.Random(seed)
    draws = []
    for i in range(n):
        mu = rng.uniform(0.2, 0.9)
        lo, hi = competitive_band(mu)
        draws.append(ElectorateParams(
            r=rng.uniform(max(lo, 0.05), min(hi, 0.95)), mu=mu, p=rng.uniform(0.05, 1.0),
            b_L=-rng.uniform(0.05, 1.0), b_R=rng.uniform(0.05, 1.0),
            taste=DistributionSpec(("normal", "logistic")[i % 2], rng.uniform(0.1, 1.0)),
            shock=DistributionSpec("normal", rng.uniform(0.1, 0.8)),
        ))
    return draws


def with_aligned_variants(draws):
    """Each draw, then its aligned variant at b_R = -0.1 where its b_L lies
    below that."""
    return [*draws, *(replace(p, b_R=-0.1) for p in draws if p.b_L < -0.1)]


# A level with a referendum is the level without it plus the gain, so the
# two differ by the gain up to the rounding of that sum and of reading the
# difference back off them, each within half an ulp at 1.
ADD_UP = 2.3e-16


@pytest.fixture
def scenario_a() -> ElectorateParams:
    return SCENARIO_A


def nan_where(monkeypatch, which, where):
    """Make the float cdf or pdf (which) of every DistributionSpec built from
    now on return NaN at each x where where(x) holds. The closures of
    distributions._scalar_formulas are the methods' float branch and what
    the shock integrals call, so a spec built before the patch is clean."""
    formulas = distributions._scalar_formulas

    def poisoned(family, scale):
        cdf, pdf = formulas(family, scale)
        f = cdf if which == "cdf" else pdf

        def nan_f(x):
            return math.nan if where(x) else f(x)

        return (nan_f, pdf) if which == "cdf" else (cdf, nan_f)

    monkeypatch.setattr(distributions, "_scalar_formulas", poisoned)
