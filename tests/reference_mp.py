"""Reference values by mpmath.quad, sharing no code with refcalc.

The model's formulas are written out again here from their definitions, with
their own normal and logistic cdf and pdf, and integrated by mpmath.quad split
at the piece ends and at 0. At mpmath's default 15 digits they agree with 40
digits to 1e-16 at the points the tests use.

An electorate is a plain dict with the keys of a scenario file: r, mu, p,
b_L, b_R, and taste and shock as (family, scale) pairs.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

# Shock mass refcalc drops at each infinite end when it truncates an improper
# integral to quantiles.
TAIL = 1e-12

HALF = mp.mpf(1) / 2


def cdf(family, scale):
    if family == "normal":
        return lambda x: mp.ncdf(x, 0, scale)
    return lambda x: 1 / (1 + mp.exp(-x / scale))


def pdf(family, scale):
    if family == "normal":
        return lambda x: mp.npdf(x, 0, scale)
    return lambda x: mp.exp(-abs(x) / scale) / (scale * (1 + mp.exp(-abs(x) / scale)) ** 2)


def shock_integral(f, shock, lo, hi, **quad_options):
    """Integral of f(x) times the shock density over [lo, hi]."""
    g = pdf(*shock)
    points = [lo, 0, hi] if lo < 0 < hi else [lo, hi]
    return mp.quad(lambda x: f(x) * g(x), points, **quad_options)


def lam(e, share):
    """Right's win probability at policy-voter share `share` (unsaturated)."""
    return HALF + e["mu"] / (1 - e["mu"]) * (share - HALF)


def right_share(e, x):
    """Right's policy-voter share at shock x with positions diverged."""
    B = cdf(*e["taste"])
    return e["r"] * B(x + e["b_R"] + e["p"]) + (1 - e["r"]) * B(x + e["b_L"] - e["p"])


def win_diverged(e, lo, hi):
    """P(Right wins and the shock lies in [lo, hi]), positions diverged there."""
    return _win_diverged(tuple(sorted(e.items())), lo, hi)


@lru_cache(maxsize=None)
def _win_diverged(items, lo, hi):
    # Kept, since win_prob asks for the same integral under every regime.
    e = dict(items)
    return shock_integral(lambda x: lam(e, right_share(e, x)), e["shock"], lo, hi)


def win_prob(e, regime):
    """P(Right wins) under a regime, from the model's definitions.

    Positions diverge at the start iff b_R >= 0. A binding referendum, or an
    aligned start without one, leaves a single-issue race at share r. A
    non-binding one aligns the parties outside [-b_R, -b_L] and splits them
    inside.
    """
    if regime == "binding" or (regime == "no_referendum" and e["b_R"] < 0):
        return lam(e, e["r"])
    if regime == "no_referendum":
        return win_diverged(e, -mp.inf, mp.inf)
    G = cdf(*e["shock"])
    aligned = G(-e["b_R"]) + 1 - G(-e["b_L"])
    return aligned * lam(e, e["r"]) + win_diverged(e, -e["b_R"], -e["b_L"])
