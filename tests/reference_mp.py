"""Reference values by mpmath.quad, sharing no code with refcalc.

The model's formulas are written out again here from their definitions, with
their own normal and logistic cdf and pdf, and integrated by mpmath.quad split
at the piece ends, at 0 and, where the win map saturates, at its kinks. At
mpmath's default 15 digits they agree with 40 digits to 1e-16 at the points
the tests use.

An electorate is a plain dict with the keys of a scenario file: r, mu, p,
b_L, b_R, and taste and shock as (family, scale) pairs; a spoiler electorate
also has the entrant's valence v.
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


def shock_integral(f, shock, lo, hi, kinks=(), **quad_options):
    """Integral of f(x) times the shock density over [lo, hi], split at 0
    and at those kinks of f that lie inside."""
    g = pdf(*shock)
    inner = sorted(x for x in (0, *kinks) if lo < x < hi)
    return mp.quad(lambda x: f(x) * g(x), [lo, *inner, hi], **quad_options)


def lam(e, share):
    """Right's win probability at policy-voter share `share` (unsaturated)."""
    return HALF + e["mu"] / (1 - e["mu"]) * (share - HALF)


def win(e, x):
    """Right's win probability at shock x with positions diverged: the win
    map at the share, saturated into [0, 1]."""
    return min(mp.mpf(1), max(mp.mpf(0), lam(e, right_share(e, x))))


# Shock scales beyond which saturation is ignored: the shock mass out there
# is below 1e-17 for both families.
KINK_WINDOW = 40


def _window(e, lo, hi):
    width = KINK_WINDOW * e["shock"][1]
    return max(lo, -width), min(hi, width)


def saturates(e, lo, hi):
    """Whether the unsaturated win map leaves [0, 1] on [lo, hi]; the share
    is increasing in x, so it suffices to look at the ends."""
    a, b = _window(e, lo, hi)
    return lam(e, right_share(e, a)) < 0 or lam(e, right_share(e, b)) > 1


def kinks(e, lo, hi):
    """Shocks inside (lo, hi) where the unsaturated win map crosses 0 or 1.

    The share is increasing in x, so each level is crossed at most once; a
    crossing is bracketed within KINK_WINDOW shock scales of 0 and found by
    mp.findroot.
    """
    a, b = _window(e, lo, hi)
    found = []
    for level in (0, 1):
        def f(x, level=level):
            return lam(e, right_share(e, x)) - level
        if f(a) < 0 < f(b):
            found.append(mp.findroot(f, (a, b), solver="anderson"))
    return found


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
    return shock_integral(lambda x: win(e, x), e["shock"], lo, hi, kinks(e, lo, hi))


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


def lam_hat(e, x):
    """P(Right ahead of Left) at shock x in the spoiler race, both majors at
    y=0: the win map at the retained-share margin, saturated into [0, 1]."""
    return min(mp.mpf(1), max(mp.mpf(0), _lam_hat_raw(e, x)))


def _lam_hat_raw(e, x):
    # Right keeps a conservative unless the taste draw beats -v - b_R - x,
    # Left a liberal unless it beats p - v - b_L - x; the margin D of the
    # kept shares is the share (1 + D)/2 of the two-party map.
    B = cdf(*e["taste"])
    margin = e["r"] * B(-e["v"] - e["b_R"] - x) - (1 - e["r"]) * B(e["p"] - e["v"] - e["b_L"] - x)
    return lam(e, (1 + margin) / 2)


# Steps across the kink window on which spoiler_kinks looks for crossings.
KINK_GRID = 400


def spoiler_kinks(e, lo, hi):
    """Shocks inside (lo, hi) where the unsaturated lam_hat crosses 0 or 1.

    Its margin need not be monotone in x, so every sign change of
    lam_hat - level on KINK_GRID equal steps across the window is found by
    mp.findroot; two crossings within one step are missed.
    """
    a, b = _window(e, lo, hi)
    xs = [a + (b - a) * i / KINK_GRID for i in range(KINK_GRID + 1)]
    values = [_lam_hat_raw(e, x) for x in xs]
    found = []
    for level in (0, 1):
        for x, y, fx, fy in zip(xs, xs[1:], values, values[1:]):
            if (fx - level) * (fy - level) < 0:
                found.append(mp.findroot(
                    lambda z, level=level: _lam_hat_raw(e, z) - level, (x, y), solver="anderson"
                ))
    return found


def ahead_third(e, regime):
    """P(Right ahead of Left) in the spoiler race under a regime, b_R < 0.

    Without a referendum both majors stay at y=0 on the whole line. The
    advisory one keeps them there below -b_R, splits them on [-b_R, -b_L],
    where the entrant's base joins Right and the race is the diverged
    two-party one, and puts both at y=1 above -b_L, a single-issue race at
    share r.
    """
    return _ahead_third(tuple(sorted(e.items())), regime)


@lru_cache(maxsize=None)
def _ahead_third(items, regime):
    # Kept, since the net benefit asks for both regimes again.
    e = dict(items)
    lo, hi = -mp.inf, (mp.inf if regime == "no_referendum" else -e["b_R"])
    total = shock_integral(lambda x: lam_hat(e, x), e["shock"], lo, hi, spoiler_kinks(e, lo, hi))
    if regime == "no_referendum":
        return total
    G = cdf(*e["shock"])
    return total + win_diverged(e, -e["b_R"], -e["b_L"]) + (1 - G(-e["b_L"])) * lam(e, e["r"])


def gamma_star(e):
    """The pivotal shock: where the share r B(x + b_R) + (1-r) B(x + b_L) of
    policy voters backing the emerging policy crosses 1/2, by mp.findroot
    bracketed by (-b_R, -b_L)."""
    B = cdf(*e["taste"])

    def excess(x):
        return e["r"] * B(x + e["b_R"]) + (1 - e["r"]) * B(x + e["b_L"]) - HALF

    return mp.findroot(excess, (-mp.mpf(e["b_R"]), -mp.mpf(e["b_L"])), solver="anderson")


def congruence_no_ref(e):
    """P(the implemented emerging policy matches its majority), no
    referendum. The majority backs it iff the shock is at least gamma*. From
    an aligned start (b_R < 0) both parties keep y=0, so it is G(gamma*);
    from a diverged one Left (y=0) must win below gamma* and Right (y=1)
    above: G(gamma*) - W(-inf, gamma*] + W[gamma*, inf)."""
    gs = gamma_star(e)
    G = cdf(*e["shock"])
    if e["b_R"] < 0:
        return G(gs)
    return G(gs) - win_diverged(e, -mp.inf, gs) + win_diverged(e, gs, mp.inf)


def congruence_non_binding(e):
    """The same under a non-binding referendum: in both tails the parties
    agree with the majority, and on [-b_R, -b_L] they split, so Left must win
    below gamma* and Right above. That is the tails' mass
    + the integral from -b_R to gamma* of (1 - lambda) g
    + the integral from gamma* to -b_L of lambda g."""
    gs = gamma_star(e)
    lo, hi = -mp.mpf(e["b_R"]), -mp.mpf(e["b_L"])
    G = cdf(*e["shock"])
    tails = G(lo) + 1 - G(hi)
    return tails + (G(gs) - G(lo) - win_diverged(e, lo, gs)) + win_diverged(e, gs, hi)


def phi(b_L, b_R, shock):
    """The wide-dispersion sign kernel 1 - 2 G(-b_L) + G(-b_R)."""
    G = cdf(*shock)
    return 1 - 2 * G(-mp.mpf(b_L)) + G(-mp.mpf(b_R))
