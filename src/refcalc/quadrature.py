"""Adaptive Gauss-Kronrod (G7-K15) quadrature.

Deliberately a small, self-contained recursive bisection scheme rather than a
wrapper around a library integrator: the tolerances and the subdivision budget
are part of the artifact's reproducibility contract, and the rule is simple
enough to reimplement identically anywhere.

Each panel [a, b] is integrated by the 15-point Kronrod rule K15 and by the
7-point Gauss rule G7 whose nodes it contains (QUADPACK's QK15; Piessens et
al. 1983, Kronrod 1965). The panel is accepted when

    |K15 - G7| <= max(abs_tol_local, rel_tol * |K15|)

and contributes K15; otherwise it is bisected and abs_tol_local is halved on
each side. Every bisection spends one unit of _MAX_SUBDIVISIONS; exhausting
the budget, or reaching _MAX_DEPTH, raises QuadratureError carrying the worst
rejected |K15 - G7|. A NaN or inf integrand value makes |K15 - G7| NaN (G7's
zero weights turn an inf into NaN), so its panel is rejected; it then raises
QuadratureError at once, with achieved tolerance inf.

The kernels of thresholds come in pairs over one shock piece: the cohesion
kernels L and R, and turnout's two intensities. integrate_shock_pair
integrates a pair in one pass that reads the shock pdf once per node for
both. Each kernel keeps its own acceptance test, budget and depth limit, so
each value is the double integrate_shock returns alone. Within memo(), the
kernels look both integrals of a pair up by their keys before computing
them (recall_pair): the pair is integrated together where neither is kept
and the missing one alone otherwise, so a command integrates each distinct
kernel once. The thresholds, every win integral and the turnout quantities
read these kernels, also over a piece whose end moves with r or mu
(gamma_star, a kink of the saturated win map), so they are the only
integrals an analytic command computes. A truncated shock
(TruncatedDistribution) has its support as its truncation_window, so
shock_bounds and integrate_shock_pair take it as they take a
DistributionSpec. Outside memo() nothing is kept.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .errors import QuadratureError, UsageError


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        # Written so that NaN fails them: NaN compares false to everything.
        if not 0.0 < self.abs_tol < math.inf:
            raise UsageError(f"abs_tol must be finite and positive, got {self.abs_tol!r}")
        if not 0.0 <= self.rel_tol < math.inf:
            raise UsageError(f"rel_tol must be finite and non-negative, got {self.rel_tol!r}")


DEFAULT_QUADRATURE = QuadratureConfig()

# QUADPACK dqk15 on [-1, 1], one row per Kronrod abscissa x >= 0 (x > 0
# stands for the pair +-x): (x, K15 weight, G7 weight), the G7 weight being 0
# where x is not also a Gauss abscissa.
_QK15 = (
    (0.99145537112081263921, 0.02293532201052922496, 0.0),
    (0.94910791234275852453, 0.06309209262997855329, 0.12948496616886969327),
    (0.86486442335976907279, 0.10479001032225018384, 0.0),
    (0.74153118559939443986, 0.14065325971552591875, 0.27970539148927666790),
    (0.58608723546769113029, 0.16900472663926790283, 0.0),
    (0.40584515137739716691, 0.19035057806478540991, 0.38183005050511894495),
    (0.20778495500789846760, 0.20443294007529889241, 0.0),
    (0.0, 0.20948214108472782801, 0.41795918367346938776),
)


def _panel(f, a, b):
    """(K15, G7) estimates of the integral of f over [a, b]; 15 evaluations."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    k15 = g7 = 0.0
    for x, wk, wg in _QK15:
        fx = f(centre - half * x) + f(centre + half * x) if x else f(centre)
        k15 += wk * fx
        g7 += wg * fx
    return half * k15, half * g7


def _panel_pair(fa, fb, pdf, a, b):
    """_panel of g -> fa(g) * pdf(g) and of g -> fb(g) * pdf(g) together,
    (K15_a, G7_a, K15_b, G7_b), reading pdf once per node. Each sum takes
    _panel's operations in _panel's order, so each pair is _panel's."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ka = ga = kb = gb = 0.0
    for x, wk, wg in _QK15:
        if x:
            lo = centre - half * x
            hi = centre + half * x
            w_lo = pdf(lo)
            w_hi = pdf(hi)
            fa_x = fa(lo) * w_lo + fa(hi) * w_hi
            fb_x = fb(lo) * w_lo + fb(hi) * w_hi
        else:
            w = pdf(centre)
            fa_x = fa(centre) * w
            fb_x = fb(centre) * w
        ka += wk * fa_x
        ga += wg * fa_x
        kb += wk * fb_x
        gb += wg * fb_x
    return half * ka, half * ga, half * kb, half * gb


class _Budget:
    __slots__ = ("left", "worst")

    def __init__(self, n):
        self.left = n
        self.worst = 0.0


# Bisections one integral may spend. A fault bound, not a setting: no command
# spends more than a few dozen, even at tolerances of 1e-15.
_MAX_SUBDIVISIONS = 2000

# A 2^-60 wide subinterval is below float resolution on any sane domain;
# treat needing one as a failure rather than recursing to the frame limit.
_MAX_DEPTH = 60


def _spend(err, a, b, budget, depth):
    """Record the rejection of the panel [a, b] at depth, with error estimate
    err, and spend one bisection of budget on it, or raise QuadratureError."""
    if not math.isfinite(err):
        # A NaN or inf integrand value is a failure, not an error to bisect
        # away; max() would also drop a NaN from the worst-error estimate.
        raise QuadratureError(f"non-finite integrand on [{a!r}, {b!r}]", math.inf)
    budget.worst = max(budget.worst, err)
    if budget.left <= 0 or depth >= _MAX_DEPTH:
        raise QuadratureError("subdivision budget exhausted", budget.worst)
    budget.left -= 1


def _adapt(f, a, b, abs_tol, rel_tol, budget, depth):
    k15, g7 = _panel(f, a, b)
    err = abs(k15 - g7)
    if err <= max(abs_tol, rel_tol * abs(k15)):
        return k15
    _spend(err, a, b, budget, depth)
    return _halves(f, a, b, abs_tol, rel_tol, budget, depth)


def _halves(f, a, b, abs_tol, rel_tol, budget, depth):
    """_adapt over each half of [a, b], one level down, summed."""
    m = 0.5 * (a + b)
    half_abs = 0.5 * abs_tol
    return _adapt(f, a, m, half_abs, rel_tol, budget, depth + 1) + _adapt(
        f, m, b, half_abs, rel_tol, budget, depth + 1
    )


def _adapt_pair(fa, fb, pdf, a, b, abs_tol, rel_tol, budgets, depth):
    """(_adapt of g -> fa(g) * pdf(g), the same of fb) over [a, b], from one
    _panel_pair per panel that both still need. Each keeps its own
    acceptance, non-finite check and budget (budgets holds one each); both
    halve abs_tol alike, so one serves. Once one is accepted the other
    recurses alone through _adapt, so each value is its _adapt's double."""
    ka, ga, kb, gb = _panel_pair(fa, fb, pdf, a, b)
    err_a = abs(ka - ga)
    err_b = abs(kb - gb)
    done_a = err_a <= max(abs_tol, rel_tol * abs(ka))
    done_b = err_b <= max(abs_tol, rel_tol * abs(kb))
    if done_a and done_b:
        return ka, kb
    if not done_a:
        _spend(err_a, a, b, budgets[0], depth)
    if not done_b:
        _spend(err_b, a, b, budgets[1], depth)
    if done_a:
        return ka, _halves(lambda g: fb(g) * pdf(g), a, b, abs_tol, rel_tol, budgets[1], depth)
    if done_b:
        return _halves(lambda g: fa(g) * pdf(g), a, b, abs_tol, rel_tol, budgets[0], depth), kb
    m = 0.5 * (a + b)
    half_abs = 0.5 * abs_tol
    la, lb = _adapt_pair(fa, fb, pdf, a, m, half_abs, rel_tol, budgets, depth + 1)
    ra, rb = _adapt_pair(fa, fb, pdf, m, b, half_abs, rel_tol, budgets, depth + 1)
    return la + ra, lb + rb


def _limits(a, b):
    """a and b as floats; a UsageError where either is not finite."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise UsageError("integrate needs finite limits; truncate first")
    return a, b


def integrate(f, a, b, config: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integrate a scalar callable over the finite interval [a, b]."""
    a, b = _limits(a, b)
    if b <= a:
        return 0.0
    budget = _Budget(_MAX_SUBDIVISIONS)
    return _adapt(f, a, b, config.abs_tol, config.rel_tol, budget, 0)


def shock_bounds(shock, lo=None, hi=None):
    """Truncation bounds for integrals weighted by the shock density.

    Improper limits are replaced by the 1e-12 / 1 - 1e-12 quantiles, the
    shock's truncation_window, computed once per shock; finite piece
    boundaries are clipped into that window.
    """
    qlo, qhi = shock.truncation_window
    a = qlo if lo is None else min(max(float(lo), qlo), qhi)
    b = qhi if hi is None else min(max(float(hi), qlo), qhi)
    return a, b


def integrate_shock(fn, shock, lo=None, hi=None, config: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integral of fn(gamma) * shock.pdf(gamma) over [lo, hi] (default: whole
    line), with the shock's float pdf closure bound once (distributions)."""
    a, b = shock_bounds(shock, lo, hi)
    pdf = shock._scalar_pdf
    return integrate(lambda g: fn(g) * pdf(g), a, b, config)


def integrate_shock_pair(
    fa, fb, shock, lo=None, hi=None, config: QuadratureConfig = DEFAULT_QUADRATURE
) -> tuple[float, float]:
    """(integrate_shock(fa, ...), integrate_shock(fb, ...)) over the same
    [lo, hi], from one adaptive pass that reads the shock pdf once per node
    for both (_adapt_pair). Each value is the very double integrate_shock
    returns. Where both fail, fa's QuadratureError is raised, as the two
    integrate_shock calls in that order raise it."""
    a, b = _limits(*shock_bounds(shock, lo, hi))
    if b <= a:
        return 0.0, 0.0
    pdf = shock._scalar_pdf
    budgets = (_Budget(_MAX_SUBDIVISIONS), _Budget(_MAX_SUBDIVISIONS))
    try:
        return _adapt_pair(fa, fb, pdf, a, b, config.abs_tol, config.rel_tol, budgets, 0)
    except QuadratureError:
        # The pass stops at the first failure of either kernel. fa alone
        # decides which is raised: its own failure if it has one, else fb's.
        budget = _Budget(_MAX_SUBDIVISIONS)
        _adapt(lambda g: fa(g) * pdf(g), a, b, config.abs_tol, config.rel_tol, budget, 0)
        raise


# The integrals of the command now running, by key; None outside memo().
# A context variable, so another thread or task does not see it.
_memo = ContextVar("refcalc_integral_memo", default=None)


@contextmanager
def memo():
    """Keep every integral that recall_pair computes until the block exits.

    The CLI enters it once per command. Worker processes forked inside the
    block start from a copy and fill their own. Nothing outlives the block,
    so each command does the work of a cold one.
    """
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def recall_pair(compute, compute_one, key_a, key_b):
    """compute(), a pair of values, or inside memo() the pair kept under
    key_a and key_b. Both keys are looked up first: compute() runs only where
    neither is kept, and compute_one(*key) for the one that is missing
    otherwise. What they return is kept; an exception is not.

    Key parts compare by ==, so 0.0 and -0.0 share a key. That is exact for
    the one caller, the kernels (thresholds._kernel_pair): a piece end at
    either zero gives the same G7-K15 nodes, the taste cdf at x - 0.0 and
    x + 0.0 is the same double, and so is the truncated taste's E|u + x| at
    g + 0.0 and g + (-0.0), which compare equal; so a hit returns the very
    double that recomputing would. A distribution or QuadratureConfig part
    compares by its own fields.
    """
    table = _memo.get()
    if table is None:
        return compute()
    a = table.get(key_a)
    b = table.get(key_b)
    if a is None and b is None:
        a, b = compute()
        table[key_a] = a
        table[key_b] = b
    elif a is None:
        a = table[key_a] = compute_one(*key_a)
    elif b is None:
        b = table[key_b] = compute_one(*key_b)
    return a, b
