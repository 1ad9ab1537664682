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
each side. Every bisection spends one unit of max_subdivisions; exhausting the
budget, or reaching _MAX_DEPTH, raises QuadratureError carrying the worst
rejected |K15 - G7|. A NaN or inf integrand value makes |K15 - G7| NaN (G7's
zero weights turn an inf into NaN), so its panel is rejected; it then raises
QuadratureError at once, with achieved tolerance inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import QuadratureError, UsageError


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self):
        # Written so that NaN fails them: NaN compares false to everything.
        if not 0.0 < self.abs_tol < math.inf:
            raise UsageError(f"abs_tol must be finite and positive, got {self.abs_tol!r}")
        if not 0.0 <= self.rel_tol < math.inf:
            raise UsageError(f"rel_tol must be finite and non-negative, got {self.rel_tol!r}")
        # A NaN or inf budget would never run out; bool is an int subclass.
        if type(self.max_subdivisions) is not int:
            raise UsageError(f"max_subdivisions must be an integer, got {self.max_subdivisions!r}")
        if self.max_subdivisions < 1:
            raise UsageError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()

# Tail mass discarded when an improper integral is truncated to quantiles.
TRUNCATION_TAIL = 1e-12

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


class _Budget:
    __slots__ = ("left", "worst")

    def __init__(self, n):
        self.left = n
        self.worst = 0.0


# A 2^-60 wide subinterval is below float resolution on any sane domain;
# treat needing one as a failure rather than recursing to the frame limit.
_MAX_DEPTH = 60


def _adapt(f, a, b, abs_tol, rel_tol, budget, depth):
    k15, g7 = _panel(f, a, b)
    err = abs(k15 - g7)
    if err <= max(abs_tol, rel_tol * abs(k15)):
        return k15
    if not math.isfinite(err):
        # A NaN or inf integrand value is a failure, not an error to bisect
        # away; max() would also drop a NaN from the worst-error estimate.
        raise QuadratureError(f"non-finite integrand on [{a!r}, {b!r}]", math.inf)
    budget.worst = max(budget.worst, err)
    if budget.left <= 0 or depth >= _MAX_DEPTH:
        raise QuadratureError("subdivision budget exhausted", budget.worst)
    budget.left -= 1
    m = 0.5 * (a + b)
    half_abs = 0.5 * abs_tol
    return _adapt(f, a, m, half_abs, rel_tol, budget, depth + 1) + _adapt(
        f, m, b, half_abs, rel_tol, budget, depth + 1
    )


def integrate(f, a, b, config: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integrate a scalar callable over the finite interval [a, b]."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise UsageError("integrate needs finite limits; truncate first")
    if b <= a:
        return 0.0
    budget = _Budget(config.max_subdivisions)
    return _adapt(f, a, b, config.abs_tol, config.rel_tol, budget, 0)


def shock_bounds(shock, lo=None, hi=None):
    """Truncation bounds for integrals weighted by the shock density.

    Improper limits are replaced by the 1e-12 / 1 - 1e-12 quantiles; finite
    piece boundaries are clipped into that window.
    """
    qlo = shock.quantile(TRUNCATION_TAIL)
    qhi = shock.quantile(1.0 - TRUNCATION_TAIL)
    a = qlo if lo is None else min(max(float(lo), qlo), qhi)
    b = qhi if hi is None else min(max(float(hi), qlo), qhi)
    return a, b


def integrate_shock(fn, shock, lo=None, hi=None, config: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integral of fn(gamma) * shock.pdf(gamma) over [lo, hi] (default: whole line)."""
    a, b = shock_bounds(shock, lo, hi)
    return integrate(lambda g: fn(g) * shock.pdf(g), a, b, config)
