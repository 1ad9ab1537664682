"""Referendum-decision thresholds in the conservative share r.

Each threshold is the r at which holding a referendum stops (or starts)
paying off for Right, under one of the regime/bias configurations:

* gamma_star: the pivotal aggregate shock where the referendum majority flips;
* r_bind: binding referendum with initially diverged positions (b_R >= 0);
* r_star: non-binding referendum with initially aligned positions
  (b_L < b_R < 0); Right gains below it, loses above;
* r_star_star: non-binding with diverged positions (b_R >= 0); Right gains
  above it;
* delta_at_rbind / br_dagger_ddagger: where r_star_star sits relative to
  r_bind as b_R moves through -b_L, located by a bounded sign scan.

All of them come from conditions affine in r with positive slope, so the
closed ratios are exact roots; they are reported with the residual of the
defining condition, the containing bracket, and iteration counts so callers
can audit convergence. None depends on mu: the popularity channel scales the
net benefit without moving its sign change (as long as the affine win map
never saturates; see the election module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .distributions import DistributionSpec
from .errors import RootFindError, UsageError
from .model import ElectorateParams, referendum_support, require_valid
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate_shock

ROOT_XTOL = 1e-12
ROOT_MAXITER = 200
RESIDUAL_LIMIT = 1e-9


@dataclass(frozen=True)
class ThresholdReport:
    name: str
    value: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    flags: tuple[str, ...] = ()


def _brent(f, lo, hi, name):
    try:
        root, info = optimize.brentq(
            f, lo, hi, xtol=ROOT_XTOL, maxiter=ROOT_MAXITER, full_output=True
        )
    except ValueError as exc:
        raise RootFindError(f"{name}: {exc}") from exc
    if not info.converged:
        raise RootFindError(f"{name}: no convergence in {ROOT_MAXITER} iterations")
    residual = abs(f(root))
    if residual >= RESIDUAL_LIMIT:
        raise RootFindError(f"{name}: residual {residual:.3e} above {RESIDUAL_LIMIT}")
    return root, residual, info.iterations


def _check_biases(b_L, b_R, p):
    if not p > 0:
        raise UsageError(f"p must be positive, got {p}")
    if not b_L < 0:
        raise UsageError(f"b_L must be negative, got {b_L}")
    if not b_L <= b_R:
        raise UsageError(f"need b_L <= b_R, got b_L={b_L}, b_R={b_R}")


def gamma_star(params: ElectorateParams) -> ThresholdReport:
    """Pivotal shock: support for the emerging policy crosses 1/2.

    Always interior to (-b_R, -b_L): at gamma = -b_R only Right's half of the
    electorate is split evenly, so support is below 1/2, and symmetrically
    above at -b_L. Consequently a near-pivotal referendum always leaves the
    parties diverged afterwards.
    """
    require_valid(params)
    lo, hi = -params.b_R, -params.b_L
    root, residual, iters = _brent(
        lambda g: referendum_support(params, g) - 0.5, lo, hi, "gamma_star"
    )
    return ThresholdReport("gamma_star", root, residual, (lo, hi), iters)


def r_bind(
    b_L: float,
    b_R: float,
    p: float,
    taste: DistributionSpec,
    shock: DistributionSpec,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> ThresholdReport:
    """Cohesion threshold for a binding referendum (diverged start, b_R >= 0).

    The net benefit is proportional to r*den - num with

        num = integral of B(gamma + b_L - p) g(gamma),
        den = integral of (1 - B(p + gamma + b_R) + B(gamma + b_L - p)) g(gamma),

    so the root is the closed ratio num/den, evaluated by quadrature.
    """
    _check_biases(b_L, b_R, p)
    if b_R < 0:
        raise UsageError("r_bind needs initially diverged positions (b_R >= 0)")
    B = taste.cdf
    num = integrate_shock(lambda g: B(g + b_L - p), shock, None, None, config)
    den = integrate_shock(
        lambda g: 1.0 - B(p + g + b_R) + B(g + b_L - p), shock, None, None, config
    )
    value = num / den
    residual = abs(value * den - num)
    return ThresholdReport("r_bind", value, residual, (0.0, 1.0), 0)


def r_star(
    b_L: float,
    b_R: float,
    p: float,
    taste: DistributionSpec,
    shock: DistributionSpec,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> ThresholdReport:
    """Cohesion threshold for a non-binding referendum from an aligned start.

    Requires b_L <= b_R < 0. Proportional condition on the middle interval
    [-b_R, -b_L]: (1-r) * B(-p + gamma + b_L) - r * B(-p - gamma - b_R),
    giving r_star = 1/(1 + tau) with tau the ratio of the two integrals.
    tau >= 1, hence r_star <= 1/2. The equal-bias edge b_R = b_L collapses
    the interval; the limit is 1/2 and is returned exactly.
    """
    _check_biases(b_L, b_R, p)
    if not b_R < 0:
        raise UsageError("r_star needs initially aligned positions (b_R < 0)")
    if b_R == b_L:
        return ThresholdReport(
            "r_star", 0.5, 0.0, (0.0, 0.5), 0, ("degenerate_equal_biases",)
        )
    B = taste.cdf
    num = integrate_shock(
        lambda g: B(-p - g - b_R), shock, -b_R, -b_L, config
    )
    den = integrate_shock(
        lambda g: B(-p + g + b_L), shock, -b_R, -b_L, config
    )
    value = den / (num + den)
    residual = abs(value * (num + den) - den)
    return ThresholdReport("r_star", value, residual, (0.0, 0.5), 0)


def r_star_star(
    b_L: float,
    b_R: float,
    p: float,
    taste: DistributionSpec,
    shock: DistributionSpec,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> ThresholdReport:
    """Cohesion threshold for a non-binding referendum from a diverged start.

    The net benefit restricted to the aligned tails (shock outside
    [-b_R, -b_L]) is proportional to r*A - (1-r)*C with tail integrals A and
    C, affine and increasing in r, so the unique root is the closed ratio
    C/(A+C).
    """
    _check_biases(b_L, b_R, p)
    if b_R < 0:
        raise UsageError("r_star_star needs initially diverged positions (b_R >= 0)")
    B = taste.cdf
    A = integrate_shock(
        lambda g: B(-p - g - b_R), shock, None, -b_R, config
    ) + integrate_shock(lambda g: B(-p - g - b_R), shock, -b_L, None, config)
    C = integrate_shock(
        lambda g: B(-p + g + b_L), shock, None, -b_R, config
    ) + integrate_shock(lambda g: B(-p + g + b_L), shock, -b_L, None, config)

    value = C / (A + C)
    residual = abs(value * A - (1.0 - value) * C)
    return ThresholdReport("r_star_star", value, residual, (0.0, 1.0), 0)


def delta_at_rbind(
    b_L: float,
    b_R: float,
    p: float,
    taste: DistributionSpec,
    shock: DistributionSpec,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Middle-interval condition evaluated at r = r_bind.

    Sign tells whether r_star_star lies above (negative) or below (positive)
    r_bind: the tail condition at r_bind equals minus this middle integral,
    because the full-line condition vanishes there by construction.
    """
    rb = r_bind(b_L, b_R, p, taste, shock, config).value
    B = taste.cdf
    return integrate_shock(
        lambda g: (1.0 - rb) * B(-p + g + b_L) - rb * B(-p - g - b_R),
        shock,
        -b_R,
        -b_L,
        config,
    )


def br_dagger_ddagger(
    b_L: float,
    p: float,
    taste: DistributionSpec,
    shock: DistributionSpec,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> tuple[ThresholdReport, ThresholdReport]:
    """Bounds of the b_R region around -b_L where r_star_star and r_bind cross over.

    delta_at_rbind vanishes at b_R = -b_L, is negative just above and positive
    just below. The upper report (b_R_dagger) locates its next sign change
    above -b_L, the lower report (b_R_ddagger) the next one below, each by
    expanding probes followed by Brent. The search window is
    [0, -b_L + 4 * shock scale]; hitting an edge without a sign change returns
    the edge with a not_found_in_window flag. A scan result, not a theorem:
    only the crossover neighbourhood of -b_L is guaranteed.
    """
    pivot = -b_L
    _check_biases(b_L, pivot, p)
    window_hi = pivot + 4.0 * shock.scale

    def delta(b_R):
        return delta_at_rbind(b_L, b_R, p, taste, shock, config)

    def scan(direction, edge, name, want_sign):
        # Probe away from the pivot with doubling steps until the sign of
        # delta matches want_sign, then refine by Brent on the bracket.
        span = abs(edge - pivot)
        step = span / 64.0
        prev_x = pivot + direction * min(step / 16.0, 1e-6)
        while True:
            x = pivot + direction * step
            if (direction > 0 and x >= edge) or (direction < 0 and x <= edge):
                x = edge
            val = delta(x)
            if val == 0.0 or (val > 0) == (want_sign > 0):
                lo, hi = sorted((prev_x, x))
                root, residual, iters = _brent(delta, lo, hi, name)
                return ThresholdReport(name, root, residual, (lo, hi), iters)
            if x == edge:
                return ThresholdReport(
                    name,
                    edge,
                    abs(val),
                    tuple(sorted((prev_x, x))),
                    0,
                    ("not_found_in_window",),
                )
            prev_x = x
            step *= 2.0

    dagger = scan(+1.0, window_hi, "b_R_dagger", +1.0)
    ddagger = scan(-1.0, 0.0, "b_R_ddagger", -1.0)
    return dagger, ddagger
