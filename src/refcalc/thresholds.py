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

The three cohesion thresholds solve one condition affine in r with positive
slope, (1-r) * L - r * R = 0, with L and R the shock integrals of
B(-p + gamma + b_L) and B(-p - gamma - b_R) over the shock pieces where the
referendum moves positions. Each root is the closed kernel ratio L/(L+R),
reported with the residual of the condition. None depends on mu: the
popularity channel scales the net benefit without moving its sign change (as
long as the affine win map never saturates; see the election module).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _kernels(b_L, b_R, p, taste, shock, pieces, config):
    """Shock integrals L of B(-p + gamma + b_L) and R of B(-p - gamma - b_R).

    Each is summed over pieces, a sequence of (lo, hi) shock intervals with
    None for an infinite end.
    """
    B = taste.cdf
    L = R = 0.0
    for lo, hi in pieces:
        L += integrate_shock(lambda g: B(-p + g + b_L), shock, lo, hi, config)
        R += integrate_shock(lambda g: B(-p - g - b_R), shock, lo, hi, config)
    return L, R


def _ratio(name, L, R, bracket):
    value = L / (L + R)
    return ThresholdReport(name, value, abs((1.0 - value) * L - value * R), bracket, 0)


def r_bind(
    b_L: float,
    b_R: float,
    p: float,
    taste: DistributionSpec,
    shock: DistributionSpec,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> ThresholdReport:
    """Cohesion threshold for a binding referendum (diverged start, b_R >= 0).

    The net benefit is proportional to (1-r) * L - r * R with the kernels
    integrated over the whole shock line, so r_bind = L/(L+R).
    """
    _check_biases(b_L, b_R, p)
    if b_R < 0:
        raise UsageError("r_bind needs initially diverged positions (b_R >= 0)")
    L, R = _kernels(b_L, b_R, p, taste, shock, ((None, None),), config)
    return _ratio("r_bind", L, R, (0.0, 1.0))


def r_star(
    b_L: float,
    b_R: float,
    p: float,
    taste: DistributionSpec,
    shock: DistributionSpec,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> ThresholdReport:
    """Cohesion threshold for a non-binding referendum from an aligned start.

    Requires b_L <= b_R < 0. The condition lives on the middle interval
    [-b_R, -b_L], where the parties split, so r_star = L/(L+R) over it;
    R >= L there, hence r_star <= 1/2. The equal-bias edge b_R = b_L
    collapses the interval; the limit is 1/2 and is returned exactly.
    """
    _check_biases(b_L, b_R, p)
    if not b_R < 0:
        raise UsageError("r_star needs initially aligned positions (b_R < 0)")
    if b_R == b_L:
        return ThresholdReport(
            "r_star", 0.5, 0.0, (0.0, 0.5), 0, ("degenerate_equal_biases",)
        )
    L, R = _kernels(b_L, b_R, p, taste, shock, ((-b_R, -b_L),), config)
    return _ratio("r_star", L, R, (0.0, 0.5))


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
    [-b_R, -b_L]) is proportional to r * R - (1-r) * L with the kernels
    integrated over both tails, so the unique root is L/(L+R).
    """
    _check_biases(b_L, b_R, p)
    if b_R < 0:
        raise UsageError("r_star_star needs initially diverged positions (b_R >= 0)")
    tails = ((None, -b_R), (-b_L, None))
    L, R = _kernels(b_L, b_R, p, taste, shock, tails, config)
    return _ratio("r_star_star", L, R, (0.0, 1.0))


def delta_at_rbind(
    b_L: float,
    b_R: float,
    p: float,
    taste: DistributionSpec,
    shock: DistributionSpec,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Middle-interval condition (1-r) * L - r * R evaluated at r = r_bind.

    Sign tells whether r_star_star lies above (negative) or below (positive)
    r_bind: the tail condition at r_bind equals minus this middle integral,
    because the full-line condition vanishes there by construction.
    """
    rb = r_bind(b_L, b_R, p, taste, shock, config).value
    L, R = _kernels(b_L, b_R, p, taste, shock, ((-b_R, -b_L),), config)
    return (1.0 - rb) * L - rb * R


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
