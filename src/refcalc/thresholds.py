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
referendum moves positions (model.moved_pieces). Each root is the closed
kernel ratio L/(L+R), reported with the residual of the condition; where
both kernels underflow to 0 every r solves it, and RootFindError says so.
Where both lie below the quadrature's abs_tol the report is flagged
kernels_below_abs_tol, as the tolerance then bounds nothing. None
depends on mu: the popularity channel scales the net benefit without moving
its sign change (as long as the affine win map never saturates; see the
election module). Neither does any kernel, so within one command
(quadrature.memo) each kernel integral is computed once: a sweep over r or mu
integrates them at its first point only, and r_bind's L, which does not
involve b_R, once for all b_R. The win integrals read the same kernels
(election._wins), the spoiler race two more L-form ones (election._race). A
kernel over a piece whose end moves with r or mu (gamma_star, a kink of the
saturated win map) is kept like any other, so a command that reads it twice,
as the congruence levels and delta do, integrates it once.

The roots that remain (gamma_star and the b_R scan) come from _brent, a port
of scipy's brentq.c (Brent, "Algorithms for Minimization without
Derivatives", 1973, ch. 4, with scipy's own extrapolation formula). It keeps
brentq's tolerances (xtol = ROOT_XTOL, rtol = 4 eps, maxiter = ROOT_MAXITER),
its iteration order and its float operations, so root and iteration count
equal brentq's bit for bit. At an exact zero on an endpoint it returns that
endpoint with count 1 (brentq leaves its count unset there). The port spares
importing scipy.optimize, which loads scipy.linalg, sparse, fft and spatial
and was about a third of the package's import time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .distributions import DistributionSpec
from .errors import RootFindError, UsageError
from .model import (
    ElectorateParams,
    ReferendumRegime,
    moved_pieces,
    referendum_support,
    require_valid,
    shock_pieces,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate_shock, recall

ROOT_XTOL = 1e-12
ROOT_MAXITER = 200
RESIDUAL_LIMIT = 1e-9
# brentq's default relative tolerance.
_ROOT_RTOL = 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class ThresholdReport:
    name: str
    value: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    flags: tuple[str, ...] = ()


def _brent(f, lo, hi, name):
    """Root of f on [lo, hi], its residual |f(root)| and the iteration count.

    Step for step scipy's brentq.c: xpre/xcur are the last two iterates, xblk
    the point that brackets the root with xcur, spre/scur the previous and
    current steps. A NaN value, an unbracketed interval and non-convergence
    within ROOT_MAXITER iterations raise RootFindError.
    """

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise RootFindError(
                f"{name}: the function value at x={x} is NaN; solver cannot continue"
            )
        return fx

    xpre, xcur = float(lo), float(hi)
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre, 0.0, 1
    if fcur == 0.0:
        return xcur, 0.0, 1
    if (fpre < 0.0) == (fcur < 0.0):
        raise RootFindError(f"{name}: f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, ROOT_MAXITER + 1):
        # brentq also asks fpre, fcur != 0: fpre never is here, and a zero
        # fcur ends the iteration below whatever the bracket.
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            break
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # Secant interpolation.
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # Inverse quadratic extrapolation; where C divides by zero
                # (inf or NaN) the step is rejected, as here.
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    else:
        raise RootFindError(f"{name}: no convergence in {ROOT_MAXITER} iterations")
    residual = abs(fcur)
    if residual >= RESIDUAL_LIMIT:
        raise RootFindError(f"{name}: residual {residual:.3e} above {RESIDUAL_LIMIT}")
    return xcur, residual, iterations


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


def _integrand(form, b, p, taste):
    """Kernel integrand of form "L", B(-p + gamma + b), or "R", B(-p - gamma - b),
    at a float gamma, with the taste's float cdf closure B bound once."""
    B = taste._scalar_cdf
    return (lambda g: B(-p + g + b)) if form == "L" else (lambda g: B(-p - g - b))


def _kernel(form, b, p, taste, shock, lo, hi, config):
    """Shock integral of _integrand(form, b, p, taste) over [lo, hi], looked
    up before it is computed within quadrature.memo()."""
    def compute():
        return integrate_shock(_integrand(form, b, p, taste), shock, lo, hi, config)

    return recall(compute, form, b, p, taste, shock, lo, hi, config)


def _kernels(b_L, b_R, p, taste, shock, pieces, config):
    """Shock integrals L of B(-p + gamma + b_L) and R of B(-p - gamma - b_R),
    each summed over pieces, a sequence of model.shock_pieces entries."""
    L = R = 0.0
    for lo, hi, _ in pieces:
        L += _kernel("L", b_L, p, taste, shock, lo, hi, config)
        R += _kernel("R", b_R, p, taste, shock, lo, hi, config)
    return L, R


def _ratio(name, L, R, bracket, flags=()):
    if L + R == 0.0:
        raise RootFindError(f"{name}: both kernels are 0, so the condition holds for every r")
    value = L / (L + R)
    return ThresholdReport(name, value, abs((1.0 - value) * L - value * R), bracket, 0, flags)


def _cohesion(name, regime, diverged, bracket, doc):
    """The cohesion threshold name: the kernel ratio L/(L+R) over the moved
    pieces of regime, from a diverged (b_R >= 0) or an aligned start."""

    def threshold(
        b_L: float,
        b_R: float,
        p: float,
        taste: DistributionSpec,
        shock: DistributionSpec,
        config: QuadratureConfig = DEFAULT_QUADRATURE,
    ) -> ThresholdReport:
        _check_biases(b_L, b_R, p)
        if (b_R >= 0) != diverged:
            start = "diverged" if diverged else "aligned"
            sign = ">=" if diverged else "<"
            raise UsageError(f"{name} needs initially {start} positions (b_R {sign} 0)")
        if b_R == b_L:
            # Only r_star gets here: its split piece is empty.
            return ThresholdReport(name, 0.5, 0.0, bracket, 0, ("degenerate_equal_biases",))
        L, R = _kernels(b_L, b_R, p, taste, shock, moved_pieces(b_L, b_R, regime), config)
        flags = ("kernels_below_abs_tol",) if max(L, R) < config.abs_tol else ()
        return _ratio(name, L, R, bracket, flags)

    threshold.__name__ = threshold.__qualname__ = name
    threshold.__doc__ = doc
    return threshold


r_bind = _cohesion(
    "r_bind", ReferendumRegime.BINDING, True, (0.0, 1.0),
    """Cohesion threshold for a binding referendum (diverged start, b_R >= 0).

    The net benefit is proportional to (1-r) * L - r * R with the kernels
    integrated over the whole shock line, so r_bind = L/(L+R).
    """,
)

r_star = _cohesion(
    "r_star", ReferendumRegime.NON_BINDING, False, (0.0, 0.5),
    """Cohesion threshold for a non-binding referendum from an aligned start.

    Requires b_L <= b_R < 0. The condition lives on the middle interval
    [-b_R, -b_L], where the parties split, so r_star = L/(L+R) over it;
    R >= L there, hence r_star <= 1/2. The equal-bias edge b_R = b_L
    collapses the interval; the limit is 1/2 and is returned exactly.
    """,
)

r_star_star = _cohesion(
    "r_star_star", ReferendumRegime.NON_BINDING, True, (0.0, 1.0),
    """Cohesion threshold for a non-binding referendum from a diverged start.

    The net benefit restricted to the aligned tails (shock outside
    [-b_R, -b_L]) is proportional to r * R - (1-r) * L with the kernels
    integrated over both tails, so the unique root is L/(L+R).
    """,
)


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
    because the full-line condition vanishes there by construction. Both
    thresholds are kernel ratios, which are the net benefit's sign changes
    only for mu <= 1/2, where the win map never saturates; so only there does
    this sign compare where the referendums stop paying off.
    """
    rb = r_bind(b_L, b_R, p, taste, shock, config).value
    split = shock_pieces(b_L, b_R, ReferendumRegime.NON_BINDING)[1:2]
    L, R = _kernels(b_L, b_R, p, taste, shock, split, config)
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
    only the crossover neighbourhood of -b_L is guaranteed. Built on
    delta_at_rbind, the bounds hold as sign conditions of the net benefit
    only for mu <= 1/2.
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
