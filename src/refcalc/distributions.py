"""Symmetric zero-mean scale families used for taste draws and popularity shocks.

Two families are supported, normal and logistic. Both are symmetric about zero,
log-concave, and parameterised by a single positive scale (the standard
deviation for the normal family, the usual logistic scale parameter for the
logistic family). Cdf and quantile round-trip to double precision: the normal
cdf goes through erfc and its quantile through erfcinv, the logistic pair is
expit/logit in closed form. logcdf and its inverse ilogcdf carry the same
pair into the far tail (log_ndtr / ndtri_exp, log_expit / the logit of a
log-probability), where the cdf itself underflows.

A truncated variant restricts a family to a symmetric interval [-w, w] and
renormalises; it additionally exposes partial first moments and E|u + a| in
closed form, which the Monte Carlo oracle and the turnout intensity use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import UsageError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

FAMILIES = ("normal", "logistic")


def _check_finite(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise UsageError("distribution evaluated at a non-finite point")
    return arr


@dataclass(frozen=True)
class DistributionSpec:
    """A symmetric zero-mean distribution from a named scale family."""

    family: str
    scale: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError(
                f"unknown family {self.family!r}, expected one of {FAMILIES}"
            )
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise UsageError(f"scale must be finite and positive, got {self.scale}")

    def cdf(self, x):
        z = _check_finite(x) / self.scale
        if self.family == "normal":
            out = 0.5 * special.erfc(-z / _SQRT2)
        else:
            out = special.expit(z)
        return out if out.ndim else float(out)

    def pdf(self, x):
        z = _check_finite(x) / self.scale
        if self.family == "normal":
            out = _INV_SQRT2PI * np.exp(-0.5 * z * z) / self.scale
        else:
            s = special.expit(z)
            out = s * (1.0 - s) / self.scale
        return out if out.ndim else float(out)

    def quantile(self, q):
        qa = np.asarray(q, dtype=float)
        if np.any((qa <= 0) | (qa >= 1) | ~np.isfinite(qa)):
            raise UsageError("quantile argument must lie strictly in (0, 1)")
        if self.family == "normal":
            out = -self.scale * _SQRT2 * special.erfcinv(2.0 * qa)
        else:
            out = self.scale * (np.log(qa) - np.log1p(-qa))
        return out if out.ndim else float(out)

    def logcdf(self, x):
        """log cdf(x), accurate where cdf(x) underflows."""
        z = _check_finite(x) / self.scale
        if self.family == "normal":
            out = special.log_ndtr(z)
        else:
            out = special.log_expit(z)
        return out if out.ndim else float(out)

    def ilogcdf(self, log_q):
        """The quantile of exp(log_q): inverts logcdf for log_q < 0."""
        la = np.asarray(log_q, dtype=float)
        if np.any((la >= 0) | ~np.isfinite(la)):
            raise UsageError("ilogcdf argument must be finite and negative")
        if self.family == "normal":
            out = self.scale * special.ndtri_exp(la)
        else:
            out = self.scale * (la - np.log(-np.expm1(la)))
        return out if out.ndim else float(out)

    def partial_mean(self, lo, hi):
        """Integral of u * pdf(u) over [lo, hi], in closed form."""
        lo_a = np.asarray(lo, dtype=float)
        hi_a = np.asarray(hi, dtype=float)
        if np.any(np.isnan(lo_a)) or np.any(np.isnan(hi_a)):
            raise UsageError("partial_mean bounds must not be NaN")
        if np.any(hi_a < lo_a):
            raise UsageError("partial_mean needs lo <= hi")
        out = self._antideriv_u_pdf(hi_a) - self._antideriv_u_pdf(lo_a)
        return out if np.ndim(out) else float(out)

    def _antideriv_u_pdf(self, x):
        # An antiderivative of u * pdf(u).  Normal: -scale^2 * pdf(x).
        # Logistic: x * cdf(x) - scale * log(1 + exp(x/scale)), written with
        # logaddexp so large |x| cannot overflow.  Infinite arguments give 0:
        # both tail limits vanish for a zero-mean family.
        xa = np.asarray(x, dtype=float)
        finite = np.isfinite(xa)
        xs = np.where(finite, xa, 0.0)
        z = xs / self.scale
        if self.family == "normal":
            vals = -self.scale * _INV_SQRT2PI * np.exp(-0.5 * z * z)
        else:
            vals = xs * special.expit(z) - self.scale * np.logaddexp(0.0, z)
        out = np.where(finite, vals, 0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class TruncatedDistribution:
    """A DistributionSpec conditioned to the symmetric interval [-half_width, half_width]."""

    base: DistributionSpec
    half_width: float

    def __post_init__(self):
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise UsageError(
                f"half_width must be finite and positive, got {self.half_width}"
            )

    @property
    def _mass(self):
        return 1.0 - 2.0 * self.base.cdf(-self.half_width)

    def cdf(self, x):
        xa = _check_finite(x)
        lowmass = self.base.cdf(-self.half_width)
        out = np.clip((self.base.cdf(xa) - lowmass) / self._mass, 0.0, 1.0)
        out = np.where(xa <= -self.half_width, 0.0, out)
        out = np.where(xa >= self.half_width, 1.0, out)
        return out if out.ndim else float(out)

    def pdf(self, x):
        xa = _check_finite(x)
        inside = np.abs(xa) <= self.half_width
        out = np.where(inside, self.base.pdf(xa) / self._mass, 0.0)
        return out if out.ndim else float(out)

    def quantile(self, q):
        qa = np.asarray(q, dtype=float)
        if np.any((qa <= 0) | (qa >= 1) | ~np.isfinite(qa)):
            raise UsageError("quantile argument must lie strictly in (0, 1)")
        lowmass = self.base.cdf(-self.half_width)
        out = self.base.quantile(lowmass + qa * self._mass)
        out = np.clip(out, -self.half_width, self.half_width)
        return out if out.ndim else float(out)

    def partial_mean(self, lo, hi):
        """Integral of u * pdf_trunc(u) over [lo, hi] (clipped to the support)."""
        lo_a = np.maximum(np.asarray(lo, dtype=float), -self.half_width)
        hi_a = np.minimum(np.asarray(hi, dtype=float), self.half_width)
        lo_c = np.minimum(lo_a, hi_a)
        out = np.where(
            hi_a > lo_a, self.base.partial_mean(lo_c, hi_a) / self._mass, 0.0
        )
        return out if out.ndim else float(out)

    def mass(self, lo, hi):
        """Probability of [lo, hi] under the truncated distribution."""
        out = self.cdf(hi) - self.cdf(lo)
        return out if np.ndim(out) else float(out)

    def abs_moment(self, shift):
        """E|u + shift| for u drawn from the truncated distribution, closed form."""
        w = self.half_width
        a = np.asarray(shift, dtype=float)
        kink = np.clip(-a, -w, w)
        below = -(self.partial_mean(-w, kink) + a * self.mass(-w, kink))
        above = self.partial_mean(kink, w) + a * self.mass(kink, w)
        out = below + above
        return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class ShapeCheck:
    name: str
    passed: bool
    worst: float


@dataclass(frozen=True)
class ShapeReport:
    checks: tuple[ShapeCheck, ...]

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c.name for c in self.checks if not c.passed]


def validate_shape(dist: DistributionSpec, n_grid: int = 1000, tol: float = 1e-9) -> ShapeReport:
    """Check the structural properties the model relies on.

    Evaluated on a quantile-spanning grid: symmetry of the density, the
    mirror identity cdf(x) + cdf(-x) = 1, monotonicity of the cdf, the
    quantile/cdf round trip, quasi-concavity of the density, and
    log-concavity (second differences of log pdf, needed for the taste role).
    """
    qs = np.linspace(1e-6, 1.0 - 1e-6, n_grid)
    x = dist.quantile(qs)
    checks = []

    sym = np.max(np.abs(dist.pdf(x) - dist.pdf(-x)))
    checks.append(ShapeCheck("pdf_symmetric", sym <= tol, float(sym)))

    mirror = np.max(np.abs(dist.cdf(x) + dist.cdf(-x) - 1.0))
    checks.append(ShapeCheck("cdf_mirror_identity", mirror <= tol, float(mirror)))

    cdf_vals = dist.cdf(x)
    mono = float(np.min(np.diff(cdf_vals)))
    checks.append(ShapeCheck("cdf_strictly_increasing", mono > 0, mono))

    roundtrip = np.max(np.abs(cdf_vals - qs))
    checks.append(ShapeCheck("quantile_roundtrip", roundtrip <= 1e-8, float(roundtrip)))

    pos = x[x >= 0]
    quasi = float(np.max(np.diff(dist.pdf(pos)))) if len(pos) > 1 else 0.0
    checks.append(ShapeCheck("density_quasiconcave", quasi <= tol, quasi))

    # Log-concavity on an uneven grid: the chord slopes of log pdf must be
    # nonincreasing (plain second differences would be spacing-sensitive).
    logpdf = np.log(dist.pdf(x))
    slopes = np.diff(logpdf) / np.diff(x)
    logconc = float(np.max(np.diff(slopes))) if len(slopes) > 1 else 0.0
    checks.append(ShapeCheck("density_logconcave", logconc <= 1e-6, logconc))

    return ShapeReport(tuple(checks))
