"""Symmetric zero-mean scale families used for taste draws and popularity shocks.

Two families are supported, normal and logistic. Both are symmetric about zero,
log-concave, and parameterised by a single positive scale (the standard
deviation for the normal family, the usual logistic scale parameter for the
logistic family). Cdf and quantile round-trip to double precision: the normal
cdf goes through erfc and its quantile through erfcinv, the logistic pair is
expit/logit in closed form. logcdf and its inverse ilogcdf carry the same
pair into the far tail (log_ndtr / ndtri_exp, log_expit / the logit of a
log-probability), where the cdf itself underflows.

cdf, pdf and quantile take a branch for a Python float, the argument of every
integrand call in the shock integrals. It checks the argument with math
(math.isfinite, or the open unit interval for quantile) instead of building a
0-d array, which cost far more than the special function itself. The float
cdf runs the array path's algorithm in Python: the normal cdf is a port of
Cephes' erfc (ndtr.c; S. L. Moshier, Methods and Programs for Mathematical
Functions, 1989), which scipy.special.erfc runs, and the logistic cdf is
expit's 1 / (1 + exp(-z)). The pdf uses the array path's np.exp, and quantile
its formula. A float and an array element give bit-identical results, and
with them the CLI's CSVs and the oracle's golden file. math.erfc is not used:
it differs from scipy's erfc in the last bits on about 40% of N(0, 4^2)
points, where the port agrees with it at every point tested.

So no float closure needs scipy, and a two-party or spoiler command never
imports it; the import alone cost about 0.27 s and 26 MB per process.
scipy.special is imported at its first use (_LazySpecial): by the array
branches, logcdf and ilogcdf, the normal quantile and partial_mean's
logistic antiderivative, which serve the oracle, turnout's
TruncatedDistribution and phi_thresholds. The normal truncation_window,
which every shock integral reads, takes its two erfcinv values from
literals (_ERFCINV_WINDOW).

The float cdf and pdf are closures over family and scale (_scalar_formulas),
built once per spec and bound once per integral or root by the hot callers.
Not being fields, they stay out of ==, hash, repr and the memo keys; as they
do not pickle, a spec pickles as DistributionSpec(family, scale), which
builds them again in sweep --threads' workers.

A truncated variant restricts a family to a symmetric interval [-w, w] and
renormalises by its mass 1 - 2 cdf(-w), computed once, at construction. Its
quantile checks q once and maps it into the base family's formula. It
additionally exposes partial first moments and E|u + a| in closed form,
which the Monte Carlo oracle and the turnout intensity use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError


class _LazySpecial:
    """scipy.special, imported at the first attribute read. The float
    closures read none, so the two-party and spoiler calculus never imports
    scipy. The import rebinds the module global special to the module
    itself, so every later read costs what it would after a plain import."""

    def __getattr__(self, name):
        global special
        from scipy import special

        return getattr(special, name)


special = _LazySpecial()

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Cephes' MAXLOG, log(DBL_MAX): erfc underflows to 0 (or 2) where a^2 exceeds it.
_MAXLOG = 7.09782712893383996843e2

FAMILIES = ("normal", "logistic")

# Tail mass discarded on each side when an improper shock integral is
# truncated to quantiles (DistributionSpec.truncation_window).
TRUNCATION_TAIL = 1e-12
# scipy.special.erfcinv(2.0 * TRUNCATION_TAIL) and erfcinv(2.0 * (1.0 -
# TRUNCATION_TAIL)): the normal truncation window's quantiles need no scipy.
_ERFCINV_WINDOW = (4.974131215017515, -4.974133396262828)


_NON_FINITE = "distribution evaluated at a non-finite point"


def _check_finite(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise UsageError(_NON_FINITE)
    return arr


def _scalar_formulas(family, scale):
    """(cdf, pdf) of the family at scale for one scalar argument, raising
    UsageError where it is not finite: the float branch of the methods. The
    normal cdf is 0.5 erfc(a), a = -(x/scale)/sqrt(2), with Cephes' erfc/erf
    written out: ndtr.c's constants in polevl/p1evl's Horner order, and the
    underflow to 0 or 2 where a^2 > MAXLOG. The logistic cdf is expit; where
    math.exp overflows, C's exp gives inf and expit 0.0."""
    isfinite, exp, np_exp, sqrt2 = math.isfinite, math.exp, np.exp, _SQRT2
    if family == "normal":
        def cdf(x):
            a = -(x / scale) / sqrt2
            t = -a if a < 0.0 else a
            if t < 1.0:
                # erfc(a) = 1 - erf(a), erf(a) = a T(a^2) / U(a^2).
                z = a * a
                return 0.5 * (1.0 - a * ((((
                    9.60497373987051638749e0 * z + 9.00260197203842689217e1) * z
                    + 2.23200534594684319226e3) * z + 7.00332514112805075473e3) * z
                    + 5.55923013010394962768e4) / (((((
                        z + 3.35617141647503099647e1) * z
                        + 5.21357949780152679795e2) * z + 4.59432382970980127987e3) * z
                        + 2.26290000613890934246e4) * z + 4.92673942608635921086e4))
            z = -a * a
            if t < 8.0:
                p = ((((((((
                    2.46196981473530512524e-10 * t + 5.64189564831068821977e-1) * t
                    + 7.46321056442269912687e0) * t + 4.86371970985681366614e1) * t
                    + 1.96520832956077098242e2) * t + 5.26445194995477358631e2) * t
                    + 9.34528527171957607540e2) * t + 1.02755188689515710272e3) * t
                    + 5.57535335369399327526e2)
                q = (((((((
                    t + 1.32281951154744992508e1) * t + 8.67072140885989742329e1) * t
                    + 3.54937778887819891062e2) * t + 9.75708501743205489753e2) * t
                    + 1.82390916687909736289e3) * t + 2.24633760818710981792e3) * t
                    + 1.65666309194161350182e3) * t + 5.57535340817727675546e2
            elif z >= -_MAXLOG:
                p = ((((
                    5.64189583547755073984e-1 * t + 1.27536670759978104416e0) * t
                    + 5.01905042251180477414e0) * t + 6.16021097993053585195e0) * t
                    + 7.40974269950448939160e0) * t + 2.97886665372100240670e0
                q = (((((
                    t + 2.26052863220117276590e0) * t + 9.39603524938001434673e0) * t
                    + 1.20489539808096656605e1) * t + 1.70814450747565897222e1) * t
                    + 9.60896809063285878198e0) * t + 3.36907645100081516050e0
            else:
                # erfc underflows to 0 or 2 (Cephes tests this first, but
                # below t = 8 a^2 cannot reach MAXLOG). A NaN or infinite x
                # takes no branch above, so it is checked only here.
                if not isfinite(x):
                    raise UsageError(_NON_FINITE)
                return 1.0 if a < 0.0 else 0.0
            y = exp(z) * p / q
            return 0.5 * (2.0 - y if a < 0.0 else y)

        def pdf(x):
            if not isfinite(x):
                raise UsageError(_NON_FINITE)
            z = x / scale
            return _INV_SQRT2PI * float(np_exp(-0.5 * z * z)) / scale
    else:
        def cdf(x):
            if not isfinite(x):
                raise UsageError(_NON_FINITE)
            try:
                return 1.0 / (1.0 + exp(-(x / scale)))
            except OverflowError:
                return 0.0

        def pdf(x):
            s = cdf(x)
            return s * (1.0 - s) / scale
    return cdf, pdf


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
        cdf, pdf = _scalar_formulas(self.family, self.scale)
        object.__setattr__(self, "_scalar_cdf", cdf)
        object.__setattr__(self, "_scalar_pdf", pdf)

    def __reduce__(self):
        return type(self), (self.family, self.scale)

    def cdf(self, x):
        if type(x) is float:
            return self._scalar_cdf(x)
        z = _check_finite(x) / self.scale
        if self.family == "normal":
            out = 0.5 * special.erfc(-z / _SQRT2)
        else:
            out = special.expit(z)
        return out if out.ndim else float(out)

    def pdf(self, x):
        if type(x) is float:
            return self._scalar_pdf(x)
        z = _check_finite(x) / self.scale
        if self.family == "normal":
            out = _INV_SQRT2PI * np.exp(-0.5 * z * z) / self.scale
        else:
            s = special.expit(z)
            out = s * (1.0 - s) / self.scale
        return out if out.ndim else float(out)

    def quantile(self, q):
        if type(q) is float:
            if not 0.0 < q < 1.0:
                raise UsageError("quantile argument must lie strictly in (0, 1)")
            return float(self._quantile_formula(q))
        qa = np.asarray(q, dtype=float)
        if np.any((qa <= 0) | (qa >= 1) | ~np.isfinite(qa)):
            raise UsageError("quantile argument must lie strictly in (0, 1)")
        out = self._quantile_formula(qa)
        return out if out.ndim else float(out)

    @cached_property
    def truncation_window(self) -> tuple[float, float]:
        """The TRUNCATION_TAIL and 1 - TRUNCATION_TAIL quantiles, to which
        quadrature.shock_bounds truncates an improper shock integral.
        Computed at the first read and kept on the instance, which is not a
        field: equality, hashing and repr ignore it. The normal family reads
        erfcinv at both ends from _ERFCINV_WINDOW, in _quantile_formula's
        expression, so no shock integral loads scipy."""
        if self.family == "normal":
            return tuple(-self.scale * _SQRT2 * e for e in _ERFCINV_WINDOW)
        return self.quantile(TRUNCATION_TAIL), self.quantile(1.0 - TRUNCATION_TAIL)

    def _quantile_formula(self, qa):
        """The family's quantile at qa, an array strictly inside (0, 1); unchecked."""
        if self.family == "normal":
            return -self.scale * _SQRT2 * special.erfcinv(2.0 * qa)
        return self.scale * (np.log(qa) - np.log1p(-qa))

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
        object.__setattr__(self, "_lowmass", self.base.cdf(-self.half_width))
        object.__setattr__(self, "_mass", 1.0 - 2.0 * self._lowmass)

    def cdf(self, x):
        xa = _check_finite(x)
        out = np.clip((self.base.cdf(xa) - self._lowmass) / self._mass, 0.0, 1.0)
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
        # The mapped argument needs no second check: it is at least _lowmass,
        # or q itself where _lowmass underflows to 0 and _mass is 1, and it
        # rounds to at most 1 - 2^-53 (tested at the extremes).
        out = self.base._quantile_formula(self._lowmass + qa * self._mass)
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

