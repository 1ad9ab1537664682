"""Independent expected values for every checked calculus output.

Recomputes each number the calculus_grid and turnout_eval workloads check,
plus the analytic side of oracle_validate, from the model's definitions with
scipy.integrate.quad at tight tolerance. It shares no code with refcalc: not
its quadrature, not its distributions, not its formulas. Shock integrals are
taken over +-40 shock scales (the tail mass beyond is below 1e-300), split at
every kink of the integrand: the clamp points of the win map and the position
switches at -b_R, gamma*, -b_L.

Run from the repository root; it rewrites perfbench/reference.json:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from pathlib import Path

from scipy import integrate, optimize, special

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

EPSABS = 1e-14
EPSREL = 1e-12


def quad(f, lo, hi, points=()):
    if hi <= lo:
        return 0.0
    inner = sorted({p for p in points if lo < p < hi})
    val, _ = integrate.quad(
        f, lo, hi, points=inner or None, epsabs=EPSABS, epsrel=EPSREL, limit=2000
    )
    return val


class Dist:
    def __init__(self, family, scale):
        self.family, self.scale = family, scale

    def cdf(self, x):
        z = x / self.scale
        return float(special.ndtr(z)) if self.family == "normal" else float(special.expit(z))

    def pdf(self, x):
        z = x / self.scale
        if self.family == "normal":
            return math.exp(-0.5 * z * z) / (self.scale * math.sqrt(2.0 * math.pi))
        s = float(special.expit(z))
        return s * (1.0 - s) / self.scale


class Electorate:
    def __init__(self, spec, **override):
        spec = {**spec, **override}
        self.r, self.mu, self.p = spec["r"], spec["mu"], spec["p"]
        self.b_L, self.b_R = spec["b_L"], spec["b_R"]
        self.taste = Dist(spec["taste"]["family"], spec["taste"]["scale"])
        self.shock = Dist(spec["shock"]["family"], spec["shock"]["scale"])
        self.regime = spec.get("regime", "no_referendum")
        self.third = spec.get("third_party")
        self.turnout = spec.get("turnout")
        self.width = 40.0 * self.shock.scale
        self.gs = optimize.brentq(
            lambda g: self.support(g) - 0.5, -self.b_R, -self.b_L, xtol=1e-15
        )
        self.kinks = [-self.b_R, -self.b_L, self.gs] + self._clamp_points(self.win_raw)
        if self.third is not None:
            self.kinks += self._clamp_points(self.lambda_hat_raw)

    # -- primitives
    def lam_raw(self, x):
        return 0.5 + self.mu / (1.0 - self.mu) * (x - 0.5)

    def lam(self, x):
        return min(1.0, max(0.0, self.lam_raw(x)))

    def win_raw(self, g):
        """Unclamped win probability at shock g with diverged positions."""
        B = self.taste.cdf
        share = self.r * B(g + self.b_R + self.p) + (1 - self.r) * B(g + self.b_L - self.p)
        return self.lam_raw(share)

    def support(self, g):
        B = self.taste.cdf
        return self.r * B(g + self.b_R) + (1 - self.r) * B(g + self.b_L)

    def win_div(self, g):
        """P(Right wins | shock g) with diverged emerging-issue positions."""
        return min(1.0, max(0.0, self.win_raw(g)))

    def _clamp_points(self, raw):
        # Shocks where a monotone raw win probability leaves [0, 1].
        pts = []
        lo, hi = -self.width, self.width
        for level in (0.0, 1.0):
            f_lo, f_hi = raw(lo) - level, raw(hi) - level
            if f_lo * f_hi < 0:
                pts.append(optimize.brentq(lambda g: raw(g) - level, lo, hi, xtol=1e-15))
        return pts

    def I(self, h, lo=None, hi=None):
        """Integral of h(g) * shock density over [lo, hi] (None: whole line)."""
        a = -self.width if lo is None else max(lo, -self.width)
        b = self.width if hi is None else min(hi, self.width)
        return quad(lambda g: h(g) * self.shock.pdf(g), a, b, self.kinks)

    # -- two-party quantities
    @property
    def diverged(self):
        return self.b_R >= 0

    def win_prob(self, held):
        if not held:
            return self.I(self.win_div) if self.diverged else self.lam(self.r)
        if self.regime == "binding":
            return self.lam(self.r)
        G = self.shock.cdf
        aligned = G(-self.b_R) + 1.0 - G(-self.b_L)
        return aligned * self.lam(self.r) + self.I(self.win_div, -self.b_R, -self.b_L)

    def congruence_second(self):
        lose = lambda g: 1.0 - self.win_div(g)  # noqa: E731
        G = self.shock.cdf
        if self.diverged:
            no_ref = self.I(lose, None, self.gs) + self.I(self.win_div, self.gs, None)
        else:
            no_ref = G(self.gs)
        if self.regime == "binding":
            with_ref = 1.0
        else:
            with_ref = (
                G(-self.b_R) + self.I(lose, -self.b_R, self.gs)
                + self.I(self.win_div, self.gs, -self.b_L) + 1.0 - G(-self.b_L)
            )
        return no_ref, with_ref

    def congruence_traditional(self):
        no, with_ = self.win_prob(False), self.win_prob(True)
        if self.r == 0.5:
            return no, with_, None
        if self.r > 0.5:
            return no, with_, with_ - no
        return 1.0 - no, 1.0 - with_, no - with_

    def r_bind(self):
        B, p = self.taste.cdf, self.p
        num = self.I(lambda g: B(g + self.b_L - p))
        den = self.I(lambda g: 1.0 - B(p + g + self.b_R) + B(g + self.b_L - p))
        return num / den

    def r_star(self):
        B, p = self.taste.cdf, self.p
        if self.b_R == self.b_L:
            return 0.5
        num = self.I(lambda g: B(-p - g - self.b_R), -self.b_R, -self.b_L)
        den = self.I(lambda g: B(-p + g + self.b_L), -self.b_R, -self.b_L)
        return den / (num + den)

    def r_star_star(self):
        B, p = self.taste.cdf, self.p

        def tails(h):
            return self.I(h, None, -self.b_R) + self.I(h, -self.b_L, None)

        A = tails(lambda g: B(-p - g - self.b_R))
        C = tails(lambda g: B(-p + g + self.b_L))
        return C / (A + C)

    # -- spoiler quantities
    def lambda_hat_raw(self, g):
        B, v = self.taste.cdf, self.third["v"]
        return 0.5 - self.mu / (2.0 * (1.0 - self.mu)) * (
            (1 - self.r) * B(self.p - v - self.b_L - g) - self.r * B(-v - self.b_R - g)
        )

    def lambda_hat(self, g):
        return min(1.0, max(0.0, self.lambda_hat_raw(g)))

    def ahead_third(self, held):
        if not held:
            return self.I(self.lambda_hat)
        G = self.shock.cdf
        return (
            self.I(self.lambda_hat, None, -self.b_R)
            + self.I(self.win_div, -self.b_R, -self.b_L)
            + (1.0 - G(-self.b_L)) * self.lam(self.r)
        )

    def worse_off(self):
        B, v = self.taste.cdf, self.third["v"]
        left = (1 - self.r) * self.I(lambda g: B(-self.p + v + self.b_L + g))
        right = self.r * self.I(lambda g: B(v + self.b_R + g))
        return left < right

    def phi(self):
        G = self.shock.cdf
        return 1.0 - 2.0 * G(-self.b_L) + G(-self.b_R)

    # -- turnout quantities
    def intensity(self, b_J):
        """E|u + b_J + gamma| over the truncated taste and shock, nested quad."""
        sigma, kappa = self.turnout["sigma"], self.turnout["kappa"]
        t_mass = self.taste.cdf(sigma) - self.taste.cdf(-sigma)
        s_mass = self.shock.cdf(kappa) - self.shock.cdf(-kappa)

        def inner(g):
            kink = -b_J - g
            return quad(
                lambda u: abs(u + b_J + g) * self.taste.pdf(u), -sigma, sigma, (kink,)
            ) / t_mass

        return quad(lambda g: inner(g) * self.shock.pdf(g), -kappa, kappa) / s_mass

    def turnout_rows(self):
        c_bar = self.turnout["c_bar"]
        i_L, i_R = self.intensity(self.b_L), self.intensity(self.b_R)
        lever = self.mu / (1.0 - self.mu)
        no_ref = 0.5 + lever * (self.p / c_bar) * (self.r - 0.5)
        gain = lever / (2.0 * c_bar) * (self.r * i_R - (1.0 - self.r) * i_L)
        return {
            "r_T": i_L / (i_L + i_R),
            "win_prob_turnout_no_ref": no_ref,
            "win_prob_turnout_binding": no_ref + gain,
            "net_benefit_turnout": gain,
        }


def eval_rows(spec):
    """Every quantity `refcalc eval` prints for the scenario, by code name."""
    e = Electorate(spec)
    held = e.regime != "no_referendum"
    rows = {"gamma_star": e.gs, "win_prob_no_referendum": e.win_prob(False)}
    if held:
        wp_held = e.win_prob(True)
        rows[f"win_prob_{e.regime}"] = wp_held
        rows["net_benefit"] = wp_held - rows["win_prob_no_referendum"]
        s_no, s_with = e.congruence_second()
        t_no, t_with, t_delta = e.congruence_traditional()
        rows.update({
            "congruence_second_no_ref": s_no,
            "congruence_second_with_ref": s_with,
            "congruence_second_delta": s_with - s_no,
            "congruence_traditional_no_ref": t_no,
            "congruence_traditional_with_ref": t_with,
            "congruence_traditional_delta": t_delta,
        })
    if e.b_R >= 0:
        rows.update({"r_bind": e.r_bind(), "r_star_star": e.r_star_star()})
    else:
        rows["r_star"] = e.r_star()
    if e.third is not None:
        ahead_no, ahead_nb = e.ahead_third(False), e.ahead_third(True)
        rows.update({
            "phi": e.phi(),
            "ahead_third_no_ref": ahead_no,
            "ahead_third_non_binding": ahead_nb,
            "net_benefit_third": ahead_nb - ahead_no,
            "worse_off_with_spoiler": e.worse_off(),
        })
    if e.turnout is not None:
        rows.update(e.turnout_rows())
    return rows


def sweep_rows(offset_index, steps):
    """Rows of the r sweep over SWEEP_QUANTITIES, in the CLI's column order."""
    base = Electorate(wl.DIVERGED)
    r_bind, r_star_star = base.r_bind(), base.r_star_star()
    rows = []
    for r in wl.sweep_values(offset_index, steps):
        e = Electorate(wl.DIVERGED, r=r)
        wp_no, wp_held = e.win_prob(False), e.win_prob(True)
        s_no, s_with = e.congruence_second()
        rows.append([
            r, wp_held, wp_held - wp_no, e.gs, r_bind, r_star_star,
            s_with - s_no, e.congruence_traditional()[2],
        ])
    return rows


FIG3 = {
    "r": 0.5, "mu": 0.5, "p": 0.05, "b_L": -1.0, "b_R": 0.0,
    "taste": {"family": "normal", "scale": 1.0},
    "shock": {"family": "normal", "scale": 0.5},
}
FIGG = {
    "r": 0.5, "mu": 0.7, "p": 1.0, "b_L": -1.0, "b_R": -0.5,
    "taste": {"family": "logistic", "scale": 1.0},
    "shock": {"family": "normal", "scale": 0.5},
    "regime": "non_binding",
}


def fig3_rows():
    """`refcalc figure fig3`: thresholds along b_R (r plays no part in them)."""
    rows = []
    for i in range(-19, 51):
        e = Electorate(FIG3, b_R=i / 20)
        if e.b_R >= 0:
            rows.append([e.b_R, e.r_bind(), None, e.r_star_star()])
        else:
            rows.append([e.b_R, None, e.r_star(), None])
    return rows


def figg_rows():
    """`refcalc figure figg`: both congruence deltas over the (b_R, r) grid."""
    rows = []
    for j in range(24):
        b_R = -(96 - 4 * j) / 100
        for k in range(21):
            e = Electorate(FIGG, b_R=b_R, r=(30 + 2 * k) / 100)
            s_no, s_with = e.congruence_second()
            rows.append([e.b_R, e.r, s_with - s_no, e.congruence_traditional()[2]])
    return rows


def build():
    return {
        "about": "expected values from perfbench/reference.py (scipy.integrate.quad, "
                 f"epsabs={EPSABS:g}, epsrel={EPSREL:g}); regenerate with that script",
        "eval": {
            "diverged": eval_rows(wl.DIVERGED),
            "spoiler": eval_rows(wl.SPOILER),
            "turnout": eval_rows(wl.TURNOUT),
        },
        "turnout_intensity": {
            str(b): Electorate(wl.TURNOUT).intensity(b)
            for b in (wl.TURNOUT["b_L"], wl.TURNOUT["b_R"])
        },
        "fig3": fig3_rows(),
        "figg": figg_rows(),
        "sweep": {
            str(steps): [sweep_rows(k, steps) for k in range(wl.GRID_OFFSETS)]
            for steps in (wl.SERIAL_SWEEP_STEPS, wl.POOL_SWEEP_STEPS)
        },
    }


def main():
    warnings.simplefilter("error", integrate.IntegrationWarning)
    out = HERE / "reference.json"
    out.write_text(json.dumps(build(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
