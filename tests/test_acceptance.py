"""Acceptance gate: one test per numbered release criterion.

Each test exercises one end-to-end property of the calculus at its stated
tolerance and prints a single ``[criterion N] ... PASS`` line (visible with
``pytest -v -rA``); a failure anywhere in the body marks the criterion
failed.  Tolerances, grid shapes, and runtime caps are part of the
criteria and are asserted literally.  FROZEN reference values come from
the standalone scipy derivation scripts.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from refcalc.cli import main as cli_main
from refcalc.congruence import classify_congruence_region, second_issue_congruence
from refcalc.distributions import DistributionSpec
from refcalc.election import win_prob
from refcalc.model import (
    ElectorateParams,
    ReferendumRegime,
    shock_pieces,
    validate,
)
from refcalc.oracle import SimConfig, simulate
from refcalc.quadrature import QuadratureConfig
from refcalc.third_party import (
    ThirdPartyParams,
    net_benefit_third,
    phi,
    validate_third,
    win_prob_third,
)
from refcalc.thresholds import gamma_star, r_bind, r_star, r_star_star
from refcalc.turnout import (
    TurnoutParams,
    net_benefit_turnout,
    r_T,
    validate_turnout,
    win_prob_turnout,
)

from conftest import PRIM_NARROW, PRIM_WIDE, SCENARIO_A


def _normal(scale: float) -> DistributionSpec:
    return DistributionSpec("normal", scale)


def _report(number: int, label: str, t0: float) -> None:
    print(f"[criterion {number}] {label}: PASS ({time.perf_counter() - t0:.1f}s)")


# ------------------------------------------------------------------ 1

def test_criterion_1_knife_edge_equalities():
    """r_bind = r* limit = r** = 0.5 at b_R = -b_L, each within 1e-6, < 5 s."""
    t0 = time.perf_counter()
    bind = r_bind(PRIM_WIDE["b_L"], 1.0, PRIM_WIDE["p"],
                  PRIM_WIDE["taste"], PRIM_WIDE["shock"])
    star2 = r_star_star(PRIM_WIDE["b_L"], 1.0, PRIM_WIDE["p"],
                        PRIM_WIDE["taste"], PRIM_WIDE["shock"])
    # the aligned branch reaches its knife edge in the equal-biases limit
    star = r_star(PRIM_WIDE["b_L"], PRIM_WIDE["b_L"], PRIM_WIDE["p"],
                  PRIM_WIDE["taste"], PRIM_WIDE["shock"])
    assert bind.value == pytest.approx(0.5, abs=1e-6)
    assert star2.value == pytest.approx(0.5, abs=1e-6)
    assert star.value == pytest.approx(0.5, abs=1e-6)
    assert "degenerate_equal_biases" in star.flags
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, "knife-edge threshold equalities", t0)


# ------------------------------------------------------------------ 2

def test_criterion_2_threshold_map_shape():
    """50-point grids: r_bind increasing; r** vs r_bind ordering switches at
    -b_L; r* decreasing in b_R and below one half.  < 60 s."""
    t0 = time.perf_counter()
    grid = [2.5 * i / 49 for i in range(50)]
    binds = [r_bind(PRIM_WIDE["b_L"], b, PRIM_WIDE["p"],
                    PRIM_WIDE["taste"], PRIM_WIDE["shock"]).value for b in grid]
    stars2 = [r_star_star(PRIM_WIDE["b_L"], b, PRIM_WIDE["p"],
                          PRIM_WIDE["taste"], PRIM_WIDE["shock"]).value
              for b in grid]
    assert all(a < b for a, b in zip(binds, binds[1:]))
    knife = -PRIM_WIDE["b_L"]
    below = [(b, s, rb) for b, s, rb in zip(grid, stars2, binds)
             if b < knife - 1e-6]
    above = [(b, s, rb) for b, s, rb in zip(grid, stars2, binds)
             if b > knife + 1e-6]
    assert len(below) == 20 and len(above) == 30
    assert all(s < rb for _, s, rb in below)
    assert all(s > rb for _, s, rb in above)

    aligned = [PRIM_NARROW["b_L"] * (50 - j) / 51 for j in range(50)]
    stars = [r_star(PRIM_NARROW["b_L"], b, PRIM_NARROW["p"],
                    PRIM_NARROW["taste"], PRIM_NARROW["shock"]).value
             for b in aligned]
    assert all(a > b for a, b in zip(stars, stars[1:]))
    assert all(s < 0.5 for s in stars)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(2, "threshold map shape on 50-point grids", t0)


# ------------------------------------------------------------------ 3

def test_criterion_3_comparative_statics_suite():
    """Every monotonicity claim for r_bind and r* on 5x5x3 grids, with the
    polarization direction switching at b_R = -b_L; zero violations outside
    a 1e-6 knife-edge band."""
    t0 = time.perf_counter()
    p_grid = (0.05, 0.2, 0.4)

    b_R_grid = (0.2, 0.6, 1.0, 1.4, 1.8)
    b_L_grid = (-1.4, -1.2, -1.0, -0.8, -0.6)
    bind = {
        (bR, bL, p): r_bind(bL, bR, p, PRIM_WIDE["taste"],
                            PRIM_WIDE["shock"]).value
        for bR in b_R_grid for bL in b_L_grid for p in p_grid
    }
    violations = []
    for bL in b_L_grid:
        for p in p_grid:
            for a, b in zip(b_R_grid, b_R_grid[1:]):
                if not bind[(a, bL, p)] < bind[(b, bL, p)]:
                    violations.append(("r_bind up in b_R", a, b, bL, p))
    for bR in b_R_grid:
        for p in p_grid:
            for a, b in zip(b_L_grid, b_L_grid[1:]):
                if not bind[(bR, a, p)] < bind[(bR, b, p)]:
                    violations.append(("r_bind up in b_L", bR, a, b, p))
    for bR in b_R_grid:
        for bL in b_L_grid:
            if abs(bR + bL) <= 1e-6:
                continue  # knife edge: the polarization derivative vanishes
            for a, b in zip(p_grid, p_grid[1:]):
                lo, hi = bind[(bR, bL, a)], bind[(bR, bL, b)]
                ok = lo < hi if bR > -bL else lo > hi
                if not ok:
                    violations.append(("r_bind p-switch", bR, bL, a, b))

    b_R_neg = (-0.35, -0.28, -0.21, -0.14, -0.07)
    b_L_neg = (-1.0, -0.85, -0.7, -0.55, -0.4)
    star = {
        (bR, bL, p): r_star(bL, bR, p, PRIM_NARROW["taste"],
                            PRIM_NARROW["shock"]).value
        for bR in b_R_neg for bL in b_L_neg for p in p_grid
    }
    for bL in b_L_neg:
        for p in p_grid:
            for a, b in zip(b_R_neg, b_R_neg[1:]):
                if not star[(a, bL, p)] > star[(b, bL, p)]:
                    violations.append(("r_star down in b_R", a, b, bL, p))
    for bR in b_R_neg:
        for p in p_grid:
            for a, b in zip(b_L_neg, b_L_neg[1:]):
                if not star[(bR, a, p)] < star[(bR, b, p)]:
                    violations.append(("r_star up in b_L", bR, a, b, p))
    for bR in b_R_neg:
        for bL in b_L_neg:
            for a, b in zip(p_grid, p_grid[1:]):
                if not star[(bR, bL, a)] > star[(bR, bL, b)]:
                    violations.append(("r_star down in p", bR, bL, a, b))

    assert violations == []
    _report(3, "comparative-statics sign suite", t0)


# ------------------------------------------------------------------ 4

def _draw_valid_base(rng, negative_b_R=False) -> ElectorateParams:
    """Rejection-sample an electorate satisfying both assumptions."""
    while True:
        mu = float(rng.uniform(0.3, 0.6))
        lo = max(0.0, 1.0 - 1.0 / (2.0 * mu)) + 0.04
        hi = min(1.0, 1.0 / (2.0 * mu)) - 0.04
        r = float(rng.uniform(lo, hi))
        if abs(r - 0.5) < 0.02:
            continue
        b_L = float(rng.uniform(-1.0, -0.15))
        if negative_b_R:
            b_R = float(rng.uniform(b_L + 0.05, -0.02))
        else:
            b_R = b_L + float(rng.uniform(0.1, 2.0))
        params = ElectorateParams(
            r=r, mu=mu, p=float(rng.uniform(0.05, 0.4)), b_L=b_L, b_R=b_R,
            taste=_normal(float(rng.uniform(0.15, 1.2))),
            shock=_normal(float(rng.uniform(0.15, 1.0))),
        )
        if not validate(params):
            return params


def test_criterion_4_oracle_equivalence():
    """20 random scenarios per regime, n=1e5 voters and 1e4 replications:
    analytic win probability within 3 standard errors in >= 19/20 per
    regime; whole batch under 10 minutes."""
    t0 = time.perf_counter()
    turnout_quad = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5)
    counts = {}
    for kind in ("two_party", "binding", "non_binding", "third_party", "turnout"):
        rng = np.random.default_rng(104)
        passes = 0
        for _ in range(20):
            seed = int(rng.integers(0, 2 ** 63))
            if kind in ("two_party", "binding", "non_binding"):
                params = _draw_valid_base(rng)
                regime = {
                    "two_party": ReferendumRegime.NO_REFERENDUM,
                    "binding": ReferendumRegime.BINDING,
                    "non_binding": ReferendumRegime.NON_BINDING,
                }[kind]
                cfg = SimConfig(n_policy_voters=100_000,
                                n_replications=10_000, seed=seed)
                res = simulate(params, regime, cfg)
                analytic = win_prob(params, regime)
                simulated, se = res.win_freq_R, res.se_win_R
            elif kind == "third_party":
                params = _draw_valid_base(rng, negative_b_R=True)
                tp = ThirdPartyParams(base=params,
                                      v=-float(rng.uniform(0.01, 0.5)))
                assert not validate_third(tp)
                cfg = SimConfig(n_policy_voters=100_000,
                                n_replications=10_000, seed=seed,
                                mode="third_party")
                res = simulate(tp, ReferendumRegime.NO_REFERENDUM, cfg)
                analytic = win_prob_third(tp, ReferendumRegime.NO_REFERENDUM)
                simulated = res.ahead_freq_R
                se = math.sqrt(simulated * (1.0 - simulated)
                               / cfg.n_replications)
            else:
                params = _draw_valid_base(rng)
                b_max = max(abs(params.b_L), abs(params.b_R))
                kappa = b_max * float(rng.uniform(1.1, 1.5))
                sigma = (params.p + kappa) * float(rng.uniform(1.1, 1.6))
                c_bar = (params.p + sigma + kappa + b_max) \
                    * float(rng.uniform(1.1, 1.5))
                tu = TurnoutParams(base=params, c_bar=c_bar, sigma=sigma,
                                   kappa=kappa)
                assert not validate_turnout(tu)
                cfg = SimConfig(n_policy_voters=100_000,
                                n_replications=10_000, seed=seed,
                                mode="turnout")
                res = simulate(tu, ReferendumRegime.BINDING, cfg)
                analytic = win_prob_turnout(tu, ReferendumRegime.BINDING,
                                            config=turnout_quad)
                simulated, se = res.win_freq_R, res.se_win_R
            # frequency SE floors at the replication resolution
            passes += abs(analytic - simulated) \
                <= 3.0 * max(se, 1.0 / cfg.n_replications)
        counts[kind] = passes
    assert all(n >= 19 for n in counts.values()), counts
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(4, f"oracle equivalence {counts}", t0)


# ------------------------------------------------------------------ 5

def test_criterion_5_congruence_reproduction():
    """Binding second-issue congruence is 1 exactly; the diverged-positions
    grid never loses second-issue congruence under a non-binding
    referendum; the aligned-positions region map has a nonempty negative
    region including a cell negative on both issues.  < 2 min."""
    t0 = time.perf_counter()
    binding = second_issue_congruence(SCENARIO_A, ReferendumRegime.BINDING)
    assert binding.prob_with_ref == 1.0

    for b_R in (0.1, 0.45, 0.8, 1.15, 1.5):
        for r in (0.2, 0.35, 0.5, 0.65, 0.8):
            params = ElectorateParams(
                r=r, mu=0.5, p=PRIM_NARROW["p"], b_L=PRIM_NARROW["b_L"],
                b_R=b_R, taste=PRIM_NARROW["taste"],
                shock=PRIM_NARROW["shock"])
            report = second_issue_congruence(
                params, ReferendumRegime.NON_BINDING)
            assert report.delta >= 0.0, (b_R, r, report.delta)

    region_params = ElectorateParams(
        r=0.5, mu=0.7, p=1.0, b_L=-1.0, b_R=-0.5,
        taste=DistributionSpec("logistic", 1.0), shock=_normal(0.5))
    cells = classify_congruence_region(
        region_params,
        [-(96 - 4 * j) / 100 for j in range(24)],
        [(30 + 2 * k) / 100 for k in range(21)],
        ReferendumRegime.NON_BINDING,
    )
    negative = [c for c in cells
                if c.delta_second is not None and c.delta_second < 0]
    both = [c for c in cells if c.region_flag == "both_negative"]
    assert negative and both
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(5, f"congruence ({len(negative)} negative cells, "
               f"{len(both)} doubly negative)", t0)


# ------------------------------------------------------------------ 6

def test_criterion_6_pivotal_shock_property():
    """1,000 random valid electorates: the pivotal shock is interior to
    (-b_R, -b_L) and non-binding positions diverge there; zero failures."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    failures = 0
    for _ in range(1000):
        while True:
            mu = float(rng.uniform(0.2, 0.7))
            lo = max(0.0, 1.0 - 1.0 / (2.0 * mu)) + 0.02
            hi = min(1.0, 1.0 / (2.0 * mu)) - 0.02
            b_L = float(rng.uniform(-1.5, -0.05))
            params = ElectorateParams(
                r=float(rng.uniform(lo, hi)), mu=mu,
                p=float(rng.uniform(0.01, 0.5)),
                b_L=b_L, b_R=b_L + float(rng.uniform(0.05, 2.5)),
                taste=_normal(float(rng.uniform(0.05, 1.5))),
                shock=_normal(float(rng.uniform(0.05, 1.5))))
            if not validate(params):
                break
        pivot = gamma_star(params).value
        interior = -params.b_R < pivot < -params.b_L
        at_pivot = [
            positions for lo, hi, positions in shock_pieces(
                params.b_L, params.b_R, ReferendumRegime.NON_BINDING)
            if (lo is None or lo <= pivot) and (hi is None or pivot < hi)]
        if not (interior and len(at_pivot) == 1 and at_pivot[0].diverged):
            failures += 1
    assert failures == 0
    _report(6, "pivotal shock interior and divisive, 1000 draws", t0)


# ------------------------------------------------------------------ 7

def test_criterion_7_wide_dispersion_limit():
    """With taste dispersion 50x every other scale and mu = 0.6: the sign
    of the spoiler net benefit matches (r - 1/2) * phi on >= 99% of a
    10x10x5 grid outside the |phi| < 0.01 band; Third never takes a
    plurality in the full-size oracle; and the small-gap grid is uniformly
    positive for r >= 1/2."""
    t0 = time.perf_counter()
    shock = _normal(0.01)
    taste = _normal(2.0)  # 50x the largest competing scale (|b_L| <= 0.04)
    b_L_grid = np.linspace(-0.04, -0.022, 10)
    b_R_grid = np.linspace(-0.02, -0.002, 10)
    r_grid = (0.25, 0.35, 0.45, 0.55, 0.65)
    kept = agree = 0
    for b_L in b_L_grid:
        for b_R in b_R_grid:
            band = phi(float(b_L), float(b_R), shock)
            if abs(band) < 0.01:
                continue
            for r in r_grid:
                kept += 1
                tp = ThirdPartyParams(
                    base=ElectorateParams(r=r, mu=0.6, p=0.01,
                                          b_L=float(b_L), b_R=float(b_R),
                                          taste=taste, shock=shock),
                    v=-0.001)
                if np.sign(net_benefit_third(tp)) == np.sign((r - 0.5) * band):
                    agree += 1
    assert kept > 400  # the band excludes only a sliver of the 500 cells
    assert agree / kept >= 0.99

    tp = ThirdPartyParams(
        base=ElectorateParams(r=0.55, mu=0.6, p=0.01, b_L=-0.03, b_R=-0.01,
                              taste=taste, shock=shock),
        v=-0.001)
    res = simulate(tp, ReferendumRegime.NO_REFERENDUM,
                   SimConfig(n_policy_voters=100_000, n_replications=10_000,
                             seed=23, mode="third_party"))
    assert res.win_freq_T < 1e-3

    for r in (0.5, 0.55, 0.6):
        for gap in (0.01, 0.02):
            base = ElectorateParams(
                r=r, mu=0.5, p=0.2, b_L=-0.03, b_R=-0.03 + gap,
                taste=_normal(0.6), shock=_normal(0.25))
            assert net_benefit_third(ThirdPartyParams(base=base, v=-0.01)) > 0
    _report(7, f"wide-dispersion spoiler limit ({agree}/{kept} signs)", t0)


# ------------------------------------------------------------------ 8

def test_criterion_8_turnout_suite():
    """Mobilization pivot at one half for equal stakes (1e-8); the three
    stake-sign symmetries (1e-8); net benefit crosses zero at r_T (1e-6)
    and is polarization-free (finite difference < 1e-8)."""
    t0 = time.perf_counter()
    quad = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7)
    base = ElectorateParams(r=0.55, mu=0.6, p=0.2, b_L=-0.8, b_R=-0.4,
                            taste=_normal(1.2), shock=_normal(0.3))

    def turnout(b_L, b_R, **changes):
        return TurnoutParams(base=replace(base, b_L=b_L, b_R=b_R, **changes),
                             c_bar=6.0, sigma=3.0, kappa=1.0)

    assert r_T(turnout(-0.8, 0.8), config=quad).value \
        == pytest.approx(0.5, abs=1e-8)
    assert r_T(turnout(-0.8, -0.8), config=quad).value \
        == pytest.approx(0.5, abs=1e-8)

    reference = r_T(turnout(-0.8, -0.4), config=quad).value
    assert r_T(turnout(-0.8, 0.4), config=quad).value \
        == pytest.approx(reference, abs=1e-8)
    assert r_T(turnout(0.8, -0.4), config=quad).value \
        == pytest.approx(reference, abs=1e-8)

    below = net_benefit_turnout(turnout(-0.8, -0.4, r=reference - 0.02),
                                config=quad)
    above = net_benefit_turnout(turnout(-0.8, -0.4, r=reference + 0.02),
                                config=quad)
    at_pivot = net_benefit_turnout(turnout(-0.8, -0.4, r=reference),
                                   config=quad)
    assert below < 0 < above
    assert abs(at_pivot) < 1e-6

    shifted = net_benefit_turnout(turnout(-0.8, -0.4, p=0.35), config=quad)
    baseline = net_benefit_turnout(turnout(-0.8, -0.4), config=quad)
    assert abs(shifted - baseline) < 1e-8
    _report(8, "turnout pivot, symmetries, and polarization-free net", t0)


# ------------------------------------------------------------------ 9

def test_criterion_9_byte_identical_csv(tmp_path, capsys):
    """Repeated validate and sweep runs with fixed seeds write identical
    bytes."""
    t0 = time.perf_counter()
    scenario = {
        "r": 0.45, "mu": 0.5, "p": 0.2, "b_L": -0.5, "b_R": 0.3,
        "taste": {"family": "normal", "scale": 0.2},
        "shock": {"family": "normal", "scale": 0.25},
        "regime": "non_binding",
        "sim": {"n_policy_voters": 20000, "n_replications": 2000, "seed": 7},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))

    first, second = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert cli_main(["validate", str(path), "--out", str(first)]) == 0
    assert cli_main(["validate", str(path), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    argv = ["sweep", str(path), "--var", "b_R", "--from", "0.1", "--to", "0.9",
            "--steps", "5", "--quantities", "win_prob,net_benefit,r_bind"]
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli_main(argv + ["--out", str(s1)]) == 0
    assert cli_main(argv + ["--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    capsys.readouterr()
    _report(9, "byte-identical validate and sweep CSV", t0)
