"""Referendum-decision thresholds: pivotal shocks and critical conservative shares.

Frozen expectations were produced by standalone scipy routines (quad for the
closed ratios, brentq for roots, long bisection for the pivotal shock) before
these tests were written.
"""
from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st
from scipy import optimize

from refcalc import thresholds
from refcalc.errors import RootFindError, UsageError
from refcalc.model import DistributionSpec, ElectorateParams, validate
from refcalc.quadrature import DEFAULT_QUADRATURE
from refcalc.thresholds import (
    ROOT_MAXITER,
    ROOT_XTOL,
    _brent,
    br_dagger_ddagger,
    delta_at_rbind,
    gamma_star,
    r_bind,
    r_star,
    r_star_star,
    referendum_support,
)

from conftest import PRIM_NARROW, PRIM_WIDE, SCENARIO_A, diverged_draws, mirror

WIDE = (PRIM_WIDE["b_L"], PRIM_WIDE["p"], PRIM_WIDE["taste"], PRIM_WIDE["shock"])
NARROW = (PRIM_NARROW["b_L"], PRIM_NARROW["p"], PRIM_NARROW["taste"], PRIM_NARROW["shock"])


def _wide(b_R):
    b_L, p, taste, shock = WIDE
    return b_L, b_R, p, taste, shock


def _narrow(b_R):
    b_L, p, taste, shock = NARROW
    return b_L, b_R, p, taste, shock


# --------------------------------------------------------------- gamma_star


def test_gamma_star_frozen(scenario_a):
    # FROZEN 200-step bisection on the support condition: 0.2365713444530117.
    rep = gamma_star(scenario_a)
    assert rep.name == "gamma_star"
    assert rep.value == pytest.approx(0.2365713444530117, abs=1e-9)
    assert -scenario_a.b_R < rep.value < -scenario_a.b_L
    assert rep.residual < 1e-9


def test_gamma_star_wide_frozen():
    # FROZEN 60-step bisection at the wide primitives, b_R = 0.5, r = 0.4:
    # 0.4295795342030603.
    params = ElectorateParams(r=0.4, mu=0.5, b_R=0.5, **PRIM_WIDE)
    rep = gamma_star(params)
    assert rep.value == pytest.approx(0.4295795342030603, abs=1e-9)


def test_gamma_star_support_crosses_half(scenario_a):
    rep = gamma_star(scenario_a)
    assert referendum_support(scenario_a, rep.value) == pytest.approx(0.5, abs=1e-9)
    assert referendum_support(scenario_a, rep.value - 0.01) < 0.5
    assert referendum_support(scenario_a, rep.value + 0.01) > 0.5


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(0.1, 0.9),
    b_L=st.floats(-2.0, -0.05),
    gap=st.floats(0.01, 2.0),
    ts=st.floats(0.2, 1.5),
    ss=st.floats(0.2, 1.5),
)
def test_gamma_star_always_interior(r, b_L, gap, ts, ss):
    # Under the maintained bias ordering the pivotal shock exists and lies
    # strictly between -b_R and -b_L, and the defining condition holds there.
    params = ElectorateParams(
        r=r,
        mu=0.5,
        p=0.1,
        b_L=b_L,
        b_R=b_L + gap,
        taste=DistributionSpec("normal", ts),
        shock=DistributionSpec("normal", ss),
    )
    rep = gamma_star(params)
    assert -params.b_R < rep.value < -params.b_L
    assert abs(referendum_support(params, rep.value) - 0.5) < 1e-9


# ------------------------------------------------------------ Brent port


def _brentq(f, lo, hi):
    return optimize.brentq(f, lo, hi, xtol=ROOT_XTOL, maxiter=ROOT_MAXITER, full_output=True)


@seed(20220810)
@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["normal", "logistic"]),
    mu=st.floats(0.05, 0.95),
    r_frac=st.floats(0.01, 0.99),
    b_L=st.floats(-5.0, -0.01),
    gap=st.floats(1e-6, 10.0),
    ts=st.floats(0.05, 5.0),
)
def test_gamma_star_is_brentq_bit_for_bit(family, mu, r_frac, b_L, gap, ts):
    # The port keeps brentq's tolerances, iteration order and float
    # operations, so root and iteration count are equal, not close. r is
    # drawn inside the competitiveness band so that the problem is one
    # model.validate accepts.
    r_lo, r_hi = max(0.0, 1.0 - 1.0 / (2.0 * mu)), min(1.0, 1.0 / (2.0 * mu))
    params = ElectorateParams(
        r=r_lo + r_frac * (r_hi - r_lo),
        mu=mu,
        p=0.1,
        b_L=b_L,
        b_R=b_L + gap,
        taste=DistributionSpec(family, ts),
        shock=DistributionSpec(family, 0.5),
    )
    assume(not validate(params))
    root, info = _brentq(lambda g: referendum_support(params, g) - 0.5, -params.b_R, -params.b_L)
    rep = gamma_star(params)
    assert rep.value == root
    assert rep.iterations == info.iterations
    assert rep.residual == abs(referendum_support(params, root) - 0.5)


@pytest.mark.parametrize(
    "f, lo, hi, iterations",
    [
        # x**3 is flat at its root, so Brent falls back on bisection.
        (lambda x: x**3, -1.0, 2.0, 125),
        # At this scale the extrapolation denominator underflows to 0, where
        # C divides to inf or NaN and rejects the step: 19 iterations, not 9.
        (lambda x: 1e-200 * (x**3 - 0.3), 0.0, 1.0, 19),
    ],
    ids=["cubic", "underflow"],
)
def test_brent_matches_brentq_on_fixed_cases(f, lo, hi, iterations):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    root, residual, iters = _brent(counted, lo, hi, "fixed")
    ref, info = _brentq(f, lo, hi)
    assert (root, iters) == (ref, info.iterations)
    assert iters == iterations
    # The residual is the value the iteration already holds: no extra call.
    assert len(calls) == info.function_calls
    assert residual == abs(f(root))


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 0.0)], ids=["lower", "upper"])
def test_brent_exact_zero_at_an_endpoint(lo, hi):
    # brentq returns the endpoint after its two initial calls; its iteration
    # count there is not set (1 in a fresh process, anything later), so the
    # port's 1 is pinned on its own.
    assert _brent(lambda x: x, lo, hi, "edge") == (0.0, 0.0, 1)
    assert _brentq(lambda x: x, lo, hi)[0] == 0.0


def test_brent_rejects_an_unbracketed_interval():
    with pytest.raises(RootFindError, match="edge: f\\(a\\) and f\\(b\\) must have different signs"):
        _brent(lambda x: x * x + 1.0, 0.0, 1.0, "edge")


def test_brent_names_the_point_of_a_nan_value():
    with pytest.raises(RootFindError, match="x=1.0 is NaN"):
        _brent(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, "nan")


def test_brent_rejects_a_root_whose_residual_stays_large():
    # A step converges onto its jump, where |f| stays 1.
    with pytest.raises(RootFindError, match="^step: residual 1.000e\\+00 above 1e-09$"):
        _brent(lambda x: 1.0 if x >= 0.3 else -1.0, 0.0, 1.0, "step")


def test_brent_raises_when_it_runs_out_of_iterations(monkeypatch):
    monkeypatch.setattr(thresholds, "ROOT_MAXITER", 2)
    with pytest.raises(RootFindError, match="demo: no convergence in 2 iterations"):
        _brent(lambda x: x**3 - 0.3, 0.0, 1.0, "demo")


# ------------------------------------------------------------------ r_bind


def test_r_bind_frozen_wide():
    # FROZEN scipy quad ratio: 0.3582516326965752 at b_R = 0.5.
    rep = r_bind(*_wide(0.5))
    assert rep.name == "r_bind"
    assert rep.value == pytest.approx(0.3582516326965752, abs=1e-8)
    assert rep.residual < 1e-9
    assert 0.0 < rep.value < 1.0


def test_r_bind_knife_edge_is_half():
    # At b_R = -b_L the defining condition is symmetric: r_bind = 1/2.
    rep = r_bind(*_wide(1.0))
    assert rep.value == pytest.approx(0.5, abs=1e-6)


def test_r_bind_rejects_aligned_positions():
    with pytest.raises(UsageError):
        r_bind(*_wide(-0.2))


def test_r_bind_rejects_bad_primitives():
    b_L, p, taste, shock = WIDE
    with pytest.raises(UsageError):
        r_bind(b_L, 0.5, 0.0, taste, shock)
    with pytest.raises(UsageError):
        r_bind(0.1, 0.5, p, taste, shock)
    with pytest.raises(UsageError):
        r_bind(-0.2, -0.3, p, taste, shock)


# The mirror identity is exact in exact arithmetic. r_bind is a ratio of two
# kernels, each accepted within the declared absolute tolerance, and the
# identity is held to a small multiple of it, the bound the congruence
# deltas' identities are held to.
MIRROR_BOUND = 10 * DEFAULT_QUADRATURE.abs_tol


@settings(max_examples=15, deadline=None)
@given(
    b_L=st.floats(-2.0, -0.1),
    b_R=st.floats(0.05, 2.0),
    p=st.floats(0.01, 0.5),
    ts=st.floats(0.3, 1.5),
    ss=st.floats(0.3, 1.5),
)
@example(b_L=-2.0, b_R=2.0, p=0.5, ts=0.3, ss=0.3)
def test_r_bind_mirror_identity(b_L, b_R, p, ts, ss):
    # Swapping the parties' roles (b_L, b_R) -> (-b_R, -b_L) swaps which side
    # the binding vote favours: the thresholds are reflections through 1/2.
    # The identity is exact in exact arithmetic. The example is the worst
    # point of a 5^5 grid over these ranges: there both kernels are 1.9e-9,
    # so the ratio magnifies their rounding, and the identity is off by
    # 5.5e-10; 300 random draws were off by at most 8.9e-14.
    taste = DistributionSpec("normal", ts)
    shock = DistributionSpec("normal", ss)
    direct = r_bind(b_L, b_R, p, taste, shock).value
    mirrored = r_bind(-b_R, -b_L, p, taste, shock).value
    assert abs(mirrored - (1.0 - direct)) <= MIRROR_BOUND


# ------------------------------------------------------------------ r_star


def test_r_star_frozen_narrow():
    # FROZEN scipy quad ratio: 0.37040492047629675 at b_R = -0.25.
    rep = r_star(*_narrow(-0.25))
    assert rep.name == "r_star"
    assert rep.value == pytest.approx(0.37040492047629675, abs=1e-8)
    assert rep.residual < 1e-9


def test_kernels_below_abs_tol_are_flagged():
    # Draw 0: r_star_star's kernels are 4.7e-11 and 1.5e-11 against abs_tol
    # 1e-10, r_bind's 5.3e-8 and 2.9e-8. No other draw of the set qualifies.
    flag = "kernels_below_abs_tol"
    flagged = []
    for i, d in enumerate(diverged_draws(60, seed=3)):
        for tag, e in (("draw", d), ("mirror", mirror(d))):
            for f in (r_bind, r_star_star):
                if flag in f(e.b_L, e.b_R, e.p, e.taste, e.shock).flags:
                    flagged.append((i, tag, f.__name__))
    assert flagged == [(0, "draw", "r_star_star"), (0, "mirror", "r_star_star")]
    a = SCENARIO_A
    for f in (r_bind, r_star_star):
        assert f(a.b_L, a.b_R, a.p, a.taste, a.shock).flags == ()


def test_r_star_degenerate_equal_biases():
    b_L, p, taste, shock = NARROW
    rep = r_star(b_L, b_L, p, taste, shock)
    assert rep.value == 0.5
    assert "degenerate_equal_biases" in rep.flags
    # Just off the degenerate point the threshold is continuous in b_R.
    near = r_star(b_L, b_L + 1e-4, p, taste, shock)
    assert near.value == pytest.approx(0.5, abs=1e-3)
    assert "degenerate_equal_biases" not in near.flags


def test_r_star_rejects_diverged_positions():
    with pytest.raises(UsageError):
        r_star(*_narrow(0.1))
    with pytest.raises(UsageError):
        r_star(*_narrow(0.0))


# ------------------------------------------------------------- r_star_star


def test_r_star_star_frozen_wide():
    # FROZEN scipy brentq on the affine condition: 0.16648346185208715.
    rep = r_star_star(*_wide(0.5))
    assert rep.name == "r_star_star"
    assert rep.value == pytest.approx(0.16648346185208715, abs=1e-8)
    assert rep.residual < 1e-9


def test_r_star_star_knife_edge_is_half():
    rep = r_star_star(*_wide(1.0))
    assert rep.value == pytest.approx(0.5, abs=1e-6)


def test_r_star_star_rejects_aligned_positions():
    with pytest.raises(UsageError):
        r_star_star(*_wide(-0.1))


@pytest.mark.parametrize("fn, b_R", [(r_bind, 1.2), (r_star_star, 1.2), (r_star, -0.9)])
def test_cohesion_threshold_with_underflowed_kernels_raises(fn, b_R):
    # With p = 3 and narrow tastes both kernels underflow to 0: every r solves
    # (1-r) L - r R = 0, so there is no threshold to report.
    taste, shock = DistributionSpec("normal", 0.05), DistributionSpec("normal", 0.1)
    with pytest.raises(RootFindError, match=f"^{fn.__name__}: both kernels are 0"):
        fn(-1.0, b_R, 3.0, taste, shock)


# ----------------------------------------------------------- delta and scan


def test_delta_at_rbind_frozen_points():
    b_L, p, taste, shock = WIDE
    # FROZEN scipy quad at the wide primitives.
    assert delta_at_rbind(b_L, 0.0, p, taste, shock) == pytest.approx(
        0.044681430403434176, abs=1e-9
    )
    assert delta_at_rbind(b_L, 0.5, p, taste, shock) == pytest.approx(
        0.021447827340619292, abs=1e-9
    )
    assert delta_at_rbind(b_L, 0.95, p, taste, shock) == pytest.approx(
        0.0011604699605280225, abs=1e-9
    )
    assert delta_at_rbind(b_L, 1.05, p, taste, shock) == pytest.approx(
        -0.0009593661724765149, abs=1e-9
    )


def test_delta_at_rbind_raises_where_the_kernels_underflow():
    taste, shock = DistributionSpec("normal", 0.05), DistributionSpec("normal", 0.1)
    with pytest.raises(RootFindError, match="^r_bind: both kernels are 0"):
        delta_at_rbind(-1.0, 1.2, 3.0, taste, shock)


def test_delta_vanishes_at_bias_mirror_point():
    b_L, p, taste, shock = WIDE
    # b_R = -b_L makes the integrand odd around zero at r_bind = 1/2.
    assert delta_at_rbind(b_L, 1.0, p, taste, shock) == pytest.approx(0.0, abs=1e-9)


def test_dagger_scan_reports_no_crossing_at_wide_primitives():
    # FROZEN 0.02-step sign scan over the whole window [0, 3]: delta is
    # positive below b_R = -b_L and negative above it throughout, so neither
    # scan finds a second sign change. The reports carry the window edge.
    b_L, p, taste, shock = WIDE
    dagger, ddagger = br_dagger_ddagger(b_L, p, taste, shock)
    assert dagger.name == "b_R_dagger"
    assert dagger.flags == ("not_found_in_window",)
    assert dagger.value == 3.0
    assert ddagger.name == "b_R_ddagger"
    assert ddagger.flags == ("not_found_in_window",)
    assert ddagger.value == 0.0


def test_dagger_scan_refines_a_sign_change_it_finds(monkeypatch):
    # A sign scan of delta_at_rbind (b_L -1 and -0.3, p 0.01 to 3, taste
    # scales 0.02 to 10, shock scales 0.3 to 2, normal and logistic) found no
    # second crossing above 1e-12, so the scan runs on a stand-in with the
    # same signs around the pivot -b_L = 1 (negative just above, positive
    # just below) and known roots at 1.7 above it and 0.4 below it.
    b_L, p, taste, shock = WIDE
    monkeypatch.setattr(
        thresholds, "delta_at_rbind",
        lambda b_L, b_R, *rest: (b_R + b_L) * (b_R - 1.7) * (b_R - 0.4),
    )
    delta = thresholds.delta_at_rbind
    dagger, ddagger = br_dagger_ddagger(b_L, p, taste, shock)
    for report, root, above in ((dagger, 1.7, 1), (ddagger, 0.4, -1)):
        assert report.flags == ()
        assert report.iterations > 0
        lo, hi = report.bracket
        assert lo < report.value < hi
        assert report.value == pytest.approx(root, abs=1e-9)
        # delta changes sign across the root, with the side the scan wanted
        # away from the pivot.
        assert above * delta(b_L, report.value + above * 1e-6) > 0
        assert above * delta(b_L, report.value - above * 1e-6) < 0


def test_dagger_scan_rejects_bad_primitives():
    _, p, taste, shock = WIDE
    with pytest.raises(UsageError):
        br_dagger_ddagger(0.5, p, taste, shock)
    with pytest.raises(UsageError):
        br_dagger_ddagger(-1.0, 0.0, taste, shock)


# ------------------------------------------------------------- relationships


def test_thresholds_ordering_at_wide_primitives():
    # At b_R = 0.5 both critical shares sit below 1/2 and the non-binding one
    # is the smaller; at the mirror point both collapse to 1/2.
    rb = r_bind(*_wide(0.5)).value
    rss = r_star_star(*_wide(0.5)).value
    assert rss < rb < 0.5
