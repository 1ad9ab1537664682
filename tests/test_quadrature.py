"""Adaptive G7-K15 integrator: rule constants, exactness, adaptivity, and failure modes."""
from __future__ import annotations

import math
from dataclasses import replace

import pytest

from refcalc import quadrature
from refcalc.distributions import DistributionSpec
from refcalc.errors import QuadratureError, UsageError
from refcalc.quadrature import (
    QuadratureConfig,
    _panel,
    integrate,
    integrate_shock,
    shock_bounds,
)


def test_panel_rule_degrees():
    # The typed QUADPACK constants: on [-1, 1] K15 integrates x^0..x^22
    # exactly and G7 x^0..x^13. The next even powers, x^24 and x^14, are not
    # exact, so a mistyped node or weight cannot pass on symmetry alone.
    for n in range(25):
        k15, g7 = _panel(lambda x: x ** n, -1.0, 1.0)
        exact = 2.0 / (n + 1) if n % 2 == 0 else 0.0
        assert (abs(k15 - exact) <= 1e-15) == (n != 24), n
        assert (abs(g7 - exact) <= 1e-15) == (n <= 13 or n % 2 == 1), n


def test_polynomial_exact():
    # K15 is exact up to degree 23; x^2 over [0, 1] should come out to machine
    # precision without any subdivision.
    assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert integrate(lambda x: x ** 3 - x, -1.0, 2.0) == pytest.approx(2.25, abs=1e-12)


def test_sine_period():
    assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)
    assert integrate(math.sin, 0.0, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-10)


def test_kinked_integrand():
    # |x - 1/3| over [0, 1]: the kink forces subdivision near an irrational
    # breakpoint. Exact value (1/3)^2/2 + (2/3)^2/2 = 5/18.
    val = integrate(lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0)
    assert val == pytest.approx(5.0 / 18.0, abs=1e-9)


def test_empty_and_reversed_interval():
    assert integrate(lambda x: 1.0, 2.0, 2.0) == 0.0
    assert integrate(lambda x: 1.0, 3.0, 2.0) == 0.0


def test_infinite_limits_rejected():
    with pytest.raises(UsageError):
        integrate(lambda x: x, 0.0, math.inf)


def test_budget_exhaustion_raises_with_achieved_tolerance(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=0.0)
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda x: abs(x - 1.0 / 3.0) ** 0.5, 0.0, 1.0, cfg)
    # The error carries the worst outstanding error estimate.
    assert exc.value.achieved_tol > 0.0
    assert "achieved tolerance" in str(exc.value)


def test_depth_limit_ends_a_bisection_the_budget_would_not(monkeypatch):
    """1/(x - 0.3) on [-7e3, 7e3], the window of a normal shock of scale 1e3:
    the panel holding the pole is bisected until depth _MAX_DEPTH (60) ends
    it, after 443 panels and well inside the subdivision budget.

    Kills the mutant `depth + 1` -> `depth - 1` in _adapt, which never
    reaches the depth limit and runs on until the budget ends the integral.
    """
    depths, panels, budgets = [], [], []
    adapt, panel, budget = quadrature._adapt, quadrature._panel, quadrature._Budget

    def spied_adapt(*args):
        depths.append(args[-1])
        return adapt(*args)

    def counted_panel(*args):
        panels.append(args[1:])
        return panel(*args)

    def kept_budget(n):
        budgets.append(budget(n))
        return budgets[-1]

    monkeypatch.setattr(quadrature, "_adapt", spied_adapt)
    monkeypatch.setattr(quadrature, "_panel", counted_panel)
    monkeypatch.setattr(quadrature, "_Budget", kept_budget)
    with pytest.raises(QuadratureError, match="subdivision budget exhausted"):
        integrate(lambda x: 1.0 / (x - 0.3), -7e3, 7e3)
    assert max(depths) == quadrature._MAX_DEPTH == 60
    assert len(panels) == 443
    (spent,) = budgets
    assert spent.left > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_integrand_raises_at_once(bad):
    # The bad value fills (0.5, 1], so bisection can never isolate it; the
    # error must say so at the first panel rather than after the budget.
    calls = []

    def f(x):
        calls.append(x)
        return bad if x > 0.5 else 1.0

    with pytest.raises(QuadratureError, match="non-finite integrand") as exc:
        integrate(f, 0.0, 1.0)
    assert exc.value.achieved_tol == math.inf
    assert len(calls) == 15


def test_config_validation():
    with pytest.raises(UsageError):
        QuadratureConfig(abs_tol=0.0)
    # The subdivision budget is a module constant, not a field.
    with pytest.raises(TypeError):
        QuadratureConfig(max_subdivisions=2000)


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_config_rejects_nan_infinite_or_negative_tolerances(field, value):
    # NaN fails every comparison, so a check written as "reject if <= 0"
    # would let it through.
    with pytest.raises(UsageError, match=field):
        QuadratureConfig(**{field: value})


def test_shock_bounds_clip():
    shock = DistributionSpec("normal", 0.5)
    lo, hi = shock_bounds(shock)
    # The window is symmetric up to the float rounding of 1 - 1e-12, which is
    # amplified by the tiny tail density; a loose tolerance is the honest one.
    assert lo == pytest.approx(-hi, abs=1e-4)
    # Explicit bounds are clipped into the tail-quantile window rather than
    # extended beyond it.
    a, b = shock_bounds(shock, -100.0, 0.2)
    assert a == lo
    assert b == 0.2


def test_shock_bounds_reads_each_shocks_window_once(monkeypatch):
    # The window is the two tail quantiles, computed at the first call and
    # kept on the spec (in its __dict__); a spec with another scale computes
    # its own, and equality and hashing ignore the kept window. The normal
    # window takes its erfcinv values from literals, so only the logistic
    # one calls quantile.
    calls = []
    quantile = DistributionSpec.quantile

    def counted(self, q):
        calls.append((self.family, q))
        return quantile(self, q)

    monkeypatch.setattr(DistributionSpec, "quantile", counted)
    shock = DistributionSpec("normal", 0.5)
    assert "truncation_window" not in vars(shock)
    window = shock_bounds(shock)
    assert window == (quantile(shock, 1e-12), quantile(shock, 1.0 - 1e-12))
    assert vars(shock)["truncation_window"] == window
    assert shock_bounds(shock, -100.0, 0.2) == (window[0], 0.2)
    wider = replace(shock, scale=1.0)
    assert shock_bounds(wider) == (quantile(wider, 1e-12), quantile(wider, 1.0 - 1e-12))
    assert vars(wider)["truncation_window"] != window
    assert calls == []
    logistic = DistributionSpec("logistic", 0.5)
    window = shock_bounds(logistic)
    assert window == (quantile(logistic, 1e-12), quantile(logistic, 1.0 - 1e-12))
    assert shock_bounds(logistic, None, 0.2) == (window[0], 0.2)
    assert calls == [("logistic", 1e-12), ("logistic", 1.0 - 1e-12)]
    assert shock == DistributionSpec("normal", 0.5)
    assert hash(shock) == hash(DistributionSpec("normal", 0.5))


def test_integrate_shock_total_mass():
    for family in ("normal", "logistic"):
        shock = DistributionSpec(family, 0.7)
        assert integrate_shock(lambda g: 1.0, shock) == pytest.approx(1.0, abs=1e-9)


def test_integrate_shock_piece():
    shock = DistributionSpec("normal", 0.5)
    # Mass on [0, 1] equals Phi(2) - 1/2; FROZEN Phi(2) = 0.9772498680518208.
    val = integrate_shock(lambda g: 1.0, shock, lo=0.0, hi=1.0)
    assert val == pytest.approx(0.9772498680518208 - 0.5, abs=1e-9)


def test_integrate_shock_meets_its_tolerance_or_raises():
    # E[Phi(-1 - gamma)] with gamma ~ N(0, 0.5^2) is Phi(-1/sqrt(1.25)). The
    # default config asks for max(1e-10, 1e-8 * 0.1855) ~ 1.9e-9. Adaptive
    # Simpson's error estimate was fooled here and returned a value 1.1e-7
    # off without raising.
    exact = 0.5 * math.erfc(1.0 / math.sqrt(2.5))
    taste = DistributionSpec("normal", 1.0)
    try:
        val = integrate_shock(
            lambda g: taste.cdf(-1.0 - g), DistributionSpec("normal", 0.5)
        )
    except QuadratureError:
        return
    assert abs(val - exact) <= max(1e-10, 1e-8 * exact)
