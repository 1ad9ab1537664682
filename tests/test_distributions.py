"""Distribution layer: closed forms, truncation, and shape validation."""
from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from scipy import special

from refcalc.distributions import (
    _ERFCINV_WINDOW,
    _MAXLOG,
    FAMILIES,
    TRUNCATION_TAIL,
    DistributionSpec,
    TruncatedDistribution,
)
from refcalc.errors import UsageError
from refcalc.thresholds import _integrand

SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_normal_partial_mean_half_line():
    # FROZEN scipy quad: 0.19947114020071752; closed form s / sqrt(2 pi).
    d = DistributionSpec("normal", 0.5)
    assert d.partial_mean(0.0, math.inf) == pytest.approx(0.5 / SQRT_2PI, abs=1e-12)
    assert d.partial_mean(0.0, math.inf) == pytest.approx(0.19947114020071752, abs=1e-10)


def test_logistic_partial_mean_half_line():
    # FROZEN scipy quad: 0.4852030263919617; closed form s * ln 2.
    d = DistributionSpec("logistic", 0.7)
    assert d.partial_mean(0.0, math.inf) == pytest.approx(0.7 * math.log(2.0), abs=1e-12)
    assert d.partial_mean(0.0, math.inf) == pytest.approx(0.4852030263919617, abs=1e-10)


def test_partial_mean_symmetry_and_total():
    for family in ("normal", "logistic"):
        d = DistributionSpec(family, 0.8)
        assert d.partial_mean(-math.inf, math.inf) == pytest.approx(0.0, abs=1e-12)
        assert d.partial_mean(-math.inf, 0.0) == pytest.approx(
            -d.partial_mean(0.0, math.inf), abs=1e-12
        )
        with pytest.raises(UsageError):
            d.partial_mean(1.0, 0.5)


def test_cdf_pdf_basics():
    d = DistributionSpec("normal", 2.0)
    assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    # FROZEN: standard normal density at 0 is 0.3989422804014327; scale divides.
    assert d.pdf(0.0) == pytest.approx(0.3989422804014327 / 2.0, abs=1e-12)
    lg = DistributionSpec("logistic", 1.5)
    assert lg.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert lg.pdf(0.0) == pytest.approx(0.25 / 1.5, abs=1e-12)


def test_normal_cdf_two_sigma():
    # FROZEN: Phi(2) = 0.9772498680518208.
    d = DistributionSpec("normal", 1.0)
    assert d.cdf(2.0) == pytest.approx(0.9772498680518208, abs=1e-12)


@given(
    family=st.sampled_from(["normal", "logistic"]),
    scale=st.floats(0.05, 5.0),
    q=st.floats(0.001, 0.999),
)
def test_quantile_roundtrip(family, scale, q):
    d = DistributionSpec(family, scale)
    assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-9)


@given(
    family=st.sampled_from(["normal", "logistic"]),
    scale=st.floats(0.05, 5.0),
    z=st.floats(-1000.0, 5.0),
)
def test_logcdf_roundtrip_past_underflow(family, scale, z):
    # The cdf underflows near z = -38.5 (normal) and z = -745 (logistic);
    # logcdf and ilogcdf still invert each other there, and logcdf is
    # log(cdf) wherever the cdf is a normal float.
    d = DistributionSpec(family, scale)
    x = z * scale
    assert d.ilogcdf(d.logcdf(x)) == pytest.approx(x, rel=1e-11, abs=1e-11 * scale)
    if z > -30.0:
        assert d.logcdf(x) == pytest.approx(math.log(d.cdf(x)), rel=1e-12, abs=1e-12)
    for bad in (0.0, 1.0, math.nan, -math.inf):
        with pytest.raises(UsageError):
            d.ilogcdf(bad)


@seed(20240607)
@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["normal", "logistic"]),
    scale=st.floats(0.05, 5.0),
    z=st.floats(-40.0, 40.0),
    q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_float_path_equals_array_path(family, scale, z, q):
    # A Python float skips the array conversion but must compute the array
    # path's formula in its order: the results are bit-identical, not merely
    # close.
    d = DistributionSpec(family, scale)
    x = z * scale
    for method, arg in ((d.cdf, x), (d.pdf, x), (d.quantile, q)):
        out = method(arg)
        assert type(out) is float
        assert out == method(np.array([arg, 0.5]))[0]
        assert out == method(np.float64(arg))


def _cdf_points():
    # Points a of erfc: uniform on [-30, 30], N(0, 4^2) and N(0, 1), and
    # both edges of each branch: |a| = 1 and 8, where the port changes
    # polynomials, and a^2 = MAXLOG (|a| near 26.64), where erfc underflows
    # to 0 or 2, with 26.5, 26.6 and 27 around it.
    rng = np.random.default_rng(36)
    edge = math.sqrt(_MAXLOG)
    near = [edge + k * 1e-12 for k in range(-50, 51)] + [np.nextafter(edge, 0.0), edge]
    special_points = [1.0, 8.0, 26.5, 26.6, 27.0, 0.0, *near]
    special_points += [np.nextafter(t, 0.0) for t in (1.0, 8.0)]
    special_points += [np.nextafter(t, 30.0) for t in (1.0, 8.0)]
    return np.concatenate([
        rng.uniform(-30.0, 30.0, 400_000),
        rng.normal(0.0, 4.0, 300_000),
        rng.normal(0.0, 1.0, 300_000),
        special_points,
        np.negative(special_points),
    ])


def test_normal_float_cdf_is_scipys_erfc_bit_for_bit():
    # The float cdf is 0.5 erfc(a) at a = -(x/scale)/sqrt(2), with erfc a
    # port of Cephes' ndtr.c. It must return scipy.special.erfc's double at
    # each point read: this is what notices a scipy whose erfc changes. At
    # scale 1, x = -sqrt(2) a reads 1 and 8 back exactly.
    a = _cdf_points()
    assert a.size > 1_000_000
    for scale in (1.0, 0.3):
        x = -a * math.sqrt(2.0) * scale
        cdf = DistributionSpec("normal", scale)._scalar_cdf
        reads = -(x / scale) / math.sqrt(2.0)
        assert [cdf(v) for v in x.tolist()] == (0.5 * special.erfc(reads)).tolist()
        if scale == 1.0:
            assert {1.0, 8.0, -1.0, -8.0} <= set(reads.tolist())


def test_logistic_float_cdf_is_scipys_expit_bit_for_bit():
    # 1 / (1 + exp(-z)), and 0.0 where math.exp overflows (z < -709.78),
    # as C's exp gives inf there.
    rng = np.random.default_rng(37)
    z = np.concatenate([
        rng.uniform(-800.0, 800.0, 300_000),
        rng.normal(0.0, 4.0, 400_000),
        rng.logistic(0.0, 1.0, 300_000),
        [-709.78, -745.2, 710.0, -_MAXLOG, np.nextafter(-_MAXLOG, 0.0),
         np.nextafter(-_MAXLOG, -800.0), 0.0, -0.0, 36.7, 37.0, -1e300, 1e300],
    ])
    cdf = DistributionSpec("logistic", 1.0)._scalar_cdf
    assert [cdf(v) for v in z.tolist()] == special.expit(z).tolist()


def test_normal_truncation_window_literals_are_scipys_erfcinv():
    assert _ERFCINV_WINDOW == (
        special.erfcinv(2.0 * TRUNCATION_TAIL),
        special.erfcinv(2.0 * (1.0 - TRUNCATION_TAIL)),
    )
    for scale in (0.25, 1.0, 3.7):
        d = DistributionSpec("normal", scale)
        assert d.truncation_window == (
            d.quantile(TRUNCATION_TAIL), d.quantile(1.0 - TRUNCATION_TAIL))


def test_float_path_rejects_non_finite_and_closed_unit_interval():
    for family in ("normal", "logistic"):
        d = DistributionSpec(family, 1.0)
        with pytest.raises(UsageError):
            d.cdf(math.nan)
        with pytest.raises(UsageError):
            d.pdf(math.inf)
        for bad in (0.0, 1.0, math.nan):
            with pytest.raises(UsageError):
                d.quantile(bad)


def test_array_path_rejects_what_the_float_path_rejects():
    for family in ("normal", "logistic"):
        d = DistributionSpec(family, 1.0)
        for method in (d.cdf, d.pdf, d.logcdf):
            with pytest.raises(UsageError, match="non-finite point"):
                method(np.array([0.0, math.inf]))
        for bad in (0.0, 1.0, math.nan):
            with pytest.raises(UsageError, match=r"strictly in \(0, 1\)"):
                d.quantile(np.array([0.5, bad]))
        with pytest.raises(UsageError, match="must not be NaN"):
            d.partial_mean(np.array([0.0, math.nan]), 1.0)
        with pytest.raises(UsageError, match="lo <= hi"):
            d.partial_mean(np.array([0.0, 2.0]), np.array([1.0, 1.0]))


@seed(20240615)
@settings(max_examples=300, deadline=None)
@given(
    taste_family=st.sampled_from(FAMILIES),
    shock_family=st.sampled_from(FAMILIES),
    form=st.sampled_from(("L", "R")),
    taste_scale=st.floats(0.05, 5.0),
    shock_scale=st.floats(0.05, 5.0),
    b=st.floats(-3.0, 3.0),
    p=st.floats(0.01, 3.0),
    z=st.floats(-40.0, 40.0),
)
def test_kernel_integrand_closures_equal_the_method_and_array_paths(
    taste_family, shock_family, form, taste_scale, shock_scale, b, p, z
):
    # The kernel integrand and integrate_shock's weight call the per-spec
    # closures; each product must be the double the array branch gives.
    taste = DistributionSpec(taste_family, taste_scale)
    shock = DistributionSpec(shock_family, shock_scale)
    g = z * shock_scale
    x = -p + g + b if form == "L" else -p - g - b
    closure = _integrand(form, b, p, taste)(g) * shock._scalar_pdf(g)
    assert closure == taste.cdf(np.array([x]))[0] * shock.pdf(np.array([g]))[0]
    assert closure == _integrand(form, b, p, taste)(g) * shock.pdf(g)
    assert closure == taste.cdf(x) * shock.pdf(g)


def test_scalar_closures_reject_non_finite_arguments():
    for family in FAMILIES:
        d = DistributionSpec(family, 0.7)
        for f in (d._scalar_cdf, d._scalar_pdf):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(UsageError, match="non-finite point"):
                    f(bad)


def test_copies_rebuild_the_closures_and_keep_identity():
    # The closures are not fields, so they stay out of ==, hash, repr and
    # the memo keys, and a copy builds its own: sweep --threads pickles the
    # specs into its workers.
    assert [f.name for f in dataclasses.fields(DistributionSpec)] == ["family", "scale"]
    xs = (-2.5, -0.3, 0.0, 0.4, 1.7)
    for family in FAMILIES:
        d = DistributionSpec(family, 0.7)
        d.truncation_window  # cached on d, so each copy must compute its own
        copies = (
            pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d),
            dataclasses.replace(d),
        )
        for c in copies:
            assert c == d and hash(c) == hash(d) and repr(c) == repr(d)
            assert c._scalar_cdf is not d._scalar_cdf
            assert [c.cdf(x) for x in xs] == [d.cdf(x) for x in xs]
            assert [c.pdf(x) for x in xs] == [d.pdf(x) for x in xs]
            assert c.truncation_window == d.truncation_window


@pytest.mark.parametrize("half_width", [0.0, -1.0, math.inf, math.nan])
def test_truncation_needs_a_finite_positive_half_width(half_width):
    with pytest.raises(UsageError, match="half_width must be finite and positive"):
        TruncatedDistribution(DistributionSpec("normal", 1.0), half_width)


def test_truncated_quantile_rejects_the_closed_unit_interval():
    t = TruncatedDistribution(DistributionSpec("normal", 1.0), 2.0)
    for bad in (0.0, 1.0, math.nan, -0.5):
        with pytest.raises(UsageError, match=r"strictly in \(0, 1\)"):
            t.quantile(np.array([0.5, bad]))
        with pytest.raises(UsageError, match=r"strictly in \(0, 1\)"):
            t.quantile(bad)


def test_quantile_symmetry():
    d = DistributionSpec("normal", 0.5)
    # FROZEN scipy: norm.ppf(0.25, scale=0.5) = -0.33724487509804085.
    assert d.quantile(0.25) == pytest.approx(-0.33724487509804085, abs=1e-12)
    assert d.quantile(0.75) == pytest.approx(0.33724487509804085, abs=1e-12)


def test_invalid_family_and_scale():
    with pytest.raises(UsageError):
        DistributionSpec("cauchy", 1.0).cdf(0.0)
    with pytest.raises(UsageError):
        DistributionSpec("normal", -1.0).cdf(0.0)
    with pytest.raises(UsageError):
        DistributionSpec("normal", 0.0).cdf(0.0)


def test_truncated_mass_and_cdf():
    t = TruncatedDistribution(DistributionSpec("normal", 0.6), 2.0)
    # FROZEN scipy: mass of N(0, 0.6) on [-2, 2] is 0.9991418793336064.
    base_mass = 0.9991418793336064
    assert t.mass(-2.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert t.cdf(-2.0) == pytest.approx(0.0, abs=1e-12)
    assert t.cdf(2.0) == pytest.approx(1.0, abs=1e-12)
    assert t.cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    # Renormalisation against the base distribution.
    b = DistributionSpec("normal", 0.6)
    assert t.pdf(0.3) == pytest.approx(b.pdf(0.3) / base_mass, abs=1e-12)


def test_truncated_abs_moment():
    t = TruncatedDistribution(DistributionSpec("normal", 0.6), 2.0)
    # FROZEN scipy quad: E|u + 0.35| under the truncated law = 0.5565749364339512.
    assert t.abs_moment(0.35) == pytest.approx(0.5565749364339512, abs=1e-9)
    # Symmetric law: the moment is even in the shift.
    assert t.abs_moment(-0.35) == pytest.approx(t.abs_moment(0.35), abs=1e-12)
    # Shift beyond the support: |u + s| = u + s pointwise, mean s exactly.
    assert t.abs_moment(5.0) == pytest.approx(5.0, abs=1e-12)


def test_truncated_partial_mean():
    t = TruncatedDistribution(DistributionSpec("normal", 0.6), 2.0)
    # FROZEN scipy quad: E[(u + 0.1)^+] = 0.2919644802455115, split into the
    # partial mean plus the shifted upper mass.
    combined = t.partial_mean(-0.1, 2.0) + 0.1 * t.mass(-0.1, 2.0)
    assert combined == pytest.approx(0.2919644802455115, abs=1e-9)
    assert t.partial_mean(-2.0, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_truncated_partial_mean_vectorized():
    t = TruncatedDistribution(DistributionSpec("normal", 1.2), 3.0)
    los = np.array([-3.0, -1.0, 0.0, 2.5])
    scalar = np.array([t.partial_mean(lo, 3.0) for lo in los])
    vec = t.partial_mean(los, 3.0)
    assert np.allclose(vec, scalar, atol=1e-12)


# The truncation's methods as they read while each one evaluated the tail mass
# base.cdf(-half_width) afresh; the stored mass must keep every bit of them.
def _old_mass(t):
    return 1.0 - 2.0 * t.base.cdf(-t.half_width)


def _old_cdf(t, x):
    xa = np.asarray(x, dtype=float)
    lowmass = t.base.cdf(-t.half_width)
    out = np.clip((t.base.cdf(xa) - lowmass) / _old_mass(t), 0.0, 1.0)
    out = np.where(xa <= -t.half_width, 0.0, out)
    return np.where(xa >= t.half_width, 1.0, out)


def _old_pdf(t, x):
    xa = np.asarray(x, dtype=float)
    return np.where(np.abs(xa) <= t.half_width, t.base.pdf(xa) / _old_mass(t), 0.0)


def _old_quantile(t, q):
    lowmass = t.base.cdf(-t.half_width)
    out = t.base.quantile(lowmass + np.asarray(q, dtype=float) * _old_mass(t))
    return np.clip(out, -t.half_width, t.half_width)


def _old_partial_mean(t, lo, hi):
    lo_a = np.maximum(np.asarray(lo, dtype=float), -t.half_width)
    hi_a = np.minimum(np.asarray(hi, dtype=float), t.half_width)
    lo_c = np.minimum(lo_a, hi_a)
    return np.where(hi_a > lo_a, t.base.partial_mean(lo_c, hi_a) / _old_mass(t), 0.0)


def _old_abs_moment(t, shift):
    w = t.half_width
    a = np.asarray(shift, dtype=float)
    kink = np.clip(-a, -w, w)

    def mass(lo, hi):
        return _old_cdf(t, hi) - _old_cdf(t, lo)

    below = -(_old_partial_mean(t, -w, kink) + a * mass(-w, kink))
    above = _old_partial_mean(t, kink, w) + a * mass(kink, w)
    return below + above


@pytest.mark.parametrize("family, scale, w", [
    ("normal", 0.6, 2.0), ("normal", 1.2, 3.0), ("normal", 2.0, 0.5),
    ("logistic", 0.7, 1.5), ("logistic", 0.3, 0.9), ("logistic", 1.2, 0.4),
])
def test_truncated_methods_keep_the_bits_of_their_old_formulas(family, scale, w):
    t = TruncatedDistribution(DistributionSpec(family, scale), w)
    inside = [math.nextafter(-w, 0.0), -0.37 * w, 0.0, 0.21 * w, math.nextafter(w, 0.0)]
    xs = np.array([-10.0 * w, -2.0 * w, -w, *inside, w, 2.0 * w, 10.0 * w])
    qs = np.array([1e-12, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0 - 1e-12])
    los = np.array([-math.inf, -2.0 * w, -w, -0.5 * w, 0.0, 0.3 * w, w, 3.0 * w])
    his = np.array([-3.0 * w, -w, 0.1 * w, 0.0, 0.8 * w, w, 2.0 * w, math.inf])
    cases = [
        (t.cdf, _old_cdf, (xs,)),
        (t.pdf, _old_pdf, (xs,)),
        (t.quantile, _old_quantile, (qs,)),
        (t.partial_mean, _old_partial_mean, (los, his)),
        (t.abs_moment, _old_abs_moment, (xs,)),
    ]
    for new, old, args in cases:
        assert np.array_equal(new(*args), old(t, *args)), new.__name__
        for point in zip(*args):
            point = tuple(float(v) for v in point)
            assert new(*point) == float(old(t, *point)), (new.__name__, point)


def test_truncation_evaluates_its_tail_mass_once(monkeypatch):
    # TruncatedDistribution hands the base cdf arrays only, so every call
    # with a float argument is the tail mass.
    base_cdf = DistributionSpec.cdf
    float_calls = []

    def spy(self, x):
        if isinstance(x, float):
            float_calls.append(x)
        return base_cdf(self, x)

    monkeypatch.setattr(DistributionSpec, "cdf", spy)
    for family in ("normal", "logistic"):
        float_calls.clear()
        t = TruncatedDistribution(DistributionSpec(family, 0.6), 2.0)
        for x in (0.3, -2.5, 2.0, np.array([-3.0, -2.0, -0.4, 0.0, 1.1, 2.0])):
            t.cdf(x)
            t.pdf(x)
            t.partial_mean(-1.0, x)
            t.mass(-1.0, x)
            t.abs_moment(x)
        t.quantile(0.25)
        t.quantile(np.array([0.1, 0.9]))
        assert float_calls == [-2.0]


def _half_widths(base):
    """Half-widths whose tail mass runs from about 0.4 down past 2^-53, where
    1 - 2 * mass starts to round, to one that underflows to 0."""
    masses = [0.4, 1e-3, 2.0**-30, *(2.0**-k for k in range(50, 60)), 2.0**-200]
    widths = [-base.quantile(m) for m in masses]
    widths += [w * f for w in widths[3:13] for f in (1.0 - 1e-9, 1.0 + 1e-9)]
    return [*widths, 40.0 * base.scale if base.family == "normal" else 800.0 * base.scale]


@pytest.mark.parametrize("family", FAMILIES)
def test_truncated_quantile_maps_every_q_strictly_inside_the_base_interval(family):
    # The truncated quantile checks q only, then applies the family formula
    # to _lowmass + q * _mass. The old path checked that argument again; it
    # must still pass that check at the extreme q, with the same bits.
    base = DistributionSpec(family, 0.8)
    one_below = math.nextafter(1.0, 0.0)
    qs = np.array([5e-324, 1e-300, 1e-16, 0.5, math.nextafter(one_below, 0.0), one_below])
    for w in _half_widths(base):
        t = TruncatedDistribution(base, w)
        assert t._lowmass >= 0.0
        assert np.array_equal(t.quantile(qs), _old_quantile(t, qs)), w
        assert all(t.quantile(float(q)) == float(_old_quantile(t, q)) for q in qs), w
    assert TruncatedDistribution(base, _half_widths(base)[-1])._lowmass == 0.0


def test_truncated_quantile_does_not_call_the_checked_base_quantile(monkeypatch):
    def refuse(self, q):
        raise AssertionError("the truncated quantile re-checks its argument")

    monkeypatch.setattr(DistributionSpec, "quantile", refuse)
    for family in FAMILIES:
        t = TruncatedDistribution(DistributionSpec(family, 0.6), 2.0)
        assert -2.0 < t.quantile(0.3) < 0.0
        assert t.quantile(np.array([0.1, 0.9])).shape == (2,)


@pytest.mark.parametrize("scale", [1e-9, 1e-3, 0.7, 1e3])
@pytest.mark.parametrize("family", FAMILIES)
def test_families_have_the_shape_the_model_assumes(family, scale):
    # Symmetric, unimodal and log-concave, on a grid spanning the quantiles
    # 1e-6 to 1 - 1e-6. The tolerances are a few ulps of the quantity
    # compared (the density relative to its peak), so they hold at any scale.
    eps = np.finfo(float).eps
    d = DistributionSpec(family, scale)
    qs = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    x = d.quantile(qs)
    pdf, cdf = d.pdf(x), d.cdf(x)
    assert np.max(np.abs(pdf - d.pdf(-x))) <= 8 * eps * d.pdf(0.0)
    assert np.max(np.abs(cdf + d.cdf(-x) - 1.0)) <= 4 * eps
    assert np.all(np.diff(cdf) > 0)
    assert np.max(np.abs(cdf - qs)) <= 4 * eps
    assert np.all(np.diff(pdf[x >= 0]) < 0)
    # Log-concavity on an uneven grid: the chord slopes of log pdf decrease
    # (plain second differences would depend on the spacing).
    slopes = np.diff(np.log(pdf)) / np.diff(x)
    assert np.all(np.diff(slopes) < 0)
