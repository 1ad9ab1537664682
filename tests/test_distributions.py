"""Distribution layer: closed forms, truncation, and shape validation."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from refcalc.distributions import (
    DistributionSpec,
    TruncatedDistribution,
    validate_shape,
)
from refcalc.errors import UsageError

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


def test_validate_shape_passes_known_families():
    for family in ("normal", "logistic"):
        report = validate_shape(DistributionSpec(family, 0.7))
        assert all(c.passed for c in report.checks), [
            (c.name, c.worst) for c in report.checks if not c.passed
        ]
        names = {c.name for c in report.checks}
        assert "pdf_symmetric" in names
        assert "cdf_strictly_increasing" in names
        assert "quantile_roundtrip" in names
