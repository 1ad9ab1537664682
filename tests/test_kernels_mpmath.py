"""The cohesion kernels L and R against mpmath, inside and outside the memo.

r_bind, r_star and r_star_star are ratios L/(L+R) of the shock integrals

    L = int B(-p + g + b_L) g(gamma) dgamma,  R = int B(-p - g - b_R) g(gamma) dgamma

over each threshold's shock pieces (the whole line, [-b_R, -b_L], and the
two tails outside it). The reference integrates them with tests/reference_mp.py
(mpmath.quad split at the piece ends, its own cdf and pdf), which shares no
code with refcalc. It runs at mpmath's default 15 digits, which agree with
40 digits to 1e-18 at these points. Each refcalc kernel must agree within
the tolerance it declares: abs_tol per piece plus rel_tol * I (the panel
acceptance test summed over panels; the integrands are positive), plus the
1e-12 of shock mass it drops at each infinite end.
"""

from __future__ import annotations

import pytest

from refcalc import thresholds
from refcalc.distributions import DistributionSpec
from refcalc.quadrature import DEFAULT_QUADRATURE, memo

mp = pytest.importorskip("mpmath")
from reference_mp import TAIL, cdf, shock_integral  # noqa: E402  (needs mpmath)


def _pieces(name, b_L, b_R):
    if name == "r_bind":
        return [(-mp.inf, mp.inf)]
    if name == "r_star":
        return [(-b_R, -b_L)]
    return [(-mp.inf, -b_R), (-b_L, mp.inf)]


def _reference(name, b_L, b_R, p, taste, shock):
    """(L, R) by mpmath, and the absolute error refcalc may add to each."""
    B = cdf(*taste)
    L = R = mp.mpf(0)
    slack = 0.0
    for lo, hi in _pieces(name, b_L, b_R):
        L += shock_integral(lambda x: B(-p + x + b_L), shock, lo, hi)
        R += shock_integral(lambda x: B(-p - x - b_R), shock, lo, hi)
        # Each piece is one integrate call, held to abs_tol on its own.
        slack += DEFAULT_QUADRATURE.abs_tol + TAIL * ((lo == -mp.inf) + (hi == mp.inf))
    return float(L), float(R), slack


# (b_L, b_R, p, shock scale, taste scale): the benchmark's diverged and
# spoiler electorates, fig3's wide one at b_R = 0.5 and figg's.
DIVERGED_POINTS = [(-0.5, 0.3, 0.2, 0.25, 0.2), (-1.0, 0.5, 0.05, 0.5, 1.0)]
ALIGNED_POINTS = [(-0.5, -0.1, 0.2, 0.25, 0.2), (-1.0, -0.5, 1.0, 0.5, 1.0)]
CASES = [
    (name, point, family)
    for name, points in (
        ("r_bind", DIVERGED_POINTS), ("r_star", ALIGNED_POINTS),
        ("r_star_star", DIVERGED_POINTS),
    )
    for point in points
    for family in ("normal", "logistic")
]


@pytest.mark.parametrize("name, point, family", CASES)
def test_kernels_match_mpmath(name, point, family, monkeypatch):
    b_L, b_R, p, shock_scale, taste_scale = point
    taste = DistributionSpec(family, taste_scale)
    shock = DistributionSpec("normal", shock_scale)
    seen = []
    kernels = thresholds._kernels

    def recorded(*args):
        seen.append(kernels(*args))
        return seen[-1]

    monkeypatch.setattr(thresholds, "_kernels", recorded)
    fn = getattr(thresholds, name)
    value = fn(b_L, b_R, p, taste, shock).value
    with memo():
        # The second call is answered from the memo.
        values = [fn(b_L, b_R, p, taste, shock).value for _ in range(2)]
    assert values == [value, value]
    assert len(seen) == 3 and seen[1] == seen[2] == seen[0]

    ref_L, ref_R, slack = _reference(
        name, b_L, b_R, p, (family, taste_scale), ("normal", shock_scale)
    )
    L, R = seen[0]
    tol_L = slack + DEFAULT_QUADRATURE.rel_tol * ref_L
    tol_R = slack + DEFAULT_QUADRATURE.rel_tol * ref_R
    assert abs(L - ref_L) <= tol_L
    assert abs(R - ref_R) <= tol_R
    # The ratio inherits both: |d(L/(L+R))| <= (R tol_L + L tol_R) / (L+R)^2.
    ratio = ref_L / (ref_L + ref_R)
    assert abs(value - ratio) <= (ref_R * tol_L + ref_L * tol_R) / (ref_L + ref_R) ** 2
