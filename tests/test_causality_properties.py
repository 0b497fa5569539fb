"""Symmetries of tau that the relative slack of the cone test keeps at every
scale: dilations and left translations.  Skipped without hypothesis."""

import pytest

from sublorentz.causality import CausalRelation, classify, tau
from sublorentz.heisenberg import GroupPoint, group_difference, mul

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

NULL_BAND = 1e-4  # relative distance |F| / S below which tau is ill-conditioned


def _null_distance(d):
    s = d.x * d.x + d.y * d.y + 4.0 * abs(d.z)
    return abs(-d.x * d.x + d.y * d.y + 4.0 * abs(d.z)) / s if s > 0.0 else 0.0


unit = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.tuples(unit, unit, unit),
    st.floats(0.05, 3.0),
    st.floats(-0.99, 0.99),
    st.floats(-0.99, 0.99),
    st.floats(-6.0, 6.0),
)
def test_tau_scales_under_dilations(base, x, y_ratio, z_ratio, log_lam):
    y = y_ratio * x
    a = GroupPoint(*base)
    b = mul(a, GroupPoint(x, y, z_ratio * 0.25 * (x * x - y * y)))
    assume(classify(a, b) is CausalRelation.CHRONOLOGICAL)
    assume(_null_distance(group_difference(a, b)) > NULL_BAND)
    lam = 10.0**log_lam
    t0 = tau(a, b)

    def dilate(p):
        return GroupPoint(lam * p.x, lam * p.y, lam * lam * p.z)

    assert tau(dilate(a), dilate(b)) == pytest.approx(lam * t0, rel=1e-9, abs=0.0)


grid = st.integers(-128, 128).map(lambda k: k / 64.0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.tuples(grid, grid, grid),
    st.integers(4, 192).map(lambda k: k / 64.0),
    grid,
    st.integers(-144, 144).map(lambda k: k / 64.0),
    st.integers(0, 2),
    st.integers(1, 10**6),
)
def test_tau_is_invariant_under_axis_translations(base, x, y, z, axis, s):
    # Inputs on a coarse dyadic grid keep the translated points and their
    # group differences exact, so any drift would come from the kernels and
    # not from rounding the inputs: with generic inputs a translation of
    # size s fixes the group difference only to about 1e-16 s.
    a = GroupPoint(*base)
    b = mul(a, GroupPoint(x, y, z))
    assume(classify(a, b) is CausalRelation.CHRONOLOGICAL)
    assume(_null_distance(group_difference(a, b)) > NULL_BAND)
    g = GroupPoint(*(float(s) if k == axis else 0.0 for k in range(3)))
    t0 = tau(a, b)
    assert t0 > 0.0
    assert tau(mul(g, a), mul(g, b)) == pytest.approx(t0, rel=1e-9, abs=0.0)
