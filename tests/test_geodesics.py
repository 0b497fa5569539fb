"""Closed-form geodesic flow and exp/log inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sublorentz.causality import tau
from sublorentz.errors import NotChronological, OutOfDomain
from sublorentz.geodesics import (
    GeodesicArc,
    HamiltonianState,
    exp_map,
    flow,
    geodesic_trace,
    log_map,
)
from sublorentz.heisenberg import (
    IDENTITY,
    FrameCovector,
    GroupPoint,
    energy,
    group_difference,
    mul,
    sup_distance,
)
from sublorentz.verify import _taylor_flows


def test_flow_closed_form_example():
    st1 = flow(IDENTITY, FrameCovector(-1.0, 0.0, 1.0), 1.0)
    assert st1.point.x == pytest.approx(math.sinh(1.0), abs=1e-15)
    assert st1.point.y == pytest.approx(math.cosh(1.0) - 1.0, abs=1e-15)
    assert st1.point.z == pytest.approx((math.sinh(1.0) - 1.0) / 2.0, abs=1e-15)
    assert st1.cov.hX == pytest.approx(-math.cosh(1.0))
    assert st1.cov.hY == pytest.approx(math.sinh(1.0))


def test_flow_at_zero_time():
    q0 = GroupPoint(0.2, -0.4, 0.9)
    cov = FrameCovector(-1.3, 0.4, 0.7)
    st0 = flow(q0, cov, 0.0)
    assert st0.point == q0
    assert st0.cov == cov


def test_flow_matches_taylor_oracle():
    rng = np.random.default_rng(11)
    covs = np.empty((25, 3))
    ts = np.empty(25)
    for k in range(25):
        v = rng.uniform(-0.9, 0.9)
        covs[k] = -rng.uniform(abs(v) + 0.05, 2.0), v, rng.uniform(-1.5, 1.5)
        ts[k] = rng.uniform(0.1, 2.0)
    got = []
    for cov, t in zip(covs, ts):
        point, (hx, hy, _) = flow(IDENTITY, FrameCovector(*cov), t)
        got.append([*point, hx, hy])
    assert np.abs(np.array(got) - _taylor_flows(covs, ts)).max() <= 1e-8


def test_flow_conserves_energy_and_vertical_momentum():
    cov = FrameCovector(-1.5, 0.7, 1.2)
    e0 = energy(cov)
    for t in (0.3, 1.0, 2.5):
        st_t = flow(IDENTITY, cov, t)
        assert st_t.cov.hZ == cov.hZ
        assert energy(st_t.cov) == pytest.approx(e0, rel=1e-12)


def test_flow_scaling_identity():
    cov = FrameCovector(-1.1, 0.2, 0.8)
    a, t = 0.6, 1.7
    lhs = flow(IDENTITY, FrameCovector(a * cov.hX, a * cov.hY, a * cov.hZ), t).point
    rhs = flow(IDENTITY, cov, a * t).point
    assert sup_distance(lhs, rhs) <= 1e-13


def test_flow_raises_instead_of_returning_non_finite_coordinates():
    cov = FrameCovector(-1e200, 0.0, 1.0)
    cases = [
        (IDENTITY, cov, 1.0),  # z overflows to inf
        (IDENTITY, cov, 0.0),  # z is inf * 0 = nan
        (GroupPoint(1e308, 0.0, 0.0), FrameCovector(-1e308, 0.0, 0.0), 1.0),  # x overflows
        (IDENTITY, FrameCovector(-1.0, 0.5, 720.0), 1.0),  # cosh(720) overflows
    ]
    for base, cov0, t in cases:
        # flow, exp_map and GeodesicArc.point share one kernel and one error
        calls = [lambda: flow(base, cov0, t), lambda: GeodesicArc(base, cov0, t).point(t)]
        if t == 1.0:
            calls.append(lambda: exp_map(base, cov0))
        messages = set()
        for call in calls:
            with pytest.raises(OutOfDomain) as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == 1, messages
    # just inside the range the values stay finite
    assert flow(IDENTITY, FrameCovector(-1e150, 0.0, 1.0), 1.0).point.z < math.inf


# (base, cov0, t) -> flow's point and (hX, hY) at t, and exp_map's point
_PINNED_FLOWS = [
    (  # |hZ t| below the series cut
        (0.0, 0.0, 0.0), (-1.0, 0.3, 5e-5), 1.3,
        ("0x1.4ccda1777132cp+0", "0x1.8f673c53f3888p-2", "0x1.1784a91aba030p-17"),
        ("-0x1.00014730ef79ap+0", "0x1.33443d5195e29p-2"),
        ("0x1.00007dd60b570p+0", "0x1.3339c0ee13c1ap-2", "0x1.fce8acb69fb2fp-19"),
    ),
    (  # a translated base
        (0.3, -0.2, 0.1), (-0.8, 0.3, 0.4), 1.7,
        ("0x1.f28bd6943d511p+0", "0x1.a953cdeeffcf6p-1", "0x1.05e730238d56ep-1"),
        ("-0x1.365870dde13e0p+0", "0x1.eaff3b05f39d1p-1"),
        ("0x1.2eabcc4e33157p+0", "0x1.14b1aa3aadfb0p-2", "0x1.1be58971466c2p-2"),
    ),
    (  # scale 1e3: base (L x, L y, L^2 z), covector (L u, L v, w)
        (400.0, -700.0, 2e5), (-1200.0, 500.0, 0.9), 1.0,
        ("0x1.f652b8912e2b2p+10", "0x1.bfbc4f37c9ca8p+8", "0x1.091269f69bec4p+20"),
        ("-0x1.171ec8e979e6cp+11", "0x1.e7173fb5dcc08p+10"),
        ("0x1.f652b8912e2b2p+10", "0x1.bfbc4f37c9ca8p+8", "0x1.091269f69bec4p+20"),
    ),
    (  # hZ = 0: a straight line
        (0.1, 0.2, -0.05), (-1.0, 0.4, 0.0), 1.2,
        ("0x1.4cccccccccccdp+0", "0x1.5c28f5c28f5c2p-1", "-0x1.2b020c49ba5e4p-3"),
        ("-0x1.0000000000000p+0", "0x1.999999999999ap-2"),
        ("0x1.199999999999ap+0", "0x1.3333333333334p-1", "-0x1.0a3d70a3d70a4p-3"),
    ),
    (  # negative hZ, |hZ t| = 6e-5 below the series cut
        (0.0, 0.0, 0.0), (-1.1, -0.3, -3e-5), 2.0,
        ("0x1.199a309b23ee4p+1", "-0x1.333bd9cdf9c22p-1", "-0x1.77cf4477741f4p-16"),
        ("-0x1.199ac79f83f1ep+0", "-0x1.3344806bd80d5p-2"),
        ("0x1.1999e519a9585p+0", "-0x1.3337867fd08d0p-2", "-0x1.77cf44769a385p-19"),
    ),
    (  # |hZ t| = 1.5e-4, just above the series cut
        (-0.2, 0.5, 0.3), (-0.9, 0.2, 1.5e-4), 1.0,
        ("0x1.66685dd4690fep-1", "0x1.666f3f596dfaep-1", "0x1.c28d85e797c94p-5"),
        ("-0x1.ccd0bbc5cfd32p-1", "0x1.99e0614b9b42cp-3"),
        ("0x1.66685dd4690fep-1", "0x1.666f3f596dfaep-1", "0x1.c28d85e797c94p-5"),
    ),
]


def _hexes(values):
    return tuple(v.hex() for v in values)


def test_flow_exp_map_and_arc_point_are_pinned_bit_for_bit():
    # any reordering of the kernel's arithmetic moves some last bit
    for base, cov0, t, point, frame, exp_point in _PINNED_FLOWS:
        base, cov0 = GroupPoint(*base), FrameCovector(*cov0)
        state = flow(base, cov0, t)
        assert _hexes(state.point) == point
        assert _hexes(state.cov) == (*frame, cov0.hZ.hex())
        assert _hexes(GeodesicArc(base, cov0, t).point(t)) == point
        assert _hexes(exp_map(base, cov0)) == exp_point


def test_records_keep_their_types():
    # each kernel result is exactly its record type, equal to the record its
    # constructor builds from the same fields, with the same fields and repr
    a, b = GroupPoint(0.3, -0.2, 0.1), GroupPoint(2.0, 0.5, 0.4)
    cov = FrameCovector(-0.8, 0.3, 0.4)
    state = flow(a, cov, 1.7)
    np_a = (np.float64(0.3), np.float64(-0.2), np.float64(0.1))
    results = [
        (mul(a, b), GroupPoint),
        (mul(np_a, b), GroupPoint),
        (mul(a, np_a), GroupPoint),
        (group_difference(a, b), GroupPoint),
        (exp_map(a, cov), GroupPoint),
        (log_map(a, b), FrameCovector),
        (state, HamiltonianState),
        (state.point, GroupPoint),
        (state.cov, FrameCovector),
        (GeodesicArc(a, cov, 1.7).point(0.9), GroupPoint),
    ]
    for record, cls in results:
        built = cls(*record)
        assert type(record) is cls
        assert record == built
        assert record._fields == built._fields == cls._fields
        assert repr(record) == repr(built)
    assert isinstance(mul(np_a, b).x, np.float64)


def test_flow_small_vertical_momentum_is_continuous():
    cov0 = FrameCovector(-1.0, 0.3, 0.0)
    cov1 = FrameCovector(-1.0, 0.3, 1e-9)
    p0 = flow(IDENTITY, cov0, 1.0).point
    p1 = flow(IDENTITY, cov1, 1.0).point
    assert sup_distance(p0, p1) <= 1e-8


def test_log_map_frozen_example():
    cov = log_map(IDENTITY, GroupPoint(2.0, 1.0, 0.0))
    assert cov.hX == pytest.approx(-2.0, abs=1e-14)
    assert cov.hY == pytest.approx(1.0, abs=1e-14)
    assert cov.hZ == pytest.approx(0.0, abs=1e-14)
    assert energy(cov) == pytest.approx(1.5, abs=1e-14)
    assert math.sqrt(2 * energy(cov)) == pytest.approx(
        tau(IDENTITY, GroupPoint(2.0, 1.0, 0.0)), abs=1e-12
    )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.floats(-0.85, 0.85),
    st.floats(0.05, 1.2),
    st.floats(-1.4, 1.4),
    st.floats(0.2, 1.6),
)
def test_exp_log_roundtrip(v, gap, w, t):
    cov = FrameCovector(-(abs(v) + gap), v, w)
    scaled = FrameCovector(t * cov.hX, t * cov.hY, t * cov.hZ)
    q = exp_map(IDENTITY, scaled)
    back = log_map(IDENTITY, q)
    scale = 1.0 + max(abs(scaled.hX), abs(scaled.hY), abs(scaled.hZ))
    assert abs(back.hX - scaled.hX) <= 1e-9 * scale
    assert abs(back.hY - scaled.hY) <= 1e-9 * scale
    assert abs(back.hZ - scaled.hZ) <= 1e-9 * scale


def test_log_map_translated_base():
    base = GroupPoint(0.4, -0.6, 0.25)
    cov = FrameCovector(-1.2, 0.5, -0.9)
    q = exp_map(base, cov)
    back = log_map(base, q)
    assert abs(back.hX - cov.hX) <= 1e-11
    assert abs(back.hY - cov.hY) <= 1e-11
    assert abs(back.hZ - cov.hZ) <= 1e-11


def test_log_map_rejects_non_chronological_targets():
    with pytest.raises(NotChronological):
        log_map(IDENTITY, GroupPoint(1.0, 1.0, 0.0))
    with pytest.raises(NotChronological):
        log_map(IDENTITY, GroupPoint(-1.0, 0.0, 0.0))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.floats(-0.8, 0.8),
    st.floats(0.05, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-0.8, 0.8),
    st.floats(0.05, 1.0),
    st.floats(-1.0, 1.0),
)
def test_reverse_triangle_inequality(v1, g1, w1, v2, g2, w2):
    a = GroupPoint(0.1, -0.2, 0.05)
    b = exp_map(a, FrameCovector(-(abs(v1) + g1), v1, w1))
    c = exp_map(b, FrameCovector(-(abs(v2) + g2), v2, w2))
    assert tau(a, b) + tau(b, c) <= tau(a, c) + 1e-10


def test_geodesic_arc_validation():
    with pytest.raises(ValueError):
        GeodesicArc(IDENTITY, FrameCovector(-1.0, 0.0, 0.0), -0.5)
    with pytest.raises(ValueError):
        GeodesicArc(IDENTITY, FrameCovector(1.0, 0.0, 0.0), 1.0)


def test_geodesic_trace_shape():
    arc = GeodesicArc(IDENTITY, FrameCovector(-1.0, 0.0, 1.0), 1.0)
    rows = geodesic_trace(arc, 5)
    assert len(rows) == 5
    assert rows[0][0] == 0.0 and rows[-1][0] == pytest.approx(1.0)
    assert rows[0][1] == IDENTITY
    assert sup_distance(rows[-1][1], arc.point(1.0)) == 0.0
    with pytest.raises(ValueError):
        geodesic_trace(arc, 1)
