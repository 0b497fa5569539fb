"""Closed-form geodesic flow and exp/log inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sublorentz.causality import tau
from sublorentz.errors import NotChronological, OutOfDomain
from sublorentz.geodesics import (
    GeodesicArc,
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
    sup_distance,
)


def _rk4(covs, ts, steps):
    """Fixed-step RK4 for the Hamiltonian system from the identity, all flows
    at once and independent of the closed form: dx = -hX, dy = hY,
    dz = (hX y + hY x)/2, dhX = -hY hZ, dhY = -hX hZ, hZ constant.  Row k of
    covs is (hX, hY, hZ), run for time ts[k]; returns the final
    (x, y, z, hX, hY) rows."""
    w = covs[:, 2]

    def rhs(s):
        x, y, z, hx, hy = s.T
        return np.stack(
            [-hx, hy, 0.5 * (hx * y + hy * x), -hy * w, -hx * w], axis=1
        )

    state = np.zeros((len(ts), 5))
    state[:, 3:] = covs[:, :2]
    h = (ts / steps)[:, None]
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


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


def test_flow_matches_rk4():
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
    assert np.abs(np.array(got) - _rk4(covs, ts, 3000)).max() <= 1e-8


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
    with pytest.raises(OutOfDomain):
        flow(IDENTITY, cov, 1.0)  # z overflows to inf
    with pytest.raises(OutOfDomain):
        flow(IDENTITY, cov, 0.0)  # z is inf * 0 = nan
    with pytest.raises(OutOfDomain):
        flow(GroupPoint(1e308, 0.0, 0.0), FrameCovector(-1e308, 0.0, 0.0), 1.0)
    # just inside the range the values stay finite
    assert flow(IDENTITY, FrameCovector(-1e150, 0.0, 1.0), 1.0).point.z < math.inf


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


@settings(max_examples=60)
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


@settings(max_examples=60)
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
