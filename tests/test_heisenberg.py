"""Group operations and the left-invariant coframe."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sublorentz.heisenberg import (
    IDENTITY,
    CoordCovector,
    FrameCovector,
    GroupPoint,
    coord_to_frame,
    energy,
    group_difference,
    is_future_timelike,
    mul,
    sup_distance,
)

coords = st.floats(-10.0, 10.0, allow_nan=False)
points = st.builds(GroupPoint, coords, coords, coords)


def test_identity_element():
    q = GroupPoint(0.3, -1.2, 0.7)
    assert mul(IDENTITY, q) == q
    assert mul(q, IDENTITY) == q


def test_known_product():
    a = GroupPoint(1.0, 2.0, 0.0)
    b = GroupPoint(3.0, -1.0, 0.5)
    c = mul(a, b)
    assert c.x == 4.0 and c.y == 1.0
    # z = 0 + 0.5 + (1*(-1) - 3*2)/2 = 0.5 - 3.5
    assert c.z == pytest.approx(-3.0, abs=0.0)


@given(points, points, points)
def test_associativity(a, b, c):
    lhs = mul(mul(a, b), c)
    rhs = mul(a, mul(b, c))
    assert sup_distance(lhs, rhs) <= 1e-9 * (1.0 + sup_distance(IDENTITY, lhs))


@given(points)
def test_inverse(a):
    # group_difference(a, IDENTITY) = a^{-1} * e is the inverse of a
    a_inv = group_difference(a, IDENTITY)
    assert sup_distance(mul(a, a_inv), IDENTITY) <= 1e-12
    assert sup_distance(mul(a_inv, a), IDENTITY) <= 1e-12


@given(points, points)
def test_group_difference_undoes_translation(base, q):
    moved = mul(base, q)
    back = group_difference(base, moved)
    assert sup_distance(back, q) <= 1e-9 * (1.0 + sup_distance(IDENTITY, q))


def test_noncommutativity_shows_in_z():
    a = GroupPoint(1.0, 0.0, 0.0)
    b = GroupPoint(0.0, 1.0, 0.0)
    assert mul(a, b).z == 0.5
    assert mul(b, a).z == -0.5


def test_frame_components_at_identity_are_coordinates():
    cov = CoordCovector(0.4, -0.7, 1.1)
    f = coord_to_frame(IDENTITY, cov)
    assert (f.hX, f.hY, f.hZ) == (0.4, -0.7, 1.1)


def test_frame_components_absorb_base_shear():
    # at base (x, y, z) the frame pairing subtracts the z-shear of dw
    base = GroupPoint(2.0, 3.0, -1.0)
    cov = CoordCovector(1.0, 1.0, 1.0)
    f = coord_to_frame(base, cov)
    assert f.hX == pytest.approx(1.0 - 3.0 / 2.0)
    assert f.hY == pytest.approx(1.0 + 2.0 / 2.0)
    assert f.hZ == 1.0


def test_energy_signature():
    assert energy(FrameCovector(-2.0, 1.0, 5.0)) == pytest.approx(1.5)
    assert energy(FrameCovector(0.0, 1.0, 0.0)) == pytest.approx(-0.5)
    assert energy(FrameCovector(1.0, 1.0, 3.0)) == 0.0


def test_future_timelike_cone():
    assert is_future_timelike(FrameCovector(-1.0, 0.5, 2.0))
    assert not is_future_timelike(FrameCovector(1.0, 0.5, 0.0))
    assert not is_future_timelike(FrameCovector(-1.0, 1.0, 0.0))
    assert not is_future_timelike(FrameCovector(-1.0, -1.5, 0.0))


def test_sup_distance_is_a_metric_surrogate():
    a = GroupPoint(0.0, 0.0, 0.0)
    b = GroupPoint(1.0, -2.0, 0.25)
    assert sup_distance(a, b) == pytest.approx(2.0)
    assert sup_distance(a, a) == 0.0


def test_integer_inputs_are_accepted():
    c = mul(GroupPoint(1, 0, 0), GroupPoint(0, 1, 0))
    assert isinstance(c.z, float) or c.z == 0.5
    assert float(c.z) == 0.5


def test_mass_production_with_numpy_scalars():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = GroupPoint(*rng.normal(size=3))
        b = GroupPoint(*rng.normal(size=3))
        d = group_difference(a, b)
        assert sup_distance(mul(a, d), b) <= 1e-12
