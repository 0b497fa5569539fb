"""Causal classification, the time separation tau, and its scalar kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sublorentz import causality
from sublorentz.causality import (
    CausalRelation,
    PlanarPoint,
    alpha,
    alpha_prime,
    beta,
    causal_diamond_bbox,
    classify,
    minkowski_tau,
    tau,
    tau_partition_length,
)
from sublorentz.errors import NotCausalChain, NotChronological, OutOfDomain
from sublorentz.heisenberg import IDENTITY, GroupPoint, mul


# --- classification -------------------------------------------------------

def test_classify_chronological():
    assert classify(IDENTITY, GroupPoint(2.0, 1.0, 0.0)) is CausalRelation.CHRONOLOGICAL
    assert classify(IDENTITY, GroupPoint(1.0, 0.0, 0.2)) is CausalRelation.CHRONOLOGICAL


def test_classify_null():
    # x^2 - y^2 = 4|z| exactly, x > 0
    assert classify(IDENTITY, GroupPoint(2.0, 0.0, 1.0)) is CausalRelation.CAUSAL_NULL
    assert classify(IDENTITY, GroupPoint(1.0, 1.0, 0.0)) is CausalRelation.CAUSAL_NULL
    assert classify(IDENTITY, IDENTITY) is CausalRelation.CAUSAL_NULL


def test_classify_unrelated():
    assert classify(IDENTITY, GroupPoint(-2.0, 1.0, 0.0)) is CausalRelation.UNRELATED
    assert classify(IDENTITY, GroupPoint(1.0, 2.0, 0.0)) is CausalRelation.UNRELATED
    assert classify(IDENTITY, GroupPoint(0.5, 0.0, 1.0)) is CausalRelation.UNRELATED


def test_classify_is_left_invariant():
    base = GroupPoint(0.7, -0.4, 0.9)
    q = GroupPoint(2.0, 1.0, 0.3)
    assert classify(base, mul(base, q)) is classify(IDENTITY, q)


def test_relation_labels():
    assert CausalRelation.CHRONOLOGICAL.value == "Chronological"
    assert CausalRelation.CAUSAL_NULL.value == "CausalNull"
    assert CausalRelation.UNRELATED.value == "Unrelated"


# --- alpha / beta kernel ---------------------------------------------------

def test_alpha_frozen_value():
    # (sinh 1 - 1) / (8 sinh^2 0.5)
    assert alpha(0.5) == pytest.approx(0.08065155633076705, abs=1e-16)


def test_alpha_series_matches_closed_form():
    for t in (1e-3, 2e-3, 5e-3):
        closed = (math.sinh(2 * t) - 2 * t) / (8 * math.sinh(t) ** 2)
        assert alpha(t) == pytest.approx(closed, abs=1e-15)


def test_alpha_is_odd_with_limit_quarter():
    assert alpha(0.0) == 0.0
    assert alpha(-1.3) == -alpha(1.3)
    assert 0.2499 < alpha(10.0) < 0.25


def test_alpha_prime_matches_finite_difference():
    h = 1e-6
    for t in (0.0, 0.3, 2.0, -1.1):
        fd = (alpha(t + h) - alpha(t - h)) / (2 * h)
        assert alpha_prime(t) == pytest.approx(fd, abs=1e-9)


@given(st.floats(-5.0, 5.0))
def test_beta_inverts_alpha(b):
    # alpha flattens exponentially toward 1/4, so the inverse loses a digit
    # of absolute accuracy per unit of |b|; tau only ever queries the
    # well-conditioned core where 1e-9 agreement is available
    assert beta(alpha(b)) == pytest.approx(b, abs=1e-9 * (1 + abs(b)))


def test_beta_still_inverts_far_out_at_reduced_accuracy():
    assert beta(alpha(8.0)) == pytest.approx(8.0, abs=1e-6)


def test_beta_domain_boundary():
    with pytest.raises(OutOfDomain):
        beta(0.25)
    with pytest.raises(OutOfDomain):
        beta(-0.3)
    assert beta(0.2499) > 0.0


def reference_beta(zeta):
    """The safeguarded Newton loop that evaluated alpha twice at 8|zeta|:
    once in the bracket test, once more as the first Newton point."""
    if zeta == 0.0:
        return 0.0
    sign = 1.0 if zeta > 0.0 else -1.0
    target = abs(zeta)
    lo = 0.0
    hi = max(8.0 * target, 1e-8)
    while causality.alpha(hi) < target:
        hi *= 2.0
        if hi > causality._BETA_HI_CAP:
            break
    b = min(8.0 * target, hi)
    for _ in range(causality._BETA_MAX_ITER):
        a, df = causality._alpha_pair(b)
        f = a - target
        if abs(f) <= causality._BETA_TOL:
            break
        if f > 0.0:
            hi = b
        else:
            lo = b
        nb = b - f / df if df > 0.0 else lo
        b = nb if lo < nb < hi else 0.5 * (lo + hi)
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return sign * b


def beta_families():
    """Seeded zeta families for each branch of the root solve: uniform, under
    the 1e-8 floor of the bracket, where the bracket grows (alpha(2) < |zeta|),
    within 1e-16 of +-1/4 where it grows to just below the cap of 64, and both
    zeros (compared as bits, so the sign of -0.0 counts)."""
    rng = np.random.default_rng(15)
    quarter = np.nextafter(0.25, 0.0) - 2.0**-55 * np.arange(4)  # the doubles within 1e-16 below 1/4
    sign = rng.choice([-1.0, 1.0], 2000)
    return {
        "uniform": rng.uniform(-0.25, 0.25, 20000),
        "floor": np.concatenate([rng.uniform(-1.25e-9, 1.25e-9, 2000), sign * 10.0 ** rng.uniform(-300, -9, 2000)]),
        "grow": sign * rng.uniform(0.2214, 0.25, 2000),
        "cap": np.concatenate([quarter, -quarter]),
        "zeros": np.array([0.0, -0.0]),
    }


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("family", list(beta_families()))
def test_beta_is_bit_identical_to_the_reference_loop(family):
    zeta = beta_families()[family]
    got = [beta(float(z)) for z in zeta]
    want = [reference_beta(float(z)) for z in zeta]
    np.testing.assert_array_equal(_bits(got), _bits(want))


def test_beta_evaluates_alpha_once_per_point(monkeypatch):
    seen = []
    alpha_pair = causality._alpha_pair

    def record(t):
        seen.append(t)
        return alpha_pair(t)

    monkeypatch.setattr(causality, "_alpha_pair", record)
    for zeta in np.concatenate(list(beta_families().values()))[::7]:
        seen.clear()
        beta(float(zeta))
        assert len(seen) == len(set(seen)), zeta
    seen.clear()
    beta(0.1)
    once = len(seen)
    seen.clear()
    reference_beta(0.1)
    assert once == len(seen) - 1


# --- tau --------------------------------------------------------------------

def test_tau_frozen_example():
    assert tau(IDENTITY, GroupPoint(2.0, 1.0, 0.0)) == pytest.approx(
        math.sqrt(3.0), abs=1e-12
    )


def test_tau_planar_case_is_minkowski():
    q = GroupPoint(3.0, -1.0, 0.0)
    assert tau(IDENTITY, q) == pytest.approx(math.sqrt(8.0), abs=1e-12)


def test_tau_zero_on_null_boundary():
    assert tau(IDENTITY, GroupPoint(2.0, 0.0, 1.0)) == 0.0
    assert tau(IDENTITY, GroupPoint(1.0, 1.0, 0.0)) == 0.0


def test_tau_zero_outside_chronological_future():
    # time separation vanishes when the target is not reachable
    assert tau(IDENTITY, GroupPoint(-1.0, 0.0, 0.0)) == 0.0
    assert tau(IDENTITY, GroupPoint(1.0, 2.0, 0.0)) == 0.0


def test_tau_left_invariance():
    base = GroupPoint(1.5, 0.2, -0.8)
    q = GroupPoint(2.0, 0.5, 0.4)
    assert tau(base, mul(base, q)) == pytest.approx(tau(IDENTITY, q), rel=1e-13)


def test_tau_dilation_homogeneity():
    # the anisotropic dilation (x, y, z) -> (r x, r y, r^2 z) scales tau by r
    q = GroupPoint(2.0, 0.3, 0.6)
    t0 = tau(IDENTITY, q)
    for r in (0.5, 2.0, 7.0):
        qr = GroupPoint(r * q.x, r * q.y, r * r * q.z)
        assert tau(IDENTITY, qr) == pytest.approx(r * t0, rel=1e-12)


def test_tau_symmetric_in_z_sign_and_y_sign():
    q = GroupPoint(2.0, 0.4, 0.5)
    t0 = tau(IDENTITY, q)
    assert tau(IDENTITY, GroupPoint(q.x, -q.y, q.z)) == pytest.approx(t0, rel=1e-13)
    assert tau(IDENTITY, GroupPoint(q.x, q.y, -q.z)) == pytest.approx(t0, rel=1e-13)


def test_minkowski_tau():
    assert minkowski_tau(PlanarPoint(0.0, 0.0), PlanarPoint(2.0, 1.0)) == pytest.approx(
        math.sqrt(3.0)
    )
    assert minkowski_tau(PlanarPoint(1.0, 1.0), PlanarPoint(2.0, 2.0)) == 0.0
    assert minkowski_tau(PlanarPoint(0.0, 0.0), PlanarPoint(1.0, 2.0)) == 0.0


# --- diamond bounding box ---------------------------------------------------

def test_diamond_bbox_requires_chronological_order():
    with pytest.raises(NotChronological):
        causal_diamond_bbox(GroupPoint(2.0, 0.0, 0.0), IDENTITY)


def test_diamond_bbox_contains_diamond_samples():
    q0 = IDENTITY
    q1 = GroupPoint(2.0, 0.0, 0.0)
    (xlo, xhi), (ylo, yhi), (zlo, zhi) = causal_diamond_bbox(q0, q1)
    assert xlo == 0.0 and xhi == 2.0
    assert ylo == -yhi
    assert zlo == -zhi
    rng = np.random.default_rng(3)
    kept = 0
    for _ in range(4000):
        d = GroupPoint(
            rng.uniform(xlo, xhi), rng.uniform(ylo, yhi), rng.uniform(zlo, zhi)
        )
        if (
            classify(q0, d) is CausalRelation.CHRONOLOGICAL
            and classify(d, q1) is CausalRelation.CHRONOLOGICAL
        ):
            kept += 1
            assert xlo <= d.x <= xhi and ylo <= d.y <= yhi and zlo <= d.z <= zhi
    # the diamond is a thin sliver of the box; the sampler must still hit it
    assert kept > 20


# --- partition sums ----------------------------------------------------------

def _geodesic_chain(k: int):
    from sublorentz.geodesics import GeodesicArc
    from sublorentz.heisenberg import FrameCovector

    arc = GeodesicArc(IDENTITY, FrameCovector(-1.0, 0.3, 0.8), 1.5)
    return [arc.point(1.5 * i / k) for i in range(k + 1)]


def test_partition_sum_constant_on_geodesics():
    sums = [tau_partition_length(_geodesic_chain(k)) for k in (1, 2, 8, 64)]
    for s in sums[1:]:
        assert s == pytest.approx(sums[0], abs=1e-12)


def test_partition_sum_decreases_on_broken_chain():
    # two geodesic legs with a corner at global parameter 1; partitions with
    # an odd cell count never sample the corner, so the chord across it
    # strictly exceeds the broken length and refinement shrinks the excess
    from sublorentz.geodesics import GeodesicArc
    from sublorentz.heisenberg import FrameCovector

    leg1 = GeodesicArc(IDENTITY, FrameCovector(-1.0, 0.2, 0.5), 1.0)
    mid = leg1.point(1.0)
    leg2 = GeodesicArc(mid, FrameCovector(-1.0, -0.4, -0.3), 1.0)

    def curve(t):
        return leg1.point(t) if t <= 1.0 else leg2.point(t - 1.0)

    sums = [
        tau_partition_length([curve(2.0 * i / k) for i in range(k + 1)])
        for k in (3, 9, 27, 81)
    ]
    leg_total = tau(IDENTITY, mid) + tau(mid, leg2.point(1.0))
    assert sums[0] > sums[1] > sums[2] > sums[3] >= leg_total - 1e-12
    assert sums[3] - leg_total < 0.25 * (sums[0] - leg_total)


def test_partition_rejects_non_causal_chain():
    pts = [IDENTITY, GroupPoint(1.0, 0.0, 0.0), GroupPoint(0.5, 0.0, 0.0)]
    with pytest.raises(NotCausalChain):
        tau_partition_length(pts)
