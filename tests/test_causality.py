"""Causal classification, the time separation tau, and its scalar kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sublorentz import causality
from sublorentz.causality import (
    CausalRelation,
    alpha,
    beta,
    beta_array,
    causal_diamond_bbox,
    classify,
    minkowski_tau,
    tau,
    tau_partition_length,
)
from sublorentz.errors import NotCausalChain, NotChronological, OutOfDomain
from sublorentz.geodesics import log_map
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
    # the series against the closed form where sinh 2t - 2t does not cancel
    # much, and against 1/4 - g across their switch at t = 1.6
    for t in (0.5, 1.0, 1.5, 1.6):
        closed = (math.sinh(2 * t) - 2 * t) / (8 * math.sinh(t) ** 2)
        assert alpha(t) == pytest.approx(closed, rel=2e-15)
    assert alpha(math.nextafter(1.6, 2.0)) == pytest.approx(alpha(1.6), rel=1e-15)


def test_alpha_is_odd_with_limit_quarter():
    assert alpha(0.0) == 0.0
    assert alpha(-1.3) == -alpha(1.3)
    assert 0.2499 < alpha(10.0) < 0.25
    # the limits themselves: log 2g is inf - inf there, so alpha returns them
    assert alpha(1e10) == alpha(math.inf) == 0.25
    assert alpha(-1e10) == alpha(-math.inf) == -0.25
    assert math.isnan(alpha(math.nan))


def test_alpha_prime_matches_finite_difference():
    # the slopes that beta's Newton steps take: alpha' below t = 1.6, and
    # (log 2g)' with g = 1/4 - alpha near the null boundary
    h = 1e-6
    for t in (0.0, 0.3, 1.0, 1.6):
        fd = (alpha(t + h) - alpha(t - h)) / (2 * h)
        assert causality._alpha_pair(t, math)[1] == pytest.approx(fd, abs=1e-9)
    for t in (0.5, 2.0, 20.0):
        fd = (causality._log_2g_pair(t + h, math)[0] - causality._log_2g_pair(t - h, math)[0]) / (2 * h)
        assert causality._log_2g_pair(t, math)[1] == pytest.approx(fd, abs=1e-8)


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


def beta_families():
    """Seeded zeta families: uniform; tiny, below 1.25e-9 and down to 1e-300;
    near the null boundary, 0.2214 <= |zeta| < 1/4 (where alpha(2) < |zeta|);
    the doubles within 1e-16 of +-1/4; both zeros; and one log-uniform family
    for each half of the kernel, |zeta| from 1e-300 to 0.2 and
    eta = 1/4 - |zeta| from 2^-55 to 0.05."""
    rng = np.random.default_rng(15)
    quarter = np.nextafter(0.25, 0.0) - 2.0**-55 * np.arange(4)  # the doubles within 1e-16 below 1/4
    sign = rng.choice([-1.0, 1.0], 2000)
    return {
        "uniform": rng.uniform(-0.25, 0.25, 20000),
        "floor": np.concatenate([rng.uniform(-1.25e-9, 1.25e-9, 2000), sign * 10.0 ** rng.uniform(-300, -9, 2000)]),
        "grow": sign * rng.uniform(0.2214, 0.25, 2000),
        "cap": np.concatenate([quarter, -quarter]),
        "zeros": np.array([0.0, -0.0]),
        "twist": sign * 10.0 ** rng.uniform(-300, math.log10(0.2), 2000),
        "null": sign * (0.25 - 2.0 ** rng.uniform(-55, math.log2(0.05), 2000)),
    }


def mp_alpha_root(zeta, b):
    """The root of alpha(b) = zeta > 0, an mpf, to 60 digits: Newton's method
    in mpmath on the closed form of alpha, from b.  alpha is strictly
    increasing, so the root it converges to is the only one."""
    mp = pytest.importorskip("mpmath")
    b = mp.mpf(b)
    # 80 digits leave 60 near the null boundary, where alpha' ~ 1e-16, and
    # sinh 2b - 2b cancels 2 log10(1/b) more at small b
    with mp.workdps(80 + max(0, int(-2 * mp.log10(b)))):
        for _ in range(20):
            sh = mp.sinh(b)
            a = (mp.sinh(2 * b) - 2 * b) / (8 * sh * sh)
            step = (a - zeta) / (mp.mpf(0.5) - 2 * a * mp.cosh(b) / sh)
            b -= step
            if abs(step) <= b * mp.mpf(10) ** -50:
                return +b
    raise AssertionError(f"no mpmath root for zeta = {zeta}")


BETA_ULPS = 9  # beta against 60-digit roots; 9 ulp of b is at most 2e-15 relative


@pytest.mark.parametrize("family", list(beta_families()))
def test_beta_matches_mpmath_roots(family):
    """beta and beta_array on about 200 entries of each family."""
    mp = pytest.importorskip("mpmath")
    zeta = beta_families()[family]
    zeta = zeta[:: max(1, zeta.size // 200)]
    scalar = [beta(float(z)) for z in zeta]
    array = beta_array(zeta)
    for z, b, c in zip(zeta, scalar, array):
        if z == 0.0:
            assert b == 0.0 and c == 0.0
            continue
        root = mp_alpha_root(abs(mp.mpf(z)), abs(b))
        for got in (b, c):
            assert math.copysign(1.0, got) == math.copysign(1.0, z)
            assert abs(abs(mp.mpf(got)) - root) <= BETA_ULPS * math.ulp(got), (z, got)


def test_beta_is_exact_at_tiny_twists():
    # the root is 6 zeta (1 + 4.8 zeta^2 + ...); an absolute stop rule on
    # |alpha(b) - zeta| once returned 8 zeta here, and log_map's hZ with it
    assert abs(beta(1e-14) - 6e-14) <= 2 * math.ulp(6e-14)
    tiny = log_map(IDENTITY, GroupPoint(2.0, 1.0, 3e-14)).hZ
    assert tiny == pytest.approx(1e-6 * log_map(IDENTITY, GroupPoint(2.0, 1.0, 3e-8)).hZ, rel=1e-13)


@pytest.mark.parametrize("t", [1.001e-3, 3e-3, 1e-2, 3e-2, 0.1])
def test_alpha_matches_mpmath(t):
    # where the closed form's sinh 2t - 2t cancels
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        sh = mp.sinh(t)
        want = (mp.sinh(2 * mp.mpf(t)) - 2 * mp.mpf(t)) / (8 * sh * sh)
        assert abs(mp.mpf(alpha(t)) - want) <= 4 * math.ulp(alpha(t))


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


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
def test_tau_near_the_null_boundary_matches_mpmath(eps):
    """(2, 1, z) with |z| = (3/4)(1 - eps), eps from the null boundary: tau
    holds 1e-15 / eps relative against mpmath on the same float z.  Rounding
    zeta = z / 3 alone costs about 3e-17 / eps."""
    mp = pytest.importorskip("mpmath")
    for z in (0.75 * (1.0 - eps), -0.75 * (1.0 - eps)):
        got = tau(IDENTITY, GroupPoint(2.0, 1.0, z))
        with mp.workdps(60):
            b = mp_alpha_root(abs(mp.mpf(z)) / 3, abs(beta(z / 3.0)))
            want = mp.sqrt(3) * b / mp.sinh(b)
            assert abs(got - want) <= 1e-15 / eps * want, (z, got)


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
    # any points with .x and .y; the z of a GroupPoint is not read
    assert minkowski_tau(IDENTITY, GroupPoint(2.0, 1.0, 5.0)) == pytest.approx(math.sqrt(3.0))
    assert minkowski_tau(GroupPoint(1.0, 1.0, -3.0), GroupPoint(2.0, 2.0, 0.0)) == 0.0
    assert minkowski_tau(IDENTITY, GroupPoint(1.0, 2.0, 0.0)) == 0.0


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


def _sum_of_tau(points):
    """tau_partition_length by its definition: classify, then tau, per pair."""
    total = 0.0
    for k in range(len(points) - 1):
        if classify(points[k], points[k + 1]) is CausalRelation.UNRELATED:
            return k
        total += tau(points[k], points[k + 1])
    return total


@pytest.mark.parametrize("seed", range(4))
def test_partition_length_is_the_sum_of_tau_bit_for_bit(seed):
    # seeded geodesic samples, and chains that mix chronological, null and
    # unrelated steps: the error must name the first unrelated pair
    from sublorentz.geodesics import GeodesicArc
    from sublorentz.heisenberg import FrameCovector

    rng = np.random.default_rng(seed)
    chains = []
    for _ in range(20):
        u, v, t = rng.uniform(-0.9, 0.9), rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0)
        arc = GeodesicArc(GroupPoint(*rng.uniform(-2.0, 2.0, 3).tolist()), FrameCovector(-1.0, u, v), t)
        k = int(rng.integers(1, 40))
        chains.append([arc.point(t * i / k) for i in range(k + 1)])
    for _ in range(40):
        pts = [GroupPoint(*rng.uniform(-1.0, 1.0, 3).tolist())]
        for _ in range(int(rng.integers(1, 12))):
            p, kind = pts[-1], rng.integers(0, 6)
            if kind == 0:  # null: x = |y|, z = 0
                y = rng.uniform(-1.0, 1.0)
                step = GroupPoint(abs(y), y, 0.0)
            elif kind == 1:  # unrelated: x < 0
                step = GroupPoint(rng.uniform(-1.0, -0.1), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            else:  # chronological: F <= -0.03 x^2
                x = rng.uniform(0.1, 2.0)
                step = GroupPoint(x, rng.uniform(-0.9, 0.9) * x, rng.uniform(-0.04, 0.04) * x * x)
            pts.append(mul(p, step))
        chains.append(pts)
    broken = 0
    for pts in chains:
        want = _sum_of_tau(pts)
        if isinstance(want, int):
            broken += 1
            with pytest.raises(NotCausalChain, match=f"points {want} and {want + 1} are"):
                tau_partition_length(pts)
        else:
            assert tau_partition_length(pts).hex() == want.hex()
    assert 0 < broken < len(chains)
