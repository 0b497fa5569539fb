"""The array causality kernels against the scalar ones, and the dilation
that the relative slack of the cone test keeps chronological.

The Brenier maps take a pair's branch to be in their domain where its gain
in the cost matrix is > 0, so these tests also hold that tau, and the gain,
are positive exactly on the chronological pairs."""

import hashlib
import math

import numpy as np
import pytest

from sublorentz.causality import (
    CausalRelation,
    beta,
    beta_array,
    classify,
    classify_array,
    cone_state,
    tau,
    tau_array,
)
from sublorentz.errors import OutOfDomain
from sublorentz.heisenberg import IDENTITY, GroupPoint, group_difference
from sublorentz.transport import CostParams, DiscreteMeasure, cost_matrix

from test_causality import beta_families

NULL_BAND = 1e-4  # relative distance |F| / S below which tau is ill-conditioned


def _null_distance(d):
    s = d.x * d.x + d.y * d.y + 4.0 * abs(d.z)
    return abs(-d.x * d.x + d.y * d.y + 4.0 * abs(d.z)) / s if s > 0.0 else 0.0


def _family(rng, n, scale, shift):
    pts = np.column_stack(
        [
            scale * rng.uniform(shift - 1.0, shift + 1.0, n),
            scale * rng.uniform(-1.0, 1.0, n),
            scale * scale * rng.uniform(-0.5, 0.5, n),
        ]
    )
    return pts


def _families():
    """Atom families at scales 1e-3..1e3 with n != m, 1 x k and k x 1 shapes,
    duplicate atoms and plenty of unrelated pairs, then at 1e-100 and 1e100."""
    rng = np.random.default_rng(20)
    out = []
    for scale in (1e-3, 1e-2, 1.0, 37.0, 1e3):
        out.append((_family(rng, 9, scale, 0.0), _family(rng, 14, scale, 1.5)))
    out.append((_family(rng, 1, 1.0, 0.0), _family(rng, 12, 1.0, 1.5)))
    out.append((_family(rng, 12, 1.0, 0.0), _family(rng, 1, 1.0, 1.5)))
    mu = _family(rng, 8, 1.0, 0.0)
    out.append((mu, np.concatenate([mu[::2], _family(rng, 5, 1.0, 1.5)])))
    for scale in (1e-100, 1e100):
        out.append((_family(rng, 9, scale, 0.0), _family(rng, 14, scale, 1.5)))
    return out


def _edge_families():
    """No chronological pair, then chronological pairs from the origin with
    every zeta in beta's twist half (|zeta| < 0.2), then every zeta in its
    null half."""
    rng = np.random.default_rng(21)

    def ahead(lo, hi, n):
        x, y = rng.uniform(2.0, 3.0, n), rng.uniform(-0.5, 0.5, n)
        zeta = rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)
        return np.column_stack([x, y, zeta * (x - y) * (x + y)])

    origin = np.zeros((1, 3))
    return [
        (_family(rng, 7, 1.0, 0.0), _family(rng, 6, 1.0, -3.0)),
        (origin, ahead(0.0, 0.199, 40)),
        (origin, ahead(0.205, 0.245, 40)),
    ]


# the first 16 hex digits of the sha256 of tau_array's tau and causal bytes
# on _families() and _edge_families(); any change to the kernel's
# arithmetic shows here
TAU_ARRAY_SHA256 = [
    "18aa91607b01ce98", "695304318b618eb2", "000ed2be1351e04d", "86bfc25e9fcc3b03",
    "1f1535338b80b0f8", "d327c158e8cd2575", "35db8d10afe8e663", "99e444b0b5cc85cc",
    "45dbead2e41853af", "5f198f99f029ea90", "8d8c294831ae2b1d", "05524c00463b8587",
    "a5f99a4f3994ae6a",
]


def test_tau_array_bytes_are_pinned():
    got = []
    with np.errstate(all="raise"):
        for mu, nu in _families() + _edge_families():
            t, causal = tau_array(mu[:, None], nu[None, :])
            got.append(hashlib.sha256(t.tobytes() + causal.tobytes()).hexdigest()[:16])
    assert got == TAU_ARRAY_SHA256


def _scalar_pairs():
    """The pairs of _families() and _edge_families(), then planar pairs with
    b = 0 (a shared z, and a on the z axis or both points at y = 0, so the
    difference has z = 0 exactly) and pairs from the origin within relative
    distances 1e-14 .. 1e-4 of either side of the null boundary."""
    rng = np.random.default_rng(22)
    pairs = [(a, b) for mu, nu in _families() + _edge_families() for a in mu for b in nu]
    for scale in (1e-3, 1.0, 1e3):
        for axes in ([0, 1], [1]):
            a, b = _family(rng, 6, scale, 0.0), _family(rng, 6, scale, 1.5)
            a[:, axes] = 0.0
            b[:, axes[1:]] = 0.0
            b[:, 2] = a[:, 2]
            pairs += list(zip(a, b))
    origin = np.zeros(3)
    for x, y in rng.uniform([1.0, -0.9], [2.0, 0.9], (6, 2)):
        m = (x - y) * (x + y)
        for eps in (1e-14, 1e-12, 1e-10, 1e-7, 1e-4):
            for sign in (-1.0, 1.0):
                pairs.append((origin, np.array([x, y, sign * 0.25 * m * (1.0 + sign * eps)])))
    return [(GroupPoint(*map(float, a)), GroupPoint(*map(float, b))) for a, b in pairs]


# the first 16 hex digits of the sha256 of each scalar kernel's outputs on
# _scalar_pairs(), and of group_difference on the same pairs as floats and
# as one pair of arrays; any change to the kernels' arithmetic shows here
SCALAR_SHA256 = {
    "classify": "bfdd90243612e9d4",
    "tau": "7bb2057cea4ba8e7",
    "log_map": "59728df6fab962ed",
    "group_difference": "0ac5fdb504a7083c",
    "group_difference_array": "d6575b91d86bf323",
}


def test_scalar_kernel_bytes_are_pinned():
    from sublorentz.errors import NotChronological
    from sublorentz.geodesics import log_map

    def digest(chunks):
        return hashlib.sha256(b"".join(chunks)).hexdigest()[:16]

    def floats(values):
        return np.array(values, dtype=float).tobytes()

    def logged(a, b):
        try:
            return floats(log_map(a, b))
        except NotChronological:
            return b"-"

    pairs = _scalar_pairs()
    firsts, seconds = (GroupPoint(*np.array(side).T) for side in zip(*pairs))
    got = {
        "classify": digest(classify(a, b).value.encode() for a, b in pairs),
        "tau": digest(floats(tau(a, b)) for a, b in pairs),
        "log_map": digest(logged(a, b) for a, b in pairs),
        "group_difference": digest(floats(group_difference(a, b)) for a, b in pairs),
        "group_difference_array": digest(c.tobytes() for c in group_difference(firsts, seconds)),
    }
    assert got == SCALAR_SHA256


@pytest.mark.parametrize("k", range(len(_families())))
def test_array_kernels_match_scalar_kernels(k):
    mu, nu = _families()[k]
    chron, causal = classify_array(mu[:, None], nu[None, :])
    t, feasible = tau_array(mu[:, None], nu[None, :])
    assert chron.shape == causal.shape == t.shape == (len(mu), len(nu))
    np.testing.assert_array_equal(causal, feasible)
    np.testing.assert_array_equal(t > 0.0, chron)
    kinds = set()
    for i, a in enumerate(map(GroupPoint._make, mu)):
        for j, b in enumerate(map(GroupPoint._make, nu)):
            rel = classify(a, b)
            kinds.add(rel)
            assert chron[i, j] == (rel is CausalRelation.CHRONOLOGICAL)
            assert causal[i, j] == (rel is not CausalRelation.UNRELATED)
            want = tau(a, b)
            assert (want > 0.0) == (rel is CausalRelation.CHRONOLOGICAL)
            if want == 0.0 or _null_distance(group_difference(a, b)) <= NULL_BAND:
                assert (t[i, j] == 0.0) == (want == 0.0)
            else:
                assert t[i, j] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert CausalRelation.UNRELATED in kinds


def test_cost_matrix_matches_scalar_gains():
    params = CostParams(0.5)
    for mu, nu in _families():
        cm = cost_matrix(
            DiscreteMeasure(tuple(map(GroupPoint._make, mu)), np.full(len(mu), 1.0 / len(mu))),
            DiscreteMeasure(tuple(map(GroupPoint._make, nu)), np.full(len(nu), 1.0 / len(nu))),
            params,
        )
        np.testing.assert_array_equal(cm.values > 0.0, classify_array(mu[:, None], nu[None, :])[0])
        for i, a in enumerate(map(GroupPoint._make, mu)):
            for j, b in enumerate(map(GroupPoint._make, nu)):
                rel = classify(a, b)
                assert cm.feasible[i, j] == (rel is not CausalRelation.UNRELATED)
                want = params.gain(tau(a, b))
                assert (want > 0.0) == (rel is CausalRelation.CHRONOLOGICAL)
                if _null_distance(group_difference(a, b)) > NULL_BAND:
                    assert cm.values[i, j] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_duplicate_atoms_are_null_at_zero_gain():
    pts = np.array([[0.3, -0.2, 0.1], [1.0, 0.5, -0.25]])
    t, feasible = tau_array(pts[:, None], pts[None, :])
    assert feasible[0, 0] and feasible[1, 1]
    assert t[0, 0] == 0.0 and t[1, 1] == 0.0
    assert classify(GroupPoint(*pts[0]), GroupPoint(*pts[0])) is CausalRelation.CAUSAL_NULL


def test_cone_state_takes_floats_and_arrays():
    chron, causal = cone_state(2.0, 1.0, 0.3)
    assert chron is True and causal is True
    chron, causal = cone_state(np.array([2.0, 2.0, -1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.3, 1.0, 0.0]))
    np.testing.assert_array_equal(chron, [True, False, False])
    np.testing.assert_array_equal(causal, [True, True, False])


def test_beta_array_matches_scalar_beta():
    zeta = np.array([0.0, 1e-300, -1e-12, 1e-4, -2e-4, 0.01, -0.1, 0.2, -0.24, 0.2499, 0.249999, -0.2499999])
    got = beta_array(zeta)
    for z, b in zip(zeta, got):
        # one kernel: the same bits up to |zeta| = 0.2, within a few ulp
        # beyond, where numpy's expm1 and log may differ from the math module's
        assert abs(b - beta(float(z))) <= (0.0 if abs(z) <= 0.2 else 8.0) * math.ulp(b)
        assert np.sign(b) == np.sign(z)
    assert beta_array(zeta.reshape(3, 4)).shape == (3, 4)


@pytest.mark.parametrize("size", [1, 7, 8, 9, 17, 50_000])
def test_beta_array_matches_beta_on_mixed_families(size):
    """Each family alone, then mixes in which only some entries take either
    half of the kernel or are zeros, so that numpy's SIMD body and tail both
    see every case."""
    rng = np.random.default_rng(size)
    families = beta_families()
    pool = np.unique(np.concatenate(list(families.values())))
    scalar = np.array([beta(float(z)) for z in pool])
    cases = [rng.choice(f, size) for f in families.values()]
    cases += [rng.choice(pool, size) for _ in range(4)]
    cases.append(np.where(rng.random(size) < 0.5, rng.choice(families["uniform"], size), rng.choice(pool, size)))
    for zeta in cases:
        got = beta_array(zeta)
        want = np.copysign(scalar[np.searchsorted(pool, zeta)], zeta)
        ulps = np.where(np.abs(zeta) <= 0.2, 0.0, 8.0)
        assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))
    assert beta_array(np.array([-0.0, 0.0])).view(np.uint64).tolist() == [1 << 63, 0]


def test_beta_array_domain():
    with pytest.raises(OutOfDomain):
        beta_array(np.array([0.1, 0.25]))
    assert beta_array(np.array([])).size == 0


def test_dilation_keeps_tiny_pairs_chronological():
    # an absolute slack of 1e-12 made this pair null, with tau 0, at lam = 1e-8
    a, b = IDENTITY, GroupPoint(2.0, 1.0, 0.3)
    t0 = tau(a, b)
    for lam in (1e-8, 1e-7, 1e-3, 1e3, 1e6):
        b_lam = GroupPoint(lam * b.x, lam * b.y, lam * lam * b.z)
        assert classify(a, b_lam) is CausalRelation.CHRONOLOGICAL
        assert tau(a, b_lam) == pytest.approx(lam * t0, rel=1e-12)
