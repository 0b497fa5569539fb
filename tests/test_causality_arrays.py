"""The array causality kernels against the scalar ones, and the dilation
that the relative slack of the cone test keeps chronological.

The Brenier maps take a pair's branch to be in their domain where its gain
in the cost matrix is > 0, so these tests also hold that tau, and the gain,
are positive exactly on the chronological pairs."""

import numpy as np
import pytest

from sublorentz import causality
from sublorentz.causality import (
    CausalRelation,
    alpha,
    alpha_prime,
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
        want = beta(float(z))
        # both stop once |alpha(b) - zeta| <= 1e-13, so they agree as far
        # as that residual pins b down
        assert abs(alpha(b) - z) <= 1.1e-13
        assert abs(b - want) <= 2.2e-13 / alpha_prime(want)
        assert np.sign(b) == np.sign(z)
    assert beta_array(zeta.reshape(3, 4)).shape == (3, 4)


def reference_beta_array(zeta):
    """The array root solve that evaluated alpha at the bracket's first trial
    end and again, over every entry, in the first Newton round."""
    zeta = np.asarray(zeta, float)
    out = np.zeros(zeta.size)
    at = np.flatnonzero(zeta)
    target = np.abs(zeta.ravel()[at])
    hi = np.maximum(8.0 * target, 1e-8)
    grow = np.arange(at.size)
    while grow.size:
        grow = grow[causality._alpha_terms(hi[grow])[0] < target[grow]]
        hi[grow] *= 2.0
        grow = grow[hi[grow] <= causality._BETA_HI_CAP]
    b = np.minimum(8.0 * target, hi)
    lo = np.zeros_like(b)
    for _ in range(causality._BETA_MAX_ITER):
        if not at.size:
            break
        a, da = causality._alpha_terms(b)
        f = a - target
        done = np.abs(f) <= causality._BETA_TOL
        over = f > 0.0
        hi = np.where(over, b, hi)
        lo = np.where(over, lo, b)
        newton = da > 0.0
        nb = np.where(newton, b - f / np.where(newton, da, 1.0), lo)
        step = np.where((lo < nb) & (nb < hi), nb, 0.5 * (lo + hi))
        b = np.where(done, b, step)
        done |= hi - lo <= 1e-16 * np.maximum(1.0, hi)
        if done.any():
            out[at[done]] = b[done]
            go = ~done
            at, target, b, lo, hi = at[go], target[go], b[go], lo[go], hi[go]
    out[at] = b
    return np.copysign(out.reshape(zeta.shape), zeta)


@pytest.mark.parametrize("size", [1, 7, 8, 9, 17, 50_000])
def test_beta_array_is_bit_identical_to_the_reference_loop(size):
    """Each family alone, then mixes in which only some entries grow their
    bracket, hit the 1e-8 floor or the cap, so that numpy's SIMD body and
    tail both see every branch."""
    rng = np.random.default_rng(size)
    families = beta_families()
    pool = np.concatenate(list(families.values()))
    cases = [rng.choice(f, size) for f in families.values()]
    cases += [rng.choice(pool, size) for _ in range(4)]
    cases.append(np.where(rng.random(size) < 0.5, rng.choice(families["uniform"], size), rng.choice(pool, size)))
    for zeta in cases:
        np.testing.assert_array_equal(beta_array(zeta).view(np.uint64), reference_beta_array(zeta).view(np.uint64))
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
