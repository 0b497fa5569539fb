"""Planar transport, horizontal lifts, and the right-translation test."""

import math

import numpy as np
import pytest

from sublorentz.causality import PlanarPoint, minkowski_tau, tau
from sublorentz.errors import NoCausalCoupling
from sublorentz.heisenberg import IDENTITY, GroupPoint, mul
from sublorentz.minkowski import (
    _seeded_verdict,
    planar_cost_matrix,
    project_measure,
    right_translation_verdict,
    seeded_verdict_instance,
    solve_minkowski,
)
from sublorentz.transport import (
    CostParams,
    DiscreteMeasure,
    solve_kantorovich,
)

P = CostParams(0.5)


def _collinear_instance(seed, n=5, slope=0.3):
    # atoms on a line through the origin in the z = 0 slice; group and
    # planar time separations then agree pair by pair
    rng = np.random.default_rng(seed)
    ts0 = np.sort(rng.uniform(0.0, 1.0, size=n))
    ts1 = np.sort(rng.uniform(3.0, 4.0, size=n))
    mu = DiscreteMeasure(
        tuple(GroupPoint(t, t * slope, 0.0) for t in ts0), np.full(n, 1.0 / n)
    )
    nu = DiscreteMeasure(
        tuple(GroupPoint(t, t * slope, 0.0) for t in ts1), np.full(n, 1.0 / n)
    )
    return mu, nu


def test_project_measure_drops_z():
    mu = DiscreteMeasure(
        (GroupPoint(1.0, 2.0, 3.0), GroupPoint(-1.0, 0.0, 0.5)),
        np.array([0.25, 0.75]),
    )
    pm = project_measure(mu)
    assert pm.atoms == (GroupPoint(1.0, 2.0, 0.0), GroupPoint(-1.0, 0.0, 0.0))
    assert np.allclose(pm.weights, mu.weights)


def test_planar_cost_matrix_cone():
    # z is ignored: the first pair has planar gain sqrt(3) although the
    # group points (0,0,0) and (2,1,1) are causally unrelated
    pm0 = DiscreteMeasure((GroupPoint(0.0, 0.0, 0.0),), np.array([1.0]))
    pm1 = DiscreteMeasure(
        (GroupPoint(2.0, 1.0, 1.0), GroupPoint(1.0, 2.0, 0.0)), np.array([0.5, 0.5])
    )
    cm = planar_cost_matrix(pm0, pm1, P)
    assert cm.feasible[0, 0] and not cm.feasible[0, 1]
    assert cm.values[0, 0] == pytest.approx(P.gain(math.sqrt(3.0)))


def test_solve_minkowski_monotone_assignment():
    # sorted sources to sorted targets on a causal line: the concave gain
    # makes the order-preserving assignment optimal
    mu, nu = _collinear_instance(seed=1)
    pm0, pm1 = project_measure(mu), project_measure(nu)
    plan, _ = solve_minkowski(pm0, pm1, P)
    assert plan.support() == [(i, i) for i in range(5)]


def test_lifted_value_matches_native_lp():
    for seed in range(8):
        mu, nu = _collinear_instance(seed=seed, n=4 + seed % 3)
        native, _ = solve_kantorovich(mu, nu, P)
        planar, _ = solve_minkowski(project_measure(mu), project_measure(nu), P)
        assert planar.value == pytest.approx(native.value, abs=1e-9)


def test_lift_preserves_time_separation():
    # the horizontal lift of the planar step (x, y) -> (x + dx, y + dy) over
    # (x, y, z) is the right translate by (dx, dy, 0)
    rng = np.random.default_rng(9)
    for _ in range(30):
        x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
        z = rng.uniform(-0.5, 0.5)
        dx = rng.uniform(0.3, 2.0)
        dy = rng.uniform(-1, 1) * dx * 0.9
        source = GroupPoint(x, y, z)
        image = mul(source, GroupPoint(dx, dy, 0.0))
        want = minkowski_tau(PlanarPoint(x, y), PlanarPoint(image.x, image.y))
        assert tau(source, image) == pytest.approx(want, abs=1e-12)


def test_right_translation_planar_is_optimal():
    rng = np.random.default_rng(2)
    atoms = tuple(GroupPoint(*rng.uniform(-0.5, 0.5, size=3)) for _ in range(5))
    mu = DiscreteMeasure(atoms, np.full(5, 0.2))
    verdict = right_translation_verdict(mu, GroupPoint(2.0, 0.5, 0.0), P)
    assert verdict.predicate and verdict.optimal and verdict.agrees
    assert verdict.gap <= 1e-8
    assert verdict.map_value == pytest.approx(
        P.gain(tau(IDENTITY, GroupPoint(2.0, 0.5, 0.0)))
    )


def test_right_translation_twisted_counterexample():
    # frozen cluster where the twisted translation loses to a rearrangement
    rng = np.random.default_rng(100)
    atoms = tuple(
        GroupPoint(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(-0.02, 0.02))
        for _ in range(6)
    )
    mu = DiscreteMeasure(atoms, np.full(6, 1.0 / 6.0))
    verdict = right_translation_verdict(mu, GroupPoint(1.5, 0.5, 0.3), P)
    assert not verdict.predicate
    assert not verdict.optimal
    assert verdict.agrees
    assert verdict.gap > 1e-4
    assert verdict.gap == pytest.approx(1.0997e-3, rel=1e-2)


def test_right_translation_rejects_spacelike_shift():
    mu = DiscreteMeasure((IDENTITY,), np.array([1.0]))
    with pytest.raises(NoCausalCoupling):
        right_translation_verdict(mu, GroupPoint(1.0, 0.5, 0.3), P)


def test_seeded_verdict_instances_are_deterministic():
    mu_a, q_a = seeded_verdict_instance(4)
    mu_b, q_b = seeded_verdict_instance(4)
    assert q_a == q_b
    assert all(x == y for x, y in zip(mu_a.atoms, mu_b.atoms))
    assert q_a.z == 0.0  # even seeds draw planar shifts


def test_seeded_verdict_agreement_sample():
    for seed in range(10):
        mu, q0 = seeded_verdict_instance(seed)
        verdict = right_translation_verdict(mu, q0, P)
        assert verdict.agrees
        if seed % 2 == 1:
            assert q0.z != 0.0
            assert verdict.gap > 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_seeded_verdict_is_the_verdict_of_its_instance(seed):
    # verify's right-translation suite reuses the verdict that accepted an
    # odd seed's instance in place of solving its LP again
    mu, q0, verdict = _seeded_verdict(seed)
    fresh_mu, fresh_q0 = seeded_verdict_instance(seed)
    assert q0 == fresh_q0 and mu.atoms == fresh_mu.atoms
    assert verdict == (right_translation_verdict(mu, q0, P) if seed % 2 else None)


@pytest.mark.parametrize("seed", range(6))
def test_verdicts_agree_under_dilations(seed):
    # delta_lam with lam = 4^j multiplies every gain, and so the gap, by
    # 2^j exactly; gap_tol is relative to the binade of the values, so a
    # twisted translation's small gap at j < 0 still reads as beaten
    mu0, q0 = seeded_verdict_instance(seed)
    for j in range(-40, 41, 10):
        lam = 4.0**j

        def dilate(q):
            return GroupPoint(lam * q.x, lam * q.y, lam * lam * q.z)

        mu = DiscreteMeasure(tuple(map(dilate, mu0.atoms)), mu0.weights)
        verdict = right_translation_verdict(mu, dilate(q0), P)
        assert verdict.agrees, (j, verdict)


def _planar_cost_loop(mu, nu, params):
    """The planar gains as one scalar minkowski_tau and gain call per pair."""
    values = np.zeros((len(mu), len(nu)))
    feasible = np.zeros((len(mu), len(nu)), dtype=bool)
    for i, a in enumerate(mu.atoms):
        for j, b in enumerate(nu.atoms):
            if b.x - a.x >= abs(b.y - a.y):
                feasible[i, j] = True
                values[i, j] = params.gain(minkowski_tau(a, b))
    return values, feasible


@pytest.mark.parametrize("seed", range(6))
def test_planar_cost_matrix_matches_the_pair_loop(seed):
    rng = np.random.default_rng(seed)
    params = CostParams((0.3, 0.5, 0.7)[seed % 3])

    def measure(n, shift):
        # quarter-integer grid points make many pairs null (dx == |dy|)
        # exactly; the uniform draws add generic ones
        xy = np.concatenate([rng.integers(-8, 9, (n, 2)) / 4.0, rng.uniform(-2.0, 2.0, (n, 2))])
        atoms = np.column_stack([xy[:, 0] + shift, xy[:, 1], rng.uniform(-1.0, 1.0, 2 * n)])
        return DiscreteMeasure(atoms, np.full(2 * n, 1.0 / (2 * n)))

    mu, nu = measure(20, 0.0), measure(15, 1.0)
    cm = planar_cost_matrix(mu, nu, params)
    values, feasible = _planar_cost_loop(mu, nu, params)
    assert np.array_equal(cm.feasible, feasible)
    assert cm.values.view(np.uint64).tolist() == values.view(np.uint64).tolist()
    null = feasible & (values == 0.0)
    assert null.any() and (feasible & ~null).any() and not feasible.all()
