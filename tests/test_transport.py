"""Discrete causal transport: LP solve, duals, monotonicity diagnostics."""

import hashlib
import itertools
import logging
import math
import re
import sys
import warnings

import numpy as np
import pytest

from sublorentz.causality import tau
from sublorentz.errors import InfeasibleDuals, NoCausalCoupling, WeightError
from sublorentz.heisenberg import IDENTITY, GroupPoint, mul
from sublorentz.measures_io import sample_chronological_pair
from sublorentz.minkowski import planar_cost_matrix
from sublorentz.simplex import gain_exponent, solve_max_transport
from sublorentz.transport import (
    SUPPORT_TOL,
    CostMatrix,
    CostParams,
    DiscreteMeasure,
    TransportPlan,
    brute_force_plan,
    check_cyclical_monotonicity,
    cost_matrix,
    duality_gap,
    lorentz_wasserstein,
    solve_cost_matrix,
    solve_kantorovich,
    strengthen_duals,
)

P = CostParams(0.5)


def _fixture():
    mu = DiscreteMeasure(
        (GroupPoint(0.0, 0.0, 0.0), GroupPoint(0.2, 0.0, 0.0)), np.array([0.5, 0.5])
    )
    nu = DiscreteMeasure(
        (GroupPoint(2.0, 0.0, 0.0), GroupPoint(3.0, 0.0, 0.0)), np.array([0.5, 0.5])
    )
    return mu, nu


def test_cost_params_validation():
    assert CostParams(0.5).gain(4.0) == pytest.approx(4.0)
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError):
            CostParams(bad)


def test_measure_validation():
    with pytest.raises(WeightError):
        DiscreteMeasure((GroupPoint(0, 0, 0),), np.array([0.5]))
    with pytest.raises(WeightError):
        DiscreteMeasure(
            (GroupPoint(0, 0, 0), GroupPoint(1, 0, 0)), np.array([1.5, -0.5])
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflowing sum must not warn
        with pytest.raises(WeightError, match="inf"):
            DiscreteMeasure([(0, 0, 0), (1, 0, 0)], [1e308, 1e308])
    # a scalar weight is a shape error, not an index error
    with pytest.raises(ValueError, match="matching length"):
        DiscreteMeasure([(0, 0, 0)], 1.0)


def test_measure_weights_are_a_frozen_copy():
    w = np.array([0.5, 0.5])
    m = DiscreteMeasure([(0, 0, 0), (1, 0, 0)], w)
    w[0] = 5.0  # the caller's array is not the measure's
    np.testing.assert_array_equal(m.weights, [0.5, 0.5])
    with pytest.raises(ValueError):
        m.weights[0] = 1.0


def test_measure_coordinates_are_one_frozen_array():
    atoms = [(0, 0, 0), (1.5, -0.25, 2.0), (np.float64(3.0), 1, -0.5)]
    m = DiscreteMeasure(atoms, [0.25, 0.25, 0.5])
    assert type(m.atoms) is tuple and all(type(a) is GroupPoint for a in m.atoms)
    assert m.atoms == tuple(GroupPoint(*a) for a in atoms)
    assert m._coords.dtype == np.float64 and m._coords.shape == (3, 3)
    np.testing.assert_array_equal(m._coords, np.array(m.atoms, dtype=float))
    with pytest.raises(ValueError):
        m._coords[0, 0] = 1.0


def test_measure_rejects_bad_atoms_as_before():
    # the first non-finite atom is named; a string is no number, though
    # numpy would parse "1.0"
    with pytest.raises(ValueError, match=r"non-finite atom GroupPoint\(x=1.0, y=inf"):
        DiscreteMeasure([(0, 0, 0), (1.0, math.inf, 0), (math.nan, 0, 0)], [0.5, 0.25, 0.25])
    with pytest.raises(TypeError, match="must be real number, not str"):
        DiscreteMeasure([(0, 0, 0), ("1.0", 0, 0)], [0.5, 0.5])


@pytest.mark.parametrize("build", [cost_matrix, planar_cost_matrix])
def test_cost_matrices_are_read_only(build):
    mu, nu = _fixture()
    cm = build(mu, nu, P)
    with pytest.raises(ValueError):
        cm.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        cm.feasible[0, 0] = False


def test_cost_matrix_feasibility_mask():
    mu, nu = _fixture()
    cm = cost_matrix(mu, nu, P)
    assert cm.feasible.all()
    assert cm.values[0, 0] == pytest.approx(2.0 * math.sqrt(2.0))
    # spacelike target kills the pair
    nu2 = DiscreteMeasure(
        (GroupPoint(2.0, 0.0, 0.0), GroupPoint(-1.0, 0.0, 0.0)), np.array([0.5, 0.5])
    )
    cm2 = cost_matrix(mu, nu2, P)
    assert cm2.feasible[0, 0] and not cm2.feasible[0, 1]


def test_fixture_value_frozen():
    mu, nu = _fixture()
    plan, duals = solve_kantorovich(mu, nu, P)
    assert plan.value == pytest.approx(3.087533615441246, abs=1e-12)
    # the diagonal assignment beats the swap under the concave gain
    assert plan.masses[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert plan.masses[1, 1] == pytest.approx(0.5, abs=1e-12)
    swap_value = 0.5 * (
        P.gain(tau(IDENTITY, GroupPoint(3, 0, 0)))
        + P.gain(tau(GroupPoint(0.2, 0, 0), GroupPoint(2, 0, 0)))
    )
    assert swap_value == pytest.approx(3.073691594068751, abs=1e-12)
    assert plan.value > swap_value


def test_fixture_ell_p():
    mu, nu = _fixture()
    assert lorentz_wasserstein(mu, nu, P) == pytest.approx(2.383215956619923, abs=1e-9)


def test_marginals_and_duality():
    mu, nu = _fixture()
    plan, duals = solve_kantorovich(mu, nu, P)
    assert np.allclose(plan.masses.sum(axis=1), mu.weights, atol=1e-12)
    assert np.allclose(plan.masses.sum(axis=0), nu.weights, atol=1e-12)
    cm = cost_matrix(mu, nu, P)
    assert abs(duality_gap(plan, duals, mu, nu, cm)) <= 1e-9


def test_duality_gap_rejects_infeasible_duals():
    from sublorentz.transport import DualPotentials

    mu, nu = _fixture()
    plan, duals = solve_kantorovich(mu, nu, P)
    cm = cost_matrix(mu, nu, P)
    bad = DualPotentials(duals.phi + 1.0, duals.psi)
    with pytest.raises(InfeasibleDuals):
        duality_gap(plan, bad, mu, nu, cm)


def test_no_causal_coupling():
    mu = DiscreteMeasure((GroupPoint(0, 0, 0),), np.array([1.0]))
    nu = DiscreteMeasure((GroupPoint(-1, 0, 0),), np.array([1.0]))
    with pytest.raises(NoCausalCoupling):
        solve_kantorovich(mu, nu, P)


def test_partial_feasibility_still_couples():
    # one source can only reach one target; the LP must route around it
    mu = DiscreteMeasure(
        (GroupPoint(0, 0, 0), GroupPoint(2.5, 0, 0)), np.array([0.5, 0.5])
    )
    nu = DiscreteMeasure(
        (GroupPoint(2, 0, 0), GroupPoint(4, 0, 0)), np.array([0.5, 0.5])
    )
    plan, _ = solve_kantorovich(mu, nu, P)
    assert plan.masses[1, 0] == 0.0
    assert plan.masses[1, 1] == pytest.approx(0.5)


def test_brute_force_agreement_small():
    for seed in range(6):
        n = 2 + seed % 4
        mu, nu = sample_chronological_pair(n, n, seed=seed, weights="uniform")
        plan, _ = solve_kantorovich(mu, nu, P)
        bf = brute_force_plan(mu, nu, P)
        assert plan.value == pytest.approx(bf.value, abs=1e-9)


def test_lp_beats_every_permutation():
    mu, nu = sample_chronological_pair(5, 5, seed=17, weights="uniform")
    plan, _ = solve_kantorovich(mu, nu, P)
    cm = cost_matrix(mu, nu, P)
    for perm in itertools.permutations(range(5)):
        val = sum(cm.values[i, perm[i]] for i in range(5)) / 5.0
        assert plan.value >= val - 1e-10


def test_rectangular_instance():
    mu, nu = sample_chronological_pair(3, 7, seed=5, weights="random")
    plan, duals = solve_kantorovich(mu, nu, P)
    cm = cost_matrix(mu, nu, P)
    assert abs(duality_gap(plan, duals, mu, nu, cm)) <= 1e-9
    report = check_cyclical_monotonicity(plan, cm, max_cycle=4)
    assert report.worst_violation <= 1e-9


def test_strengthen_duals_preserves_optimality_certificate():
    mu, nu = sample_chronological_pair(6, 6, seed=23, weights="random")
    plan, _ = solve_kantorovich(mu, nu, P)
    cm = cost_matrix(mu, nu, P)
    duals = strengthen_duals(plan, cm)
    # support pairs stay tight, feasible off-support pairs keep slack >= 0
    for i, j in plan.support():
        assert duals.psi[j] - duals.phi[i] == pytest.approx(cm.values[i, j], abs=1e-9)
    assert abs(duality_gap(plan, duals, mu, nu, cm)) <= 1e-8


def test_strengthen_duals_rejects_a_support_without_duals():
    # the swapped plan's two support pairs close a positive cycle on their
    # own: no potentials are tight on both
    mu, nu = _fixture()
    cm = cost_matrix(mu, nu, P)
    swapped = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(InfeasibleDuals):
        strengthen_duals(TransportPlan(swapped, float(np.sum(swapped * cm.values))), cm)


def _full_support(values):
    """A 2x2 plan whose four pairs all carry mass: its support closes a cycle."""
    masses = np.full((2, 2), 0.25)
    return TransportPlan(masses, float(np.sum(masses * values))), CostMatrix(values, np.ones((2, 2), bool))


def test_strengthen_duals_keeps_a_support_cycle_of_zero_sum_tight():
    # c_ij = a_i + b_j, exact in binary: the cycle's alternating sum is 0
    values = np.add.outer([0.5, 1.25], [2.0, 0.75])
    plan, cm = _full_support(values)
    duals = strengthen_duals(plan, cm)
    np.testing.assert_array_equal(duals.psi[None, :] - duals.phi[:, None], values)


def test_strengthen_duals_rejects_a_support_cycle_of_nonzero_sum():
    values = np.add.outer([0.5, 1.25], [2.0, 0.75])
    values[1, 1] += 0.5
    with pytest.raises(InfeasibleDuals):
        strengthen_duals(*_full_support(values))


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e12, 1e20])
def test_strengthen_duals_keeps_full_support_plans_at_large_gains(scale):
    # c_ij = (a_i + b_j) * scale makes every plan optimal, and a full 3x3
    # support closes cycles of alternating sum 0 up to roundoff of the
    # gains; with an absolute relaxation tolerance 45-49 of these 50 plans
    # raised InfeasibleDuals at each scale
    rng = np.random.default_rng(0)
    for _ in range(50):
        values = np.add.outer(rng.random(3), rng.random(3)) * scale
        masses = np.full((3, 3), 1.0 / 9.0)
        cm = CostMatrix(values, np.ones((3, 3), bool))
        duals = strengthen_duals(TransportPlan(masses, float(np.sum(masses * values))), cm)
        slack = duals.psi[None, :] - duals.phi[:, None] - values
        assert np.abs(slack).max() <= 1e-12 * values.max()


def test_strengthen_duals_caps_an_unlimited_margin_at_512():
    # mu == nu on the x-axis, each atom in the chronological future of the
    # one before: only the identity plan is admissible, and no cycle
    # through an off-support pair exists to limit the margin
    atoms = (GroupPoint(0, 0, 0), GroupPoint(2, 0, 0), GroupPoint(4, 0, 0))
    mu = DiscreteMeasure(atoms, np.full(3, 1.0 / 3.0))
    plan, _ = solve_kantorovich(mu, mu, P)
    cm = cost_matrix(mu, mu, P)
    duals = strengthen_duals(plan, cm)
    slack = duals.psi[None, :] - duals.phi[:, None] - cm.values
    off = cm.feasible & ~(plan.masses > SUPPORT_TOL)
    assert off.sum() == 3
    assert slack[off].min() >= 512.0


def test_strengthen_duals_stops_on_a_cycle_that_keeps_its_margin(monkeypatch):
    # Roundoff can make the relaxation report a cycle that weighs 0 at the
    # exact margin.  Have every search at that margin report the last cycle
    # found: the search must stop there, with the same duals, rather than
    # retry the margin.
    from sublorentz import transport

    mu, nu = _cluster_pair(0, 10, twisted=False)
    plan, _ = solve_kantorovich(mu, nu, P)
    cm = cost_matrix(mu, nu, P)
    want = strengthen_duals(plan, cm)
    real = transport.longest_path
    calls, cycles, stuck = [], [], []

    def replay(n_nodes, tail, head, weight):
        calls.append(weight)
        assert len(calls) < 20, "the margin search repeats itself"
        if stuck and np.array_equal(weight, stuck[0]):
            return None, cycles[-1]
        pi, cycle = real(n_nodes, tail, head, weight)
        if cycle is not None:
            cycles.append(cycle)
        elif cycles and not stuck:
            stuck.append(weight)
            return None, cycles[-1]
        return pi, cycle

    monkeypatch.setattr(transport, "longest_path", replay)
    got = strengthen_duals(plan, cm)
    assert stuck
    np.testing.assert_array_equal(got.phi, want.phi)
    np.testing.assert_array_equal(got.psi, want.psi)


def _highs_margin(plan, cm, optimize):
    """Largest lam <= 1024 with psi_j - phi_i = c_ij on the support and
    psi_j - phi_i - c_ij >= lam on the other feasible pairs, from HiGHS."""
    n, m = cm.values.shape
    on = plan.masses > SUPPORT_TOL

    def rows(i, j):  # psi_j - phi_i over the variables (phi, psi, lam)
        a = np.zeros((i.size, n + m + 1))
        a[np.arange(i.size), i] = -1.0
        a[np.arange(i.size), n + j] = 1.0
        return a

    si, sj = np.nonzero(on)
    fi, fj = np.nonzero(cm.feasible & ~on)
    a_ub = -rows(fi, fj)
    a_ub[:, -1] = 1.0
    objective = np.zeros(n + m + 1)
    objective[-1] = -1.0
    res = optimize.linprog(
        objective,
        A_ub=a_ub if fi.size else None,
        b_ub=-cm.values[fi, fj] if fi.size else None,
        A_eq=rows(si, sj),
        b_eq=cm.values[si, sj],
        bounds=[(None, None)] * (n + m) + [(None, 1024.0)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def _cluster_pair(seed, n, twisted):
    """n uniform atoms in a cluster and their right translates by a planar
    or twisted q0: degenerate LPs whose optimal plans are permutations."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(1.2, 2.0)
    y0 = rng.uniform(-0.3, 0.3) * x0
    z0 = rng.uniform(0.2, 0.6) * 0.25 * (x0 * x0 - y0 * y0) * rng.choice([-1.0, 1.0])
    q0 = GroupPoint(x0, y0, z0 if twisted else 0.0)
    atoms = [GroupPoint(*a) for a in rng.uniform([-0.7, -0.7, -0.245], [0.7, 0.7, 0.245], (n, 3))]
    w = np.full(n, 1.0 / n)
    return DiscreteMeasure(atoms, w), DiscreteMeasure([mul(a, q0) for a in atoms], w)


@pytest.mark.parametrize("seed", range(6))
def test_strengthened_margin_matches_highs(seed):
    optimize = pytest.importorskip("scipy.optimize")
    pairs = [
        sample_chronological_pair(6 + 3 * seed, 5 + 2 * seed, seed=seed, weights="random"),
        _cluster_pair(seed, 10, twisted=False),
        _cluster_pair(seed, 10, twisted=True),
    ]
    for mu, nu in pairs:
        plan, _ = solve_kantorovich(mu, nu, P)
        cm = cost_matrix(mu, nu, P)
        duals = strengthen_duals(plan, cm)
        slack = duals.psi[None, :] - duals.phi[:, None] - cm.values
        on = plan.masses > SUPPORT_TOL
        off = cm.feasible & ~on
        best = _highs_margin(plan, cm, optimize)
        assert np.abs(slack[on]).max() <= 1e-12 * np.abs(cm.values[cm.feasible]).max()
        assert slack[off].min() >= 0.5 * best * (1.0 - 1e-9)


def test_monotonicity_flags_suboptimal_plan():
    mu, nu = _fixture()
    cm = cost_matrix(mu, nu, P)
    swapped = np.array([[0.0, 0.5], [0.5, 0.0]])
    bad_value = float(np.sum(swapped * cm.values))
    report = check_cyclical_monotonicity(TransportPlan(swapped, bad_value), cm)
    assert report.worst_violation == pytest.approx(0.027684042744990478, abs=1e-9)
    assert report.exhaustive


def test_monotonicity_clean_on_optimal_plan():
    mu, nu = sample_chronological_pair(8, 8, seed=41, weights="random")
    plan, _ = solve_kantorovich(mu, nu, P)
    cm = cost_matrix(mu, nu, P)
    report = check_cyclical_monotonicity(plan, cm, max_cycle=5)
    assert report.worst_violation <= 1e-9
    assert report.cycles_checked == 0  # 15 support pairs: decided from potentials


def test_monotonicity_ignores_infeasible_reassignments():
    # mu == nu: the identity plan is optimal with value 0, and every
    # reassignment would route mass through spacelike pairs; those cycles
    # are vacuous, not violations
    atoms = (GroupPoint(0, 0, 0), GroupPoint(2, 0, 0), GroupPoint(4, 0, 0))
    w = np.full(3, 1.0 / 3.0)
    mu = DiscreteMeasure(atoms, w)
    plan, _ = solve_kantorovich(mu, mu, P)
    cm = cost_matrix(mu, mu, P)
    assert plan.value == pytest.approx(0.0, abs=1e-12)
    report = check_cyclical_monotonicity(plan, cm)
    assert report.worst_violation <= 0.0


def test_monotonicity_finds_a_violation_only_seven_pairs_long():
    # The identity plan on 13 atoms, every pair feasible.  c = 10 on the
    # support and 11 where source t + 1 (mod 7) takes target t, 0 elsewhere.
    # The 7-cycle through atoms 0..6 gains 7; any other cycle of k support
    # pairs uses at most min(k - 1, 6) of the 11s, so it gains at most
    # 11 min(k - 1, 6) - 10k < 0.  A search of cycles up to 6 pairs long
    # reads 0 here.
    values = np.zeros((13, 13))
    np.fill_diagonal(values, 10.0)
    values[(np.arange(7) + 1) % 7, np.arange(7)] = 11.0
    cm = CostMatrix(values, np.ones((13, 13), bool))
    masses = np.eye(13) / 13
    report = check_cyclical_monotonicity(TransportPlan(masses, float(np.sum(masses * values))), cm)
    assert report == (7.0, 0, True)


def test_monotonicity_flags_a_support_cycle_of_nonzero_sum():
    # a caller's 4x4 plan with full support: 16 pairs whose support closes
    # cycles; c_ij = a_i + b_j but for one entry, so every simple support
    # cycle through that entry has alternating sum 0.5, and the audit reports
    # one of them (reassignment cycles that pass the entry twice gain more)
    values = np.add.outer([0.5, 1.25, 2.0, 0.75], [2.0, 0.75, 1.5, 0.25])
    values[2, 1] += 0.5
    masses = np.full((4, 4), 1.0 / 16.0)
    cm = CostMatrix(values, np.ones((4, 4), bool))
    report = check_cyclical_monotonicity(TransportPlan(masses, float(np.sum(masses * values))), cm)
    assert report == (0.5, 0, True)


def _highs_value(cm, supplies, demands, optimize):
    """Optimal value of the causal LP on cm, from HiGHS."""
    n, m = cm.values.shape
    src, dst = np.nonzero(cm.feasible)
    a_eq = np.zeros((n + m, src.size))
    a_eq[src, np.arange(src.size)] = 1.0
    a_eq[n + dst, np.arange(src.size)] = 1.0
    res = optimize.linprog(
        -cm.values[src, dst], A_eq=a_eq, b_eq=np.concatenate([supplies, demands]), bounds=(0, None), method="highs"
    )
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("seed", range(8))
def test_exact_audit_agrees_with_highs(seed):
    # Random-weight pairs whose plans have 13-40 support pairs.  The optimal
    # plan must read as monotone.  The optimal plans of the same pair under
    # perturbed gains are feasible for it; each one whose value falls short
    # of HiGHS's optimum must read as violated.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng([seed, 27])
    n, m = (int(v) for v in rng.integers(7, 21, size=2))
    mu, nu = sample_chronological_pair(n, m, seed=seed, weights="random")
    cm = cost_matrix(mu, nu, P)
    top = np.abs(cm.values[cm.feasible]).max()
    best = _highs_value(cm, mu.weights, nu.weights, optimize)
    plan, _ = solve_cost_matrix(cm, mu.weights, nu.weights)
    assert 13 <= len(plan.support()) <= 40
    assert check_cyclical_monotonicity(plan, cm).worst_violation <= 1e-9 * top
    short = 0
    for noise in (0.01, 0.03, 0.1, 0.3):
        for _ in range(3):
            masses = solve_cost_matrix(
                CostMatrix(cm.values + noise * top * rng.random(cm.values.shape), cm.feasible), mu.weights, nu.weights
            )[0].masses
            other = TransportPlan(masses, float(np.sum(masses * cm.values)))
            if other.value < best - 1e-9 * top:
                short += 1
                assert len(other.support()) > 12
                assert check_cyclical_monotonicity(other, cm).worst_violation > 0.0
    assert short > 0


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("n", [13, 20, 36])
def test_exact_audit_reads_roundoff_on_tied_permutation_plans(n, twisted):
    # translated clusters with uniform weights: optimal plans are
    # permutations, with many ties between optimal plans
    for seed in range(3):
        mu, nu = _cluster_pair(seed, n, twisted)
        plan, _ = solve_kantorovich(mu, nu, P)
        cm = cost_matrix(mu, nu, P)
        report = check_cyclical_monotonicity(plan, cm)
        assert report.cycles_checked == 0
        assert report.worst_violation <= 1e-12 * np.abs(cm.values[cm.feasible]).max()


def _per_cycle_audit(plan, cost, max_cycle):
    """check_cyclical_monotonicity on at most 12 support pairs as one Python
    call per cycle: the oracle that the array audit must match bit for bit."""
    support = plan.support()
    vals = cost.values
    feas = cost.feasible
    worst = 0.0
    checked = 0

    def violation(order):
        base = 0.0
        moved = 0.0
        k = len(order)
        for t in range(k):
            i_cur, j_cur = support[order[t]]
            i_next = support[order[(t + 1) % k]][0]
            if not feas[i_next, j_cur]:
                return -math.inf
            base += vals[i_cur, j_cur]
            moved += vals[i_next, j_cur]
        return moved - base

    for k in range(2, max_cycle + 1):
        for combo in itertools.combinations(range(len(support)), k):
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                checked += 1
                v = violation((first,) + rest)
                if v > worst:
                    worst = v
    return float(worst), checked


def _permutation_plan(perm):
    n = len(perm)
    masses = np.zeros((n, n))
    masses[np.arange(n), perm] = 1.0 / n
    return TransportPlan(masses, 0.0)


def _cloud_cost(n, seed):
    """Two seeded clouds in which about a third of the pairs are unrelated."""
    rng = np.random.default_rng(seed)
    w = np.full(n, 1.0 / n)
    mu = DiscreteMeasure(rng.uniform([-1, -1, -0.5], [1, 1, 0.5], size=(n, 3)), w)
    nu = DiscreteMeasure(rng.uniform([1, -1, -0.5], [3, 1, 0.5], size=(n, 3)), w)
    return cost_matrix(mu, nu, P)


@pytest.mark.parametrize("max_cycle", [4, 6])
@pytest.mark.parametrize("n", [1, 3, 12])
def test_array_audit_matches_per_cycle_loop(n, max_cycle):
    # n = 12 permutation plans are the largest the cycle enumerator takes (the
    # random-weight optimal plan at n = 12 has more pairs and is decided from
    # potentials); n = 1 and 3 have fewer pairs than the longest cycle
    rng = np.random.default_rng([n, max_cycle])
    mu, nu = sample_chronological_pair(n, n, seed=n)
    mu_r, nu_r = sample_chronological_pair(n, n, seed=n, weights="random")
    chron = cost_matrix(mu, nu, P)
    cloud = _cloud_cost(n, seed=n)
    # every reassignment of the identity plan is causally unrelated
    stranded = CostMatrix(rng.random((n, n)), np.eye(n, dtype=bool))
    optimal = solve_kantorovich(mu, nu, P)[0]
    cases = [
        ("uniform optimal", optimal, chron),
        ("random-weight optimal", solve_kantorovich(mu_r, nu_r, P)[0], cost_matrix(mu_r, nu_r, P)),
        ("permuted", _permutation_plan(np.roll(optimal.masses.argmax(axis=1), 1)), chron),
        ("permuted, partly unrelated", _permutation_plan(rng.permutation(n)), cloud),
        ("all reassignments unrelated", _permutation_plan(np.arange(n)), stranded),
    ]
    for name, plan, cm in cases:
        report = check_cyclical_monotonicity(plan, cm, max_cycle=max_cycle)
        assert type(report.worst_violation) is float, name
        if len(plan.support()) > 12:
            assert report == (0.0, 0, True), name
            continue
        want = _per_cycle_audit(plan, cm, max_cycle)
        got = (repr(report.worst_violation), report.cycles_checked, report.exhaustive)
        assert got == (repr(want[0]), want[1], True), name
        if name == "all reassignments unrelated":
            assert report.worst_violation == 0.0
        if name == "permuted" and n >= 3:
            assert report.worst_violation > 0.0


def test_zero_weight_atoms_do_not_disturb_value():
    mu, nu = _fixture()
    mu2 = DiscreteMeasure(
        mu.atoms + (GroupPoint(50.0, 0.0, 0.0),), np.array([0.5, 0.5, 0.0])
    )
    plan, _ = solve_kantorovich(mu2, nu, P)
    assert plan.value == pytest.approx(3.087533615441246, abs=1e-9)


def test_gain_parameter_sweep_keeps_duality_tight():
    mu, nu = sample_chronological_pair(5, 4, seed=9, weights="random")
    for p in (0.25, 0.5, 0.75, 0.9):
        params = CostParams(p)
        plan, duals = solve_kantorovich(mu, nu, params)
        cm = cost_matrix(mu, nu, params)
        assert abs(duality_gap(plan, duals, mu, nu, cm)) <= 1e-9


def _debug_fields(caplog, solve, *args):
    """Run solve(*args) and parse the one DEBUG record it logs; the second
    item is its result, or None when it raised NoCausalCoupling."""
    caplog.clear()
    result = None
    with caplog.at_level(logging.DEBUG, logger="sublorentz"):
        try:
            result = solve(*args)
        except NoCausalCoupling:
            pass
    records = [r.getMessage() for r in caplog.records if r.name == "sublorentz"]
    assert len(records) == 1
    return dict(re.findall(r"(\w+)=(\S+)", records[0])), result


def test_solve_logs_pivot_count(caplog):
    mu, nu = sample_chronological_pair(6, 6, seed=3, weights="random")
    fields, _ = _debug_fields(caplog, solve_kantorovich, mu, nu, P)
    assert fields["n"] == "6" and fields["m"] == "6"
    assert 0 <= int(fields["degenerate"]) <= int(fields["pivots"])
    # the artificial start basis needs at least one pivot per real basic arc
    assert int(fields["pivots"]) >= 6
    assert float(fields["stranded"]) == 0.0
    # every node ends on the real arcs, so the M part of pricing goes flat
    assert 0 < int(fields["m_flat_at"]) <= int(fields["pivots"])
    # stranded mass keeps nodes at -M and +M: the M part never goes flat
    allowed = np.ones((3, 3), dtype=bool)
    allowed[2] = False
    fields, result = _debug_fields(
        caplog, solve_max_transport, np.ones((3, 3)), allowed, np.full(3, 1 / 3), np.full(3, 1 / 3)
    )
    assert result is None  # NoCausalCoupling
    assert float(fields["stranded"]) > 0.0
    assert fields["m_flat_at"] == "-1"


def _pinned_lp(seed, n, m, density, stranded):
    """Integer gains 0..3 (many ties, the largest 3), a random mask of
    allowed arcs and integer marginals with zeros; a stranded LP cuts its
    last source, which carries supply, off every sink.  Where density names
    a kind, the LP is instead the cost matrix of a random-weight
    chronological pair or of a uniform cluster and its planar translate."""
    if isinstance(density, str):
        mu, nu = (
            sample_chronological_pair(n, m, seed=seed, weights="random")
            if density == "random-weight"
            else _cluster_pair(seed, n, twisted=False)
        )
        cm = cost_matrix(mu, nu, P)
        return cm.values, cm.feasible, mu.weights, nu.weights
    rng = np.random.default_rng(seed)
    gains = rng.integers(0, 4, (n, m)).astype(float)
    allowed = rng.random((n, m)) < density
    gains[0, 0] = 3.0
    allowed[0, 0] = True
    supplies = rng.integers(0, 4, n).astype(float)
    demands = rng.integers(0, 4, m).astype(float)
    supplies[0] = demands[0] = 1.0
    if stranded:
        allowed[-1] = False
        supplies[-1] = 2.0
    return gains, allowed, supplies / supplies.sum(), demands / demands.sum()


# (seed, n, m, density or kind, stranded) -> (pivots, degenerate, m_flat_at,
# the first 16 hex digits of the sha256 of the bytes of masses, phi and psi,
# or None for NoCausalCoupling).  Any change to the pivot rule or the tree
# update shows here; a change that keeps the pivot sequence keeps every
# value.  Once the M part of pricing is flat it prices like none, so a
# flatness test that fires late keeps every pivot, plan and dual: only
# m_flat_at shows it.  m_flat_at is -1 where stranded mass or a zero-demand
# sink keeps the M part from flattening.
PINNED_PIVOTS = {
    (1, 5, 7, 1.0, False): (15, 2, -1, "524ac419907b627d"),
    (2, 6, 6, 0.6, False): (14, 0, -1, None),
    (3, 8, 5, 0.8, False): (17, 9, -1, "4e16fef32bcb60a8"),
    (4, 10, 12, 0.5, False): (23, 11, -1, None),
    (5, 12, 12, 1.0, False): (43, 10, 27, "ec62b149aec71245"),
    (6, 15, 9, 0.7, False): (37, 12, 33, "e966d35ad787425b"),
    (7, 16, 20, 0.4, False): (63, 8, 44, "b3e318ca2c0ed878"),
    (8, 20, 20, 1.0, False): (63, 12, 39, "0a4e34eb8d9b9780"),
    (9, 24, 18, 0.9, False): (97, 25, 62, "eac8ddde665a10d9"),
    (10, 30, 30, 1.0, False): (93, 20, -1, "e9b0eb0aaf2e1ce3"),
    (11, 9, 11, 0.8, True): (18, 7, -1, None),
    (12, 25, 25, 0.9, True): (83, 20, -1, None),
    (14, 14, 12, 0.6, False): (48, 11, -1, "17ae03c16e3b7630"),
    (15, 100, 100, 0.9, False): (267, 65, -1, "372ba6412b91f27e"),
    (16, 200, 200, 0.9, False): (485, 95, -1, "09fb7529745a71ac"),
    # the workload's two kinds: random weights, and a degenerate cluster whose optimum is a permutation
    (1, 20, 20, "random-weight", False): (140, 0, 53, "e412401673145a17"),
    (1, 20, 20, "cluster", False): (126, 100, 70, "6d75463d903ec001"),
}


def _pin_id(key):
    seed, n, m, density, _ = key
    return f"seed{seed}-{n}x{m}" + (f"-{density}" if isinstance(density, str) else "")


@pytest.mark.parametrize("key", list(PINNED_PIVOTS), ids=_pin_id)
def test_pivot_sequence_is_pinned(caplog, key):
    fields, result = _debug_fields(caplog, solve_max_transport, *_pinned_lp(*key))
    digest = None
    if result is not None:
        digest = hashlib.sha256(b"".join(a.tobytes() for a in result)).hexdigest()[:16]
    counts = tuple(int(fields[name]) for name in ("pivots", "degenerate", "m_flat_at"))
    assert counts + (digest,) == PINNED_PIVOTS[key]


@pytest.mark.parametrize(
    "weights, pinned",
    [("random", (3015, 0, 851, "e50307e8bae066cf")), ("uniform", (3248, 2808, 200, "e1ab70d3c644b4be"))],
)
def test_large_lp_pivots_are_pinned(caplog, weights, pinned):
    # the 200x200 pair of seed 1: stems and re-hung subtrees long enough
    # that the tree update, not pricing, is most of the solve
    mu, nu = sample_chronological_pair(200, 200, seed=1, weights=weights)
    cm = cost_matrix(mu, nu, P)
    fields, result = _debug_fields(caplog, solve_max_transport, cm.values, cm.feasible, mu.weights, nu.weights)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in result)).hexdigest()[:16]
    counts = tuple(int(fields[name]) for name in ("pivots", "degenerate", "m_flat_at"))
    assert counts + (digest,) == pinned


def test_complex_argmin_orders_by_real_part_then_imaginary_part():
    # the simplex prices M part + i * float part with one argmin
    assert np.array([1 - 5j, 0 + 2j, 0 + 1j, -1 + 9j, -1 + 9j]).argmin() == 3
    assert np.array([0 + 2j, 0 + 1j, 1 - 5j, 0 + 1j]).argmin() == 1  # first of a tie
    assert np.array([-1 + 9j, -2 + 9j, -2 + 3j, 0 - 9j]).argmin() == 2


def test_complex_argmin_ranks_an_infinite_imaginary_part_last_at_its_real_part():
    prices = np.zeros(4, dtype=complex)
    prices.imag = [math.inf, 1e300, math.inf, -1.0]  # 1j * inf would be nan + inf j
    prices.real = [0.0, 0.0, -2.0, 2.0]
    assert prices.argmin() == 2  # a least real part wins even at +inf
    prices.real[2] = 0.0
    assert prices.argmin() == 1


def test_complex_sum_of_potentials_is_the_float_sum_of_each_part():
    rng = np.random.default_rng(7)
    price, a, b = (rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 8, 1000) for _ in range(3))
    m_a, m_b = (rng.integers(-1, 2, 1000).astype(float) for _ in range(2))
    price[::7] = math.inf
    cprice, ca, cb = (np.zeros(1000, dtype=complex) for _ in range(3))
    cprice.imag, ca.imag, cb.imag, ca.real, cb.real = price, a, b, m_a, m_b
    rc = cprice + ca - cb
    assert rc.imag.tobytes() == (price + a - b).tobytes()
    assert rc.real.tobytes() == (m_a - m_b).tobytes()


def test_solve_returns_float64_and_leaves_its_inputs_alone():
    values, allowed, supplies, demands = _pinned_lp(5, 12, 12, 1.0, False)
    copies = [np.array(x) for x in (values, allowed, supplies, demands)]
    result = solve_max_transport(values, allowed, supplies, demands)
    assert all(r.dtype == np.float64 for r in result)
    for x, y in zip((values, allowed, supplies, demands), copies):
        assert x.tobytes() == y.tobytes()


# case -> (gain at (1, 0), supplies, demands, the error message)
_INVALID = {
    "nan supply": (1.0, [math.nan, 1.0], [1.0, 0.0], "supply 0 is nan"),
    "negative supply": (1.0, [1.5, -0.5], [0.5, 0.5], "supply 1 is -0.5"),
    "infinite demand": (1.0, [0.5, 0.5], [math.inf, 0.5], "demand 0 is inf"),
    "nan gain": (math.nan, [0.5, 0.5], [0.5, 0.5], r"gain nan on allowed arc \(1, 0\)"),
    "-inf gain": (-math.inf, [0.5, 0.5], [0.5, 0.5], r"gain -inf on allowed arc \(1, 0\)"),
}


@pytest.mark.parametrize("case", list(_INVALID))
def test_solve_rejects_non_finite_or_negative_input(case):
    gain, supplies, demands, message = _INVALID[case]
    values = np.ones((2, 2))
    values[1, 0] = gain
    allowed = np.ones((2, 2), dtype=bool)
    with pytest.raises(ValueError, match=message):
        solve_max_transport(values, allowed, supplies, demands)
    with pytest.raises(ValueError, match=message):
        solve_cost_matrix(CostMatrix(values, allowed), supplies, demands)


def test_solve_ignores_the_gain_of_a_forbidden_arc():
    # an arc is forbidden through allowed, not through its gain
    values = np.array([[1.0, 1.0], [math.nan, 1.0]])
    masses, _, _ = solve_max_transport(values, np.isfinite(values), [0.5, 0.5], [0.5, 0.5])
    np.testing.assert_array_equal(masses, np.eye(2) / 2)


def _dilated_pair(lam):
    """The 12x12 random-weight pair of seed 4 under delta_lam.  delta_lam
    scales tau by lam and every gain tau^p / p by lam^p, so the optimal plan
    stays and the value scales by lam^p, however small the gains get next to
    the absolute tolerances of the solvers."""

    def dilate(measure):
        atoms = tuple(GroupPoint(lam * q.x, lam * q.y, lam * lam * q.z) for q in measure.atoms)
        return DiscreteMeasure(atoms, measure.weights)

    return tuple(map(dilate, sample_chronological_pair(12, 12, seed=4, weights="random")))


@pytest.mark.parametrize("lam", [1e-20, 1e-24])
def test_dilated_lp_keeps_its_plan_at_tiny_scales(lam):
    base, _ = solve_kantorovich(*_dilated_pair(1.0), P)
    mu, nu = _dilated_pair(lam)
    plan, duals = solve_kantorovich(mu, nu, P)
    cm = cost_matrix(mu, nu, P)
    assert np.array_equal(plan.masses > SUPPORT_TOL, base.masses > SUPPORT_TOL)
    assert plan.value * lam**-P.p == pytest.approx(base.value, rel=1e-12, abs=0.0)
    slack = duals.psi[None, :] - duals.phi[:, None] - cm.values
    assert slack[cm.feasible].min() >= -1e-12 * np.abs(cm.values[cm.feasible]).max()


@pytest.mark.parametrize("lam", [1e-20, 1e-24, 1e10, 1e40, 1e140])
def test_strengthened_duals_keep_their_margin_at_every_scale(lam):
    # the margin of the strengthened duals scales by lam^p like every gain:
    # support pairs stay tight and off-support slacks stay positive
    def margins(mu, nu):
        plan, _ = solve_kantorovich(mu, nu, P)
        cm = cost_matrix(mu, nu, P)
        duals = strengthen_duals(plan, cm)
        slack = duals.psi[None, :] - duals.phi[:, None] - cm.values
        on = plan.masses > SUPPORT_TOL
        return np.abs(slack[on]).max(), slack[cm.feasible & ~on].min(), np.abs(cm.values[cm.feasible]).max()

    _, base, _ = margins(*_dilated_pair(1.0))
    assert base > 0.0
    off_tight, least, top = margins(*_dilated_pair(lam))
    assert off_tight <= 1e-12 * top
    assert least * lam**-P.p == pytest.approx(base, rel=1e-9, abs=0.0)


def test_gain_exponent_brings_the_largest_gain_into_one_two():
    below_two = math.nextafter(2.0, 0.0)
    cases = [(0.0, 0), (5e-324, -1074), (0.75, -1), (1.0, 0), (below_two, 0), (2.0, 1),
             (sys.float_info.max, 1023), (math.inf, 0), (math.nan, 0)]
    for top, k in cases:
        assert gain_exponent(top) == k, top
        if 0.0 < top < math.inf:
            assert 1.0 <= math.ldexp(top, -k) < 2.0


def test_support_lists_pairs_above_tolerance_in_row_major_order():
    masses = np.array([[0.0, 0.3, SUPPORT_TOL], [2e-12, 0.0, 0.1], [0.0, 0.6, 0.0]])
    support = TransportPlan(masses, 0.0).support()
    assert support == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert all(type(i) is int and type(j) is int for i, j in support)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_scalar_gain_is_the_array_entry_bit_for_bit(p):
    # libm's pow and numpy's differ in the last bit on a few percent of
    # inputs, so a scalar path of its own would not match the cost matrix
    rng = np.random.default_rng(31)
    taus = np.concatenate([
        [0.0, -1.0, 5e-324, 1e300],
        rng.uniform(0.0, 4.0, 6000),
        10.0 ** rng.uniform(-300.0, 300.0, 4000),
    ])
    params = CostParams(p)
    want = params.gain(taus)
    got = [params.gain(t) for t in taus.tolist()]
    assert all(type(g) is float for g in got)
    assert np.array(got).view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert got[:2] == [0.0, 0.0] and got[2] > 0.0 and math.isfinite(got[3])


def test_nan_weight_is_a_weight_error():
    with pytest.raises(WeightError, match="non-finite weight"):
        DiscreteMeasure([(0, 0, 0), (1, 0, 0)], [0.5, math.nan])


def test_lorentz_wasserstein_is_minus_inf_without_a_causal_coupling():
    mu, _ = _fixture()
    past = DiscreteMeasure([(-5.0, 0.0, 0.0)], [1.0])
    assert lorentz_wasserstein(mu, past, P) == -math.inf


def test_brute_force_plan_rejects_what_it_cannot_enumerate():
    mu, nu = _fixture()
    with pytest.raises(ValueError, match="n == m <= 8"):
        brute_force_plan(mu, DiscreteMeasure([(2.0, 0.0, 0.0)], [1.0]), P)
    lopsided = DiscreteMeasure(nu.atoms, [0.25, 0.75])
    with pytest.raises(ValueError, match="uniform weights"):
        brute_force_plan(mu, lopsided, P)
    past = DiscreteMeasure([(-5.0, 0.0, 0.0), (-6.0, 0.0, 0.0)], [0.5, 0.5])
    with pytest.raises(NoCausalCoupling, match="every permutation"):
        brute_force_plan(mu, past, P)


def test_solve_max_transport_rejects_mismatched_shapes_and_unbalanced_marginals():
    values = np.ones((2, 2))
    with pytest.raises(ValueError, match="inconsistent problem dimensions"):
        solve_max_transport(values, np.ones((2, 3), bool), [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="inconsistent problem dimensions"):
        solve_max_transport(values, np.ones((2, 2), bool), [1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="must balance"):
        solve_max_transport(values, np.ones((2, 2), bool), [0.5, 0.5], [0.5, 0.6])
