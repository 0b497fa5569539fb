"""Acceptance gate: the twelve numbered checks this package must pass.

Each criterion is one test with its tolerances written literally, so a
`pytest -v tests/test_acceptance.py` run reads as a pass/fail checklist.
Oracles are recomputed here from scratch (brute-force permutation search,
analytic densities) rather than imported from the library, with two
exceptions: criterion 2 integrates the geodesic equations with verify's
Taylor-series oracle (`_taylor_flows`), which shares no code with the
closed-form flow it checks, and criterion 7 takes the potential's gradient
by central differences (`test_brenier.fd_transport_map`), not by its closed
form.
"""

import math
import time

import numpy as np
import pytest

from sublorentz.brenier import (
    MapSample,
    backward_map_from_duals,
    interpolate,
    inverse_roundtrip_check,
    monge_ampere_residual,
    potential_from_duals,
    potential_gradient,
    transport_map_from_duals,
)
from sublorentz.causality import (
    CausalRelation,
    classify,
    tau,
    tau_partition_length,
)
from sublorentz.errors import NoCausalCoupling
from sublorentz.geodesics import GeodesicArc, exp_map, flow, log_map
from sublorentz.heisenberg import (
    IDENTITY,
    FrameCovector,
    GroupPoint,
    energy,
    mul,
    sup_distance,
)
from sublorentz.measures_io import sample_chronological_pair, sample_diamond
from sublorentz.minkowski import (
    right_translation_verdict,
    seeded_verdict_instance,
    solve_minkowski,
)
from sublorentz.transport import (
    CostParams,
    DiscreteMeasure,
    brute_force_plan,
    check_cyclical_monotonicity,
    cost_matrix,
    duality_gap,
    lorentz_wasserstein,
    solve_kantorovich,
    strengthen_duals,
)
from sublorentz.verify import _taylor_flows

from test_brenier import fd_transport_map

P = CostParams(0.5)


def _timelike_covector(rng, u_hi=2.0):
    v = rng.uniform(-0.9, 0.9)
    u = -rng.uniform(abs(v) + 0.05, u_hi)
    w = rng.uniform(-1.5, 1.5)
    return FrameCovector(u, v, w)


def test_criterion_01_exp_log_roundtrip_10k_under_5s():
    q0 = GroupPoint(0.3, -0.2, 0.1)
    q1 = mul(q0, GroupPoint(3.0, 0.4, 0.5))
    start = time.perf_counter()
    points = sample_diamond(q0, q1, 10_000, rng=1)
    worst = 0.0
    for q in points:
        back = exp_map(q0, log_map(q0, q))
        worst = max(worst, sup_distance(back, q))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst roundtrip {worst:.3e} in {elapsed:.2f} s")
    assert worst <= 1e-9
    assert elapsed <= 5.0


def criterion_02_flows():
    """Criterion 2's covectors (n, 3) and times (n,): 1,000 seeded timelike
    flows and four hand-picked regimes (planar, near-planar, extreme twist)."""
    rng = np.random.default_rng(2)
    n = 1000
    v = rng.uniform(-0.9, 0.9, size=n)
    u = -rng.uniform(np.abs(v) + 0.05, 2.0)
    w = rng.uniform(-1.5, 1.5, size=n)
    t = rng.uniform(0.05, 3.0, size=n)
    u = np.concatenate([u, [-1.0, -1.0, -1.2, -0.5]])
    v = np.concatenate([v, [0.3, 0.3, 0.0, 0.4]])
    w = np.concatenate([w, [0.0, 1e-6, 1.5, -1.5]])
    t = np.concatenate([t, [3.0, 3.0, 3.0, 3.0]])
    return np.stack([u, v, w], 1), t


def test_criterion_02_flow_matches_ode_to_1e8():
    covs, t = criterion_02_flows()
    state = _taylor_flows(covs, t)
    worst = 0.0
    for cov, ti, row in zip(covs, t, state):
        got = flow(IDENTITY, FrameCovector(*cov), ti)
        worst = max(worst, *(abs(a - b) for a, b in zip((*got.point, got.cov.hX, got.cov.hY), row)))
    print(f"criterion 2: worst flow-vs-ODE deviation {worst:.3e} ({len(t)} covectors)")
    assert worst <= 1e-8


def test_criterion_03_tau_equals_sqrt_2E():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        lam = _timelike_covector(rng)
        q = exp_map(IDENTITY, lam)
        worst = max(worst, abs(tau(IDENTITY, q) - math.sqrt(2.0 * energy(lam))))
    print(f"criterion 3: worst |tau - sqrt(2E)| {worst:.3e}")
    assert worst <= 1e-9
    assert abs(tau(IDENTITY, GroupPoint(2.0, 1.0, 0.0)) - math.sqrt(3.0)) <= 1e-12


def test_criterion_04_reverse_triangle_10k_chains():
    rng = np.random.default_rng(4)

    def null_step(base):
        x1 = rng.uniform(0.2, 1.5)
        y1 = rng.uniform(-0.95, 0.95) * x1
        z1 = math.copysign(0.25 * (x1 - y1) * (x1 + y1), rng.uniform(-1, 1))
        return mul(base, GroupPoint(x1, y1, z1))

    worst = -math.inf
    for k in range(10_000):
        a = GroupPoint(*rng.uniform(-0.5, 0.5, size=3))
        mode = k % 20
        if mode == 0:  # null first leg
            b = null_step(a)
            c = exp_map(b, _timelike_covector(rng))
        elif mode == 1:  # null second leg
            b = exp_map(a, _timelike_covector(rng))
            c = null_step(b)
        else:  # timelike-timelike
            b = exp_map(a, _timelike_covector(rng))
            c = exp_map(b, _timelike_covector(rng))
        worst = max(worst, tau(a, b) + tau(b, c) - tau(a, c))
    print(f"criterion 4: worst triangle excess {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_05_planar_bound_10k_pairs():
    rng = np.random.default_rng(5)
    worst = -math.inf
    checked = 0
    while checked < 10_000:
        a = GroupPoint(*rng.uniform(-1.0, 1.0, size=3))
        dx = rng.uniform(0.05, 3.0)
        dy = rng.uniform(-0.995, 0.995) * dx
        zmax = 0.25 * (dx - dy) * (dx + dy)
        dz = rng.uniform(-0.999, 0.999) * zmax
        d = GroupPoint(dx, dy, dz)
        if classify(IDENTITY, d) is not CausalRelation.CHRONOLOGICAL:
            continue
        b = mul(a, d)
        worst = max(worst, tau(a, b) - math.sqrt((dx - dy) * (dx + dy)))
        checked += 1
    print(f"criterion 5: worst planar-bound excess {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_06_lp_duality_monotonicity_bruteforce():
    rng = np.random.default_rng(6)
    worst_gap = 0.0
    worst_cycle = -math.inf
    for seed in range(100):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(2, 21))
        mu, nu = sample_chronological_pair(n, m, seed=seed, weights="random")
        plan, duals = solve_kantorovich(mu, nu, P)
        cm = cost_matrix(mu, nu, P)
        worst_gap = max(worst_gap, abs(duality_gap(plan, duals, mu, nu, cm)))
        report = check_cyclical_monotonicity(plan, cm, max_cycle=6)
        worst_cycle = max(worst_cycle, report.worst_violation)
    print(
        f"criterion 6: worst duality gap {worst_gap:.3e}, "
        f"worst support cycle gain {worst_cycle:.3e}"
    )
    assert worst_gap <= 1e-9
    assert worst_cycle <= 1e-9

    worst_bf = 0.0
    for n in range(2, 7):
        for seed in range(5):
            mu, nu = sample_chronological_pair(n, n, seed=100 + seed, weights="uniform")
            plan, _ = solve_kantorovich(mu, nu, P)
            bf = brute_force_plan(mu, nu, P)
            worst_bf = max(worst_bf, abs(plan.value - bf.value))
    print(f"criterion 6: worst LP-vs-brute-force deviation {worst_bf:.3e}")
    assert worst_bf <= 1e-9


def test_criterion_07_brenier_map_and_inverse():
    worst_map = 0.0
    worst_round = 0.0
    for seed in range(20):
        mu, nu = sample_chronological_pair(6, 6, seed=seed, weights="uniform")
        plan, _ = solve_kantorovich(mu, nu, P)
        cm = cost_matrix(mu, nu, P)
        duals = strengthen_duals(plan, cm)
        pot = potential_from_duals(duals, nu, P)
        fwd = fd_transport_map(mu, pot)
        assert len(fwd.mapped) == 6, f"seed {seed} left atoms unmapped: {fwd.skipped}"
        assignment = {i: j for i, j in plan.support()}
        for idx, sample in zip(fwd.mapped, fwd.samples):
            target = nu.atoms[assignment[idx]]
            worst_map = max(worst_map, sup_distance(sample.image, target))
        back = backward_map_from_duals(nu, duals.phi, mu.atoms, P, cm)
        assert len(back.mapped) == 6
        worst_round = max(worst_round, inverse_roundtrip_check(fwd, back))
    print(
        f"criterion 7: worst map-to-target {worst_map:.3e}, "
        f"worst roundtrip {worst_round:.3e}"
    )
    assert worst_map <= 1e-6
    assert worst_round <= 1e-6


def test_criterion_08_displacement_interpolation():
    rng = np.random.default_rng(8)
    worst_pt = 0.0
    for _ in range(1000):
        q = GroupPoint(*rng.uniform(-0.5, 0.5, size=3))
        lam = _timelike_covector(rng)
        length = math.sqrt(2.0 * energy(lam))
        ride = MapSample(q, exp_map(q, lam), lam)
        s = rng.uniform(0.0, 0.9)
        t = rng.uniform(s + 0.05, 1.0)
        seg = tau(interpolate(ride, s), interpolate(ride, t))
        worst_pt = max(worst_pt, abs(seg - (t - s) * length))
    print(f"criterion 8: worst pointwise interpolation error {worst_pt:.3e}")
    assert worst_pt <= 1e-9

    mu, nu = sample_chronological_pair(5, 5, seed=1, weights="uniform")
    plan, _ = solve_kantorovich(mu, nu, P)
    cm = cost_matrix(mu, nu, P)
    duals = strengthen_duals(plan, cm)
    pot = potential_from_duals(duals, nu, P)
    fwd = transport_map_from_duals(mu, pot, cm)
    assert len(fwd.mapped) == 5
    ell_full = lorentz_wasserstein(mu, nu, P)
    w = np.full(5, 0.2)
    worst_meas = 0.0
    for s, t in ((0.0, 0.5), (0.25, 0.75), (0.5, 1.0), (0.0, 1.0)):
        mu_s = DiscreteMeasure(
            tuple(interpolate(smp, s) for smp in fwd.samples), w.copy()
        )
        mu_t = DiscreteMeasure(
            tuple(interpolate(smp, t) for smp in fwd.samples), w.copy()
        )
        ell_st = lorentz_wasserstein(mu_s, mu_t, P)
        worst_meas = max(worst_meas, abs(ell_st - (t - s) * ell_full))
    print(f"criterion 8: worst measure-level geodesic error {worst_meas:.3e}")
    assert worst_meas <= 1e-6


def test_criterion_09_right_translation_predicate():
    agreements = 0
    for seed in range(100):
        verdict = seeded_verdict_instance(seed)[2]
        assert verdict.agrees, (
            f"seed {seed}: predicate {verdict.predicate} but gap {verdict.gap:.3e}"
        )
        agreements += 1
    print(f"criterion 9: predicate agreed with LP verdict on {agreements}/100 seeds")

    # twisted shift over a flat cluster: strictly positive optimality gap
    rng = np.random.default_rng(100)
    atoms = tuple(
        GroupPoint(
            rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(-0.02, 0.02)
        )
        for _ in range(6)
    )
    mu = DiscreteMeasure(atoms, np.full(6, 1.0 / 6.0))
    verdict = right_translation_verdict(mu, GroupPoint(1.5, 0.5, 0.3), P)
    print(f"criterion 9: counterexample gap {verdict.gap:.3e}")
    assert not verdict.predicate
    assert not verdict.optimal
    assert verdict.gap > 1e-8

    # the shift (1, 0.5, 0.3) is spacelike, so no coupling exists at all
    with pytest.raises(NoCausalCoupling):
        right_translation_verdict(mu, GroupPoint(1.0, 0.5, 0.3), P)


def test_criterion_10_monge_ampere():
    # (a) right translation by a planar chronological shift against
    # analytically translated gaussian densities
    q0 = GroupPoint(1.0, 0.5, 0.0)
    lam0 = log_map(IDENTITY, q0)
    scale = math.sqrt(2.0 * energy(lam0)) ** (P.p - 2.0)

    def grad_fn(q):
        lam = log_map(q, mul(q, q0))
        return FrameCovector(-scale * lam.hX, -scale * lam.hY, -scale * lam.hZ)

    def rho0(q):
        return math.exp(-(q.x**2 + q.y**2 + q.z**2))

    t = 0.5

    def rhot(q):
        back = GroupPoint(
            q.x - t * q0.x,
            q.y - t * q0.y,
            q.z - 0.5 * t * (q.x * q0.y - q0.x * q.y),
        )
        return rho0(back)

    rng = np.random.default_rng(10)
    sources = [GroupPoint(*rng.uniform(-0.5, 0.5, size=3)) for _ in range(12)]
    report = monge_ampere_residual(grad_fn, sources, t, rho0, rhot, P)
    worst_det = max(abs(det - 1.0) for _, _, det, _ in report.points)
    print(
        f"criterion 10: translation det within {worst_det:.3e} of 1, "
        f"max residual {report.max_residual:.3e}"
    )
    assert worst_det <= 1e-6
    assert report.max_residual <= 1e-6
    assert min(det for _, _, det, _ in report.points) > 0.0

    # (b) smooth semi-discrete instances keep det(dT_t) > 0 along the ride
    one = lambda q: 1.0
    min_det = math.inf
    for seed in range(5):
        mu, nu = sample_chronological_pair(5, 5, seed=seed, weights="uniform")
        plan, _ = solve_kantorovich(mu, nu, P)
        duals = strengthen_duals(plan, cost_matrix(mu, nu, P))
        pot = potential_from_duals(duals, nu, P)

        def pot_grad(q):
            return potential_gradient(pot, q)

        for tt in (0.25, 0.5, 0.75):
            rep = monge_ampere_residual(pot_grad, mu.atoms, tt, one, one, P)
            min_det = min(min_det, *(det for _, _, det, _ in rep.points))
    print(f"criterion 10: smallest semi-discrete det(dT_t) {min_det:.3e}")
    assert min_det > 0.0


def test_criterion_11_minkowski_lift_value():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 4 + seed % 5
        slope = rng.uniform(-0.6, 0.6)
        ts0 = np.sort(rng.uniform(0.0, 1.0, size=n))
        ts1 = np.sort(rng.uniform(3.0, 4.5, size=n))
        mu = DiscreteMeasure(
            tuple(GroupPoint(v, v * slope, 0.0) for v in ts0), np.full(n, 1.0 / n)
        )
        nu = DiscreteMeasure(
            tuple(GroupPoint(v, v * slope, 0.0) for v in ts1), np.full(n, 1.0 / n)
        )
        native, _ = solve_kantorovich(mu, nu, P)
        planar, _ = solve_minkowski(mu, nu, P)
        worst = max(worst, abs(planar.value - native.value))
    print(f"criterion 11: worst lifted-vs-native value deviation {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_12_partition_length_dyadic():
    arcs = [
        GeodesicArc(IDENTITY, FrameCovector(-1.0, 0.0, 1.0), 1.0),
        GeodesicArc(IDENTITY, FrameCovector(-1.5, 0.7, -0.8), 2.0),
        GeodesicArc(GroupPoint(0.3, -0.2, 0.1), FrameCovector(-0.8, 0.3, 0.4), 1.5),
        GeodesicArc(IDENTITY, FrameCovector(-2.0, 0.0, 0.0), 1.0),
        GeodesicArc(IDENTITY, FrameCovector(-1.1, -0.5, 1.4), 2.5),
    ]
    worst_final = 0.0
    worst_increase = -math.inf
    for arc in arcs:
        length = tau(arc.base, arc.point(arc.duration))
        prev = math.inf
        for k in range(1, 11):
            pts = [arc.point(arc.duration * i / 2**k) for i in range(2**k + 1)]
            total = tau_partition_length(pts)
            worst_increase = max(worst_increase, total - prev)
            prev = total
        worst_final = max(worst_final, abs(prev - length))
    print(
        f"criterion 12: worst refinement increase {worst_increase:.3e}, "
        f"worst final gap {worst_final:.3e}"
    )
    assert worst_increase <= 1e-12
    assert worst_final <= 1e-6
