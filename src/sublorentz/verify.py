"""Self-check suites: seeded, desk-scale versions of the library's core
properties.  Each suite returns a SuiteResult; run_suites collects them all.

They are wired to the `verify` CLI subcommand, so an installation can
certify itself without the development test tree; the whole command takes
about 0.29 s pinned to one vCPU of a shared 2-vCPU VM (median of 20 runs, 2026-10-21).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .brenier import (
    MapSample,
    backward_map_from_duals,
    interpolate,
    inverse_roundtrip_check,
    monge_ampere_residual,
    potential_from_duals,
    transport_map_from_duals,
)
from .causality import classify_array, minkowski_tau, tau, tau_partition_length
from .geodesics import GeodesicArc, exp_map, flow, log_map
from .heisenberg import (
    IDENTITY,
    FrameCovector,
    GroupPoint,
    energy,
    mul,
    sup_distance,
)
from .measures_io import sample_chronological_pair, sample_diamond
from .minkowski import seeded_verdict_instance, solve_minkowski
from .transport import (
    CostParams,
    DiscreteMeasure,
    brute_force_plan,
    check_cyclical_monotonicity,
    cost_matrix,
    duality_gap,
    lorentz_wasserstein,
    solve_cost_matrix,
    solve_kantorovich,
    strengthen_duals,
)


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _result(name, checks, note="") -> SuiteResult:
    """PASS when every (label, value, bound) check has value <= bound (so a
    nan fails); the detail prints each value as label and .3e, then note."""
    passed = all(value <= bound for _, value, bound in checks)
    return SuiteResult(name, passed, "; ".join(f"{label} {value:.3e}" for label, value, _ in checks) + note)


# The suites draw their inputs as blocks of Generator.random() and map them
# as Generator.uniform(low, high) does, low + (high - low) * u.  That is the
# same float as one uniform call per number, in the same order, and saves
# the cost of a call per number.


def _uniform(u, low, high):
    """Generator.uniform(low, high) at the draws u, bit for bit."""
    return low + (high - low) * u


def _timelike_covectors(u) -> list:
    """One future timelike FrameCovector per row of three draws: hY in
    (-0.9, 0.9), -hX in (|hY| + 0.05, 2), hZ in (-1.5, 1.5)."""
    v = _uniform(u[:, 0], -0.9, 0.9)
    hx = -_uniform(u[:, 1], np.abs(v) + 0.05, 2.0)
    w = _uniform(u[:, 2], -1.5, 1.5)
    return [FrameCovector(*c) for c in zip(hx.tolist(), v.tolist(), w.tolist())]


def _points(u, low, high) -> list:
    """One GroupPoint per row of three draws, uniform in the box [low, high)."""
    return [GroupPoint(*p) for p in _uniform(u, np.array(low, float), np.array(high, float)).tolist()]


_BOX = ((-1.0, -1.0, -0.5), (1.0, 1.0, 0.5))
_TAYLOR_ORDER, _TAYLOR_REACH = 20, 1.5  # N and R of _taylor_flows


def _taylor_flows(covs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Final (n, 5) states (x, y, z, hX, hY) of the flows from the identity
    with covectors covs (n, 3) for times ts, by Taylor series of the equations
    x' = -hX, y' = hY, z' = (hX y + hY x)/2, hX' = -hZ hY and hY' = -hZ hX:
    independent of the closed form in geodesics.flow, which they cross-check.

    Each step takes the coefficients c[k] from (k + 1) c[k + 1] = the k-th one
    of the right-hand side (for z a Cauchy product, summed in order) and adds
    them up by Horner in h.  Tail bound: with A = max(1, |hZ|), m = |hX| + |hY|
    and B = (|x| + |y| + m)(1 + m) at a step's start, c[k] is at most
    B (2A)^k / k! for k >= 1, so if 2Ah <= R the terms past order N sum to at
    most B R^(N+1) / (N+1)! / (1 - R/(N+2)) < 2^-53 B for N = 20, R = 1.5.
    The step count is the least that gives every flow 2Ah <= R.
    """
    order = _TAYLOR_ORDER
    steps = max(1, math.ceil(float(np.max(2.0 * np.maximum(1.0, np.abs(covs[:, 2])) * ts)) / _TAYLOR_REACH))
    h = ts / steps
    g = np.stack(np.broadcast_arrays(-1.0, 1.0, -covs[:, 2], -covs[:, 2]))  # slopes of x, y, hX, hY
    c = np.zeros((order + 1, 5, len(ts)))
    c[0, 3:] = covs[:, :2].T
    for _ in range(steps):
        for k in range(order):
            c[k + 1, [0, 1, 3, 4]] = c[k, [3, 4, 4, 3]] * g / (k + 1)
        dz = np.zeros(c[1:, 2].shape)  # row k: the k-th coefficient of hX y + hY x
        for j in range(order):
            dz[j:] += c[j, 3] * c[: order - j, 1] + c[j, 4] * c[: order - j, 0]
        c[1:, 2] = dz / (2.0 * np.arange(1.0, order + 1.0))[:, None]
        state = c[order]
        for coefficient in c[order - 1 :: -1]:
            state = state * h + coefficient
        c[0] = state
    return state.T


def suite_exp_log_roundtrip(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    n = 2000
    base = GroupPoint(0.3, -0.2, 0.1)
    apex = mul(base, GroupPoint(2.0, 0.0, 0.0))
    worst = 0.0
    for q in sample_diamond(base, apex, n, rng):
        back = exp_map(base, log_map(base, q))
        worst = max(worst, sup_distance(q, back))
    return _result("exp-log-roundtrip", [("sup deviation", worst, 1e-9)], f" over {n} points")


def suite_flow_vs_ode(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    n = 60
    u = rng.random((n, 4))
    covs = _uniform(u[:, :3], np.array((-2.0, -2.0, -1.5)), np.array((2.0, 2.0, 1.5)))
    ts = _uniform(u[:, 3], 0.2, 2.0)
    exact = []
    for cov, t in zip(covs, ts):
        point, (hx, hy, _) = flow(IDENTITY, FrameCovector(*cov), t)
        exact.append([*point, hx, hy])
    worst = float(np.abs(np.array(exact) - _taylor_flows(covs, ts)).max())
    return _result("flow-vs-ode", [("sup deviation", worst, 1e-8)], f" over {n} flows")


def suite_tau_consistency(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for cov in _timelike_covectors(rng.random((500, 3))):
        q = exp_map(IDENTITY, cov)
        worst = max(worst, abs(tau(IDENTITY, q) - math.sqrt(2.0 * energy(cov))))
    frozen = abs(tau(IDENTITY, GroupPoint(2.0, 1.0, 0.0)) - math.sqrt(3.0))
    return _result("tau-consistency", [("sup deviation", worst, 1e-9), ("planar fixture", frozen, 1e-12)])


def suite_reverse_triangle(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    n = 2000
    worst = 0.0
    u = rng.random((n, 9))
    legs = zip(_points(u[:, :3], *_BOX), _timelike_covectors(u[:, 3:6]), _timelike_covectors(u[:, 6:]))
    for a, ab, bc in legs:
        b = mul(a, exp_map(IDENTITY, ab))
        c = mul(b, exp_map(IDENTITY, bc))
        worst = max(worst, tau(a, b) + tau(b, c) - tau(a, c))
    return _result("reverse-triangle", [("worst violation", worst, 1e-10)], f" over {n} chains")


def suite_planar_bound(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    n = 2000
    worst = 0.0
    checked = 0
    low, high = np.array((_BOX[0], (-1.0, -1.0, -0.5))), np.array((_BOX[1], (3.0, 1.0, 0.5)))
    while checked < n:
        # about a third of the pairs are chronological, so about three blocks
        u = rng.random((n, 2, 3))
        ab = _uniform(u, low, high)
        ab = ab[classify_array(ab[:, 0], ab[:, 1])[0]][: n - checked]
        checked += len(ab)
        for p, q in ab.tolist():
            a, b = GroupPoint(*p), GroupPoint(*q)
            worst = max(worst, tau(a, b) - minkowski_tau(a, b))
    return _result("planar-bound", [("worst excess", worst, 1e-10)], f" over {n} pairs")


def suite_lp_duality(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    params = CostParams(0.5)
    worst_gap = 0.0
    worst_cm = 0.0
    worst_bf = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        mu, nu = sample_chronological_pair(n, m, seed=int(rng.integers(1 << 30)), weights="random")
        cm = cost_matrix(mu, nu, params)
        plan, duals = solve_cost_matrix(cm, mu.weights, nu.weights)
        worst_gap = max(worst_gap, abs(duality_gap(plan, duals, mu, nu, cm)))
        report = check_cyclical_monotonicity(plan, cm, max_cycle=4)
        worst_cm = max(worst_cm, report.worst_violation)
        if n == m and n <= 5:
            uni, nun = sample_chronological_pair(n, n, seed=int(rng.integers(1 << 30)))
            p2, _ = solve_kantorovich(uni, nun, params)
            bf = brute_force_plan(uni, nun, params)
            worst_bf = max(worst_bf, abs(p2.value - bf.value))
    return _result("lp-duality", [
        ("gap", worst_gap, 1e-9), ("monotonicity violation", worst_cm, 1e-9), ("brute-force diff", worst_bf, 1e-9),
    ])


def suite_brenier_roundtrip(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    params = CostParams(0.5)
    worst_target = 0.0
    worst_round = 0.0
    for _ in range(4):
        n = int(rng.integers(4, 7))
        mu, nu = sample_chronological_pair(n, n, seed=int(rng.integers(1 << 30)))
        cm = cost_matrix(mu, nu, params)
        plan, _ = solve_cost_matrix(cm, mu.weights, nu.weights)
        duals = strengthen_duals(plan, cm)
        pot = potential_from_duals(duals, nu, params)
        fwd = transport_map_from_duals(mu, pot, cm)
        assigned = {i: j for i, j in plan.support()}
        for i, s in zip(fwd.mapped, fwd.samples):
            worst_target = max(worst_target, sup_distance(s.image, nu.atoms[assigned[i]]))
        bwd = backward_map_from_duals(nu, duals.phi, mu.atoms, params, cm)
        worst_round = max(worst_round, inverse_roundtrip_check(fwd, bwd))
    checks = [("map-vs-plan", worst_target, 1e-6), ("forward/backward", worst_round, 1e-6)]
    return _result("brenier-roundtrip", checks)


def suite_interpolation(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    params = CostParams(0.5)
    worst_point = 0.0
    u = rng.random((200, 8))
    rides = zip(
        _timelike_covectors(u[:, :3]),
        _points(u[:, 3:6], (-1.0, -1.0, -0.3), (1.0, 1.0, 0.3)),
        _uniform(u[:, 6:], 0.0, 1.0).tolist(),
    )
    for cov, q, times in rides:
        sample = MapSample(q, exp_map(q, cov), cov)
        s, t = sorted(times)
        qs, qt = interpolate(sample, s), interpolate(sample, t)
        expect = (t - s) * tau(sample.source, sample.image)
        worst_point = max(worst_point, abs(tau(qs, qt) - expect))
    mu, nu = sample_chronological_pair(5, 5, seed=seed + 1)
    cm = cost_matrix(mu, nu, params)
    plan, _ = solve_cost_matrix(cm, mu.weights, nu.weights)
    duals = strengthen_duals(plan, cm)
    pot = potential_from_duals(duals, nu, params)
    fwd = transport_map_from_duals(mu, pot, cm)
    worst_measure = 0.0
    if len(fwd.mapped) == len(mu.atoms):
        ell = (params.p * plan.value) ** (1.0 / params.p)
        for s, t in ((0.0, 0.5), (0.25, 0.75), (0.5, 1.0)):
            mus = DiscreteMeasure([interpolate(x, s) for x in fwd.samples], mu.weights)
            mut = DiscreteMeasure([interpolate(x, t) for x in fwd.samples], mu.weights)
            ell_st = lorentz_wasserstein(mus, mut, params)
            worst_measure = max(worst_measure, abs(ell_st - (t - s) * ell))
    checks = [("pointwise", worst_point, 1e-9), ("measure-level", worst_measure, 1e-6)]
    return _result("displacement-interpolation", checks)


def suite_right_translation(seed: int) -> SuiteResult:
    instances = 20
    agreed = sum(seeded_verdict_instance(seed + k)[2].agrees for k in range(instances))
    return _result("right-translation", [("disagreements", instances - agreed, 0)], f" of {instances} instances")


def suite_monge_ampere(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    params = CostParams(0.5)
    q0 = GroupPoint(1.0, 0.5, 0.0)
    t0 = tau(IDENTITY, q0)
    scale = t0 ** (params.p - 2.0)
    lam = log_map(IDENTITY, q0)

    # constant potential gradient whose Brenier map is q -> q * q0: the
    # frame components of the geodesic covector do not depend on the base
    def grad_translation(q: GroupPoint) -> FrameCovector:
        return FrameCovector(-scale * lam.hX, -scale * lam.hY, -scale * lam.hZ)

    def rho0(q: GroupPoint) -> float:
        return math.exp(-(q.x * q.x + q.y * q.y + q.z * q.z))

    t = 0.5
    shift = GroupPoint(-t * q0.x, -t * q0.y, 0.0)

    def rhot(q: GroupPoint) -> float:
        return rho0(mul(q, shift))

    sources = _points(rng.random((12, 3)), (-0.5, -0.5, -0.3), (0.5, 0.5, 0.3))
    report = monge_ampere_residual(grad_translation, sources, t, rho0, rhot, params)
    worst_det = max(abs(det - 1.0) for _, _, det, _ in report.points)
    return _result("monge-ampere", [("residual", report.max_residual, 1e-6), ("|det - 1|", worst_det, 1e-6)])


def suite_minkowski_lift(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    params = CostParams(0.5)
    worst = 0.0
    for _ in range(10):
        slope = _uniform(rng.random(), -0.6, 0.6)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        ts = np.sort(_uniform(rng.random(n), 0.0, 1.0))
        ss = np.sort(_uniform(rng.random(m), 2.0, 3.5))
        wa = rng.random(n) + 0.1
        wa /= wa.sum()
        wb = rng.random(m) + 0.1
        wb /= wb.sum()
        native_mu = DiscreteMeasure([GroupPoint(t, t * slope, 0.0) for t in ts], wa)
        native_nu = DiscreteMeasure([GroupPoint(s, s * slope, 0.0) for s in ss], wb)
        planar, _ = solve_minkowski(native_mu, native_nu, params)
        native, _ = solve_kantorovich(native_mu, native_nu, params)
        worst = max(worst, abs(planar.value - native.value))
    return _result("minkowski-lift", [("planar-vs-native value diff", worst, 1e-9)])


def suite_partition_length(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    rise, worst = -math.inf, 0.0
    for cov in _timelike_covectors(rng.random((5, 3))):
        arc = GeodesicArc(IDENTITY, cov, 1.0)
        sums = [tau_partition_length([arc.point(j / k) for j in range(k + 1)]) for k in (2, 8, 64, 1024)]
        rise = max(rise, *(fine - coarse for coarse, fine in zip(sums, sums[1:])))
        worst = max(worst, abs(sums[-1] - math.sqrt(2.0 * energy(cov))))
    checks = [("largest refinement rise", rise, 1e-12), ("finest-partition length error", worst, 1e-6)]
    return _result("partition-length", checks)


def run_suites(seed: int):
    """All self-check suites, seeded."""
    return [
        suite_exp_log_roundtrip(seed),
        suite_flow_vs_ode(seed + 1),
        suite_tau_consistency(seed + 2),
        suite_reverse_triangle(seed + 3),
        suite_planar_bound(seed + 4),
        suite_lp_duality(seed + 5),
        suite_brenier_roundtrip(seed + 6),
        suite_interpolation(seed + 7),
        suite_right_translation(2 * seed + 1),
        suite_monge_ampere(seed + 8),
        suite_minkowski_lift(seed + 9),
        suite_partition_length(seed + 10),
    ]
