"""The verify layer's batched oracles give the same bits as their loops: the
Taylor oracle steps all flows as one array, and the suites draw their random
numbers in blocks instead of one Generator.uniform call per number.  The
Taylor oracle is no less accurate than the RK4 oracle it replaced, and stays
within its own tail bound.  A suite turns to FAIL when a check goes past its
bound."""

import itertools
import math
import sys

import numpy as np
import pytest

from sublorentz import causality, verify
from sublorentz.brenier import (
    MapSample,
    interpolate,
    monge_ampere_residual,
    potential_from_duals,
    transport_map_from_duals,
)
from sublorentz.causality import CausalRelation, classify, tau, tau_partition_length
from sublorentz.geodesics import GeodesicArc, exp_map, flow, log_map
from sublorentz.heisenberg import IDENTITY, FrameCovector, GroupPoint, energy, mul
from sublorentz.measures_io import sample_chronological_pair
from sublorentz.transport import (
    CostParams,
    DiscreteMeasure,
    cost_matrix,
    solve_cost_matrix,
    solve_kantorovich,
    strengthen_duals,
)
from sublorentz.verify import SuiteResult, _taylor_flows

from test_acceptance import criterion_02_flows


def _taylor_one(cov, t, steps):
    """The Taylor oracle's recurrence for one flow from the identity, in plain
    floats: the coefficients of each step order by order, then Horner in h."""
    hx0, hy0, hz = (float(v) for v in cov)
    order = verify._TAYLOR_ORDER
    h = t / steps
    state = [0.0, 0.0, 0.0, hx0, hy0]
    for _ in range(steps):
        x, y, z, hx, hy = ([v] for v in state)
        for k in range(order):
            x.append(-hx[k] / (k + 1))
            y.append(hy[k] / (k + 1))
            hx.append(hy[k] * -hz / (k + 1))
            hy.append(hx[k] * -hz / (k + 1))
        for k in range(order):
            dz = 0.0
            for j in range(k + 1):
                dz += hx[j] * y[k - j] + hy[j] * x[k - j]
            z.append(dz / (2.0 * (k + 1)))
        state = []
        for coefficients in (x, y, z, hx, hy):
            value = coefficients[order]
            for coefficient in coefficients[order - 1 :: -1]:
                value = value * h + coefficient
            state.append(value)
    return state


def _taylor_steps(covs, ts):
    """The oracle's step count: the least that gives every flow 2Ah <= R."""
    reach = max(2.0 * max(1.0, abs(w)) * t for w, t in zip(covs[:, 2], ts))
    return max(1, math.ceil(reach / verify._TAYLOR_REACH))


def _assert_taylor_matches_loop(covs, ts):
    batched = _taylor_flows(covs, ts)
    steps = _taylor_steps(covs, ts)
    looped = np.array([_taylor_one(cov, float(t), steps) for cov, t in zip(covs, ts)])
    assert batched.shape == (len(ts), 5)
    assert np.array_equal(batched, looped)
    return steps


def test_batched_taylor_is_bit_identical_to_per_flow_loop():
    rng = np.random.default_rng(7)
    covs = np.column_stack(
        [rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 5), rng.uniform(-1.5, 1.5, 5)]
    )
    ts = rng.uniform(0.2, 2.0, 5)
    assert _assert_taylor_matches_loop(covs, ts) > 1


@pytest.mark.parametrize("long", [False, True], ids=["one-step", "several-steps"])
@pytest.mark.parametrize("hz", [(0.0, 0.0), (-0.7, -1.3), (0.0, -1.1)])
@pytest.mark.parametrize("n", [1, 2])
def test_taylor_bit_identical_on_small_shapes(n, hz, long):
    # one and two flows, with hZ = 0 and hZ < 0, in one step and in several:
    # the shapes where the oracle's row views could go wrong
    rng = np.random.default_rng(11)
    covs = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), hz[:n]])
    ts = rng.uniform(0.2, 0.5, n) * (5.0 if long else 1.0)
    assert (_assert_taylor_matches_loop(covs, ts) > 1) == long


# The RK4 oracle that the Taylor oracle replaced, fixed-step with 8,000 steps,
# was 1.005e-12 off the 50-digit closed form on criterion 2's flows.
RK4_DEVIATION = 1.005e-12


def _mp_flow(mp, cov, t):
    """The closed-form flow from the identity at 50 digits, (x, y, z, hX, hY)."""
    a, b, w, t = (mp.mpf(float(v)) for v in (*cov, t))
    if w == 0:
        return -a * t, b * t, mp.mpf(0), a, b
    ch, sh = mp.cosh(w * t), mp.sinh(w * t)
    z = (a * a - b * b) * (sh - w * t) / (2 * w * w)
    return (b * (ch - 1) - a * sh) / w, (b * sh - a * (ch - 1)) / w, z, a * ch - b * sh, b * ch - a * sh


def test_taylor_oracle_is_no_less_accurate_than_rk4():
    mp = pytest.importorskip("mpmath")
    covs, ts = criterion_02_flows()
    state = _taylor_flows(covs, ts)
    with mp.workdps(50):
        worst = max(
            abs(mp.mpf(float(v)) - e)
            for cov, t, row in zip(covs, ts, state)
            for v, e in zip(row, _mp_flow(mp, cov, t))
        )
    assert worst <= RK4_DEVIATION
    print(f"Taylor oracle vs 50 digits: {float(worst):.3e}, RK4's {RK4_DEVIATION:.3e}")


def test_halving_the_step_moves_the_oracle_less_than_its_tail_bound(monkeypatch):
    # Each step drops less than 2^-53 B of tail (verify._taylor_flows), and
    # B along a flow is at most (1 + t) M (1 + M), M = (|hX| + |hY|) e^(|hZ| t):
    # |hX| + |hY| grows at most by the factor e^(|hZ| t) and |x| + |y| at most
    # by its integral.  So runs of S and 2S steps differ by less than
    # 3S 2^-53 B.
    order, reach = verify._TAYLOR_ORDER, verify._TAYLOR_REACH
    assert reach ** (order + 1) / math.factorial(order + 1) / (1 - reach / (order + 2)) < 2.0 ** -53
    covs, ts = criterion_02_flows()
    coarse, steps = _taylor_flows(covs, ts), _taylor_steps(covs, ts)
    monkeypatch.setattr(verify, "_TAYLOR_REACH", reach / 2)
    fine = _taylor_flows(covs, ts)
    assert _taylor_steps(covs, ts) == 2 * steps
    grown = (np.abs(covs[:, 0]) + np.abs(covs[:, 1])) * np.exp(np.abs(covs[:, 2]) * ts)
    bound = 3 * steps * 2.0 ** -53 * (1 + ts) * grown * (1 + grown)
    assert np.all(np.abs(fine - coarse).max(axis=1) < bound)


# -- the suites' draws, one Generator.uniform call per number ----------------


def _timelike_covector(rng):
    v = rng.uniform(-0.9, 0.9)
    u = -rng.uniform(abs(v) + 0.05, 2.0)
    w = rng.uniform(-1.5, 1.5)
    return FrameCovector(u, v, w)


def test_batched_draws_are_bit_identical_to_uniform_calls():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        looped = np.array([_timelike_covector(rng) for _ in range(400)])
        batched = np.array(verify._timelike_covectors(np.random.default_rng(seed).random((400, 3))))
        assert np.array_equal(batched, looped)
        rng = np.random.default_rng(seed)
        looped = np.array([[rng.uniform(-1, 3), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)] for _ in range(400)])
        u = np.random.default_rng(seed).random((400, 3))
        assert np.array_equal(np.array(verify._points(u, (-1.0, -1.0, -0.5), (3.0, 1.0, 0.5))), looped)


# The seven suites as they were written with scalar draws.


def _flow_vs_ode(seed):
    rng = np.random.default_rng(seed)
    n = 60
    covs = np.empty((n, 3))
    ts = np.empty(n)
    for k in range(n):
        covs[k] = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1.5, 1.5)
        ts[k] = rng.uniform(0.2, 2.0)
    exact = []
    for cov, t in zip(covs, ts):
        point, (hx, hy, _) = flow(IDENTITY, FrameCovector(*cov), t)
        exact.append([*point, hx, hy])
    worst = float(np.abs(np.array(exact) - _taylor_flows(covs, ts)).max())
    return SuiteResult("flow-vs-ode", worst <= 1e-8, f"sup deviation {worst:.3e} over {n} flows")


def _tau_consistency(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(500):
        cov = _timelike_covector(rng)
        q = exp_map(IDENTITY, cov)
        worst = max(worst, abs(tau(IDENTITY, q) - math.sqrt(2.0 * energy(cov))))
    frozen = abs(tau(IDENTITY, GroupPoint(2.0, 1.0, 0.0)) - math.sqrt(3.0))
    ok = worst <= 1e-9 and frozen <= 1e-12
    return SuiteResult(
        "tau-consistency", ok, f"sup deviation {worst:.3e}; planar fixture {frozen:.3e}"
    )


def _reverse_triangle(seed):
    rng = np.random.default_rng(seed)
    n = 2000
    worst = 0.0
    for _ in range(n):
        a = GroupPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        b = mul(a, exp_map(IDENTITY, _timelike_covector(rng)))
        c = mul(b, exp_map(IDENTITY, _timelike_covector(rng)))
        worst = max(worst, tau(a, b) + tau(b, c) - tau(a, c))
    return SuiteResult(
        "reverse-triangle", worst <= 1e-10, f"worst violation {worst:.3e} over {n} chains"
    )


def _planar_bound(seed):
    rng = np.random.default_rng(seed)
    n = 2000
    worst = 0.0
    checked = 0
    while checked < n:
        a = GroupPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        b = GroupPoint(rng.uniform(-1, 3), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        if classify(a, b) is not CausalRelation.CHRONOLOGICAL:
            continue
        checked += 1
        planar = math.sqrt(max((b.x - a.x) ** 2 - (b.y - a.y) ** 2, 0.0))
        worst = max(worst, tau(a, b) - planar)
    return SuiteResult(
        "planar-bound", worst <= 1e-10, f"worst excess {worst:.3e} over {n} pairs"
    )


def _interpolation(seed):
    rng = np.random.default_rng(seed)
    params = CostParams(0.5)
    worst_point = 0.0
    for _ in range(200):
        cov = _timelike_covector(rng)
        q = GroupPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
        sample = MapSample(q, exp_map(q, cov), cov)
        s, t = sorted(rng.uniform(0.0, 1.0, 2))
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
            ps, _ = solve_kantorovich(mus, mut, params)
            ell_st = (params.p * ps.value) ** (1.0 / params.p)
            worst_measure = max(worst_measure, abs(ell_st - (t - s) * ell))
    ok = worst_point <= 1e-9 and worst_measure <= 1e-6
    return SuiteResult(
        "displacement-interpolation",
        ok,
        f"pointwise {worst_point:.3e}; measure-level {worst_measure:.3e}",
    )


def _partition_length(seed):
    rng = np.random.default_rng(seed)
    rise = -math.inf
    worst = 0.0
    for _ in range(5):
        cov = _timelike_covector(rng)
        arc = GeodesicArc(IDENTITY, cov, 1.0)
        length = math.sqrt(2.0 * energy(cov))
        prev = math.inf
        final = 0.0
        for k in (2, 8, 64, 1024):
            pts = [arc.point(j / k) for j in range(k + 1)]
            total = tau_partition_length(pts)
            rise = max(rise, total - prev)
            prev = total
            final = total
        worst = max(worst, abs(final - length))
    return SuiteResult(
        "partition-length",
        rise <= 1e-12 and worst <= 1e-6,
        f"largest refinement rise {rise:.3e}; finest-partition length error {worst:.3e}",
    )


def _monge_ampere(seed):
    rng = np.random.default_rng(seed)
    params = CostParams(0.5)
    q0 = GroupPoint(1.0, 0.5, 0.0)
    t0 = tau(IDENTITY, q0)
    scale = t0 ** (params.p - 2.0)
    lam = log_map(IDENTITY, q0)

    def grad_translation(q):
        return FrameCovector(-scale * lam.hX, -scale * lam.hY, -scale * lam.hZ)

    def rho0(q):
        return math.exp(-(q.x * q.x + q.y * q.y + q.z * q.z))

    t = 0.5
    shift = GroupPoint(-t * q0.x, -t * q0.y, 0.0)

    def rhot(q):
        return rho0(mul(q, shift))

    sources = [
        GroupPoint(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        for _ in range(12)
    ]
    report = monge_ampere_residual(grad_translation, sources, t, rho0, rhot, params)
    worst_det = max(abs(det - 1.0) for _, _, det, _ in report.points)
    ok = report.max_residual <= 1e-6 and worst_det <= 1e-6
    return SuiteResult(
        "monge-ampere",
        ok,
        f"residual {report.max_residual:.3e}; |det - 1| {worst_det:.3e}",
    )


SUITES = [
    (verify.suite_flow_vs_ode, _flow_vs_ode),
    (verify.suite_tau_consistency, _tau_consistency),
    (verify.suite_reverse_triangle, _reverse_triangle),
    (verify.suite_planar_bound, _planar_bound),
    (verify.suite_interpolation, _interpolation),
    (verify.suite_partition_length, _partition_length),
    (verify.suite_monge_ampere, _monge_ampere),
]


@pytest.mark.parametrize("seed", range(6))
def test_batched_suites_match_scalar_draw_loops(seed, monkeypatch):
    # Besides the results, compare every pair the suites pass to tau and
    # every input they pass to the Taylor oracle: the details print 4 digits,
    # and some read 0 whatever the draws are.  Equal inputs give equal
    # states, so each is integrated once.
    calls = []
    states = {}

    def recording(a, b, tau=causality.tau):
        calls.append((a, b))
        return tau(a, b)

    def recording_oracle(covs, ts, oracle=_taylor_flows):
        key = (covs.tobytes(), ts.tobytes())
        calls.append(key)
        if key not in states:
            states[key] = oracle(covs, ts)
        return states[key]

    for module in (causality, verify, sys.modules[__name__]):
        monkeypatch.setattr(module, "tau", recording)
    for module in (verify, sys.modules[__name__]):
        monkeypatch.setattr(module, "_taylor_flows", recording_oracle)
    for batched, looped in SUITES:
        calls.clear()
        result = batched(seed)
        batched_calls = list(calls)
        calls.clear()
        assert result == looped(seed)
        assert batched_calls == calls


def test_result_passes_at_its_bound_only():
    # a value equal to its bound passes; one ulp above it, or nan, fails
    bound = 1e-9
    assert verify._result("s", [("a", bound, bound)]) == SuiteResult("s", True, "a 1.000e-09")
    assert not verify._result("s", [("a", math.nextafter(bound, math.inf), bound)]).passed
    assert not verify._result("s", [("a", 0.0, bound), ("b", math.nan, bound)]).passed
    result = verify._result("s", [("gap", 0.0, 1e-9), ("|det - 1|", 2.5e-7, 1e-6)], " over 5 points")
    assert result == SuiteResult("s", True, "gap 0.000e+00; |det - 1| 2.500e-07 over 5 points")


@pytest.mark.parametrize("seed, deviation", [
    (0, "1.509e-12"), (1, "5.291e-13"), (2, "9.315e-12"), (3, "4.940e-13"), (4, "9.359e-13"), (5, "9.506e-13"),
])
def test_exp_log_roundtrip_detail_is_frozen(seed, deviation):
    result = verify.suite_exp_log_roundtrip(seed)
    assert result == SuiteResult("exp-log-roundtrip", True, f"sup deviation {deviation} over 2000 points")


def test_right_translation_fails_on_one_disagreeing_verdict(monkeypatch):
    # the suite counts the generator's verdicts; one that disagrees with its
    # predicate turns the line to FAIL
    drawn = []

    def one_disagrees(seed, draw=verify.seeded_verdict_instance):
        mu, q0, verdict = draw(seed)
        drawn.append(seed)
        return mu, q0, verdict._replace(optimal=not verdict.optimal) if seed == 13 else verdict

    monkeypatch.setattr(verify, "seeded_verdict_instance", one_disagrees)
    result = verify.suite_right_translation(3)
    assert result == SuiteResult("right-translation", False, "disagreements 1.000e+00 of 20 instances")
    assert drawn == list(range(3, 23))


def test_partition_length_fails_on_a_refinement_rise(monkeypatch):
    # one refined sum raised by 3e-12 rises above its coarser sum by more than
    # the 1e-12 allowed; the finest sums, and so the length error, stay put
    passing = verify.suite_partition_length(0)
    calls = itertools.count()

    def raised(points, length=verify.tau_partition_length):
        return length(points) + (3e-12 if next(calls) == 6 else 0.0)  # the second arc's 64-piece sum

    monkeypatch.setattr(verify, "tau_partition_length", raised)
    result = verify.suite_partition_length(0)
    rise, error = result.detail.split("; ")
    assert (result.passed, error) == (False, passing.detail.split("; ")[1])
    assert float(rise.removeprefix("largest refinement rise ")) == pytest.approx(3e-12, abs=1e-14)
    assert next(calls) == 20
