"""Semi-discrete potentials, transport maps, interpolation, change of
variables."""

import math

import numpy as np
import pytest

from sublorentz.brenier import (
    MapSample,
    active_branch,
    backward_map_from_duals,
    brenier_map,
    interpolate,
    inverse_roundtrip_check,
    monge_ampere_residual,
    potential_from_duals,
    potential_gradient,
    transport_map_from_duals,
)
from sublorentz.causality import tau
from sublorentz.errors import (
    NondifferentiableAt,
    NotTimelikeGradient,
    OutOfDomain,
)
from sublorentz.geodesics import log_map
from sublorentz.heisenberg import (
    IDENTITY,
    FrameCovector,
    GroupPoint,
    energy,
    sup_distance,
)
from sublorentz.measures_io import sample_chronological_pair
from sublorentz.transport import (
    CostParams,
    DiscreteMeasure,
    cost_matrix,
    solve_kantorovich,
    strengthen_duals,
)

P = CostParams(0.5)


def _solved_instance(n, seed):
    mu, nu = sample_chronological_pair(n, n, seed=seed, weights="uniform")
    plan, _ = solve_kantorovich(mu, nu, P)
    cm = cost_matrix(mu, nu, P)
    duals = strengthen_duals(plan, cm)
    return mu, nu, plan, duals


def test_potential_value_and_active_branch():
    mu, nu, plan, duals = _solved_instance(4, seed=3)
    pot = potential_from_duals(duals, nu, P)
    x = mu.atoms[0]
    j = active_branch(pot, x)
    val = pot.psi[j] - P.gain(tau(x, nu.atoms[j]))
    assert val <= min(
        pot.psi[k] - P.gain(tau(x, y)) for k, y in enumerate(nu.atoms)
    ) + 1e-12


def test_potential_gradient_fd_matches_analytic():
    mu, nu, plan, duals = _solved_instance(5, seed=4)
    pot = potential_from_duals(duals, nu, P)
    for x in mu.atoms:
        try:
            g_fd = potential_gradient(pot, x, method="fd")
            g_an = potential_gradient(pot, x, method="analytic")
        except NondifferentiableAt:
            continue
        assert abs(g_fd.hX - g_an.hX) <= 1e-6
        assert abs(g_fd.hY - g_an.hY) <= 1e-6
        assert abs(g_fd.hZ - g_an.hZ) <= 1e-6


def test_brenier_map_reconstructs_geodesic_endpoint():
    # gradient of the single-branch potential at q is -T^(p-2) log(q, y);
    # the map must walk exactly back to y
    y = GroupPoint(2.0, 1.0, 0.0)
    lam = log_map(IDENTITY, y)
    t_sep = math.sqrt(2.0 * energy(lam))
    s = t_sep ** (P.p - 2.0)
    grad = FrameCovector(-s * lam.hX, -s * lam.hY, -s * lam.hZ)
    sample = brenier_map(IDENTITY, grad, P)
    assert sup_distance(sample.image, y) <= 1e-12
    assert math.sqrt(2.0 * energy(sample.covector)) == pytest.approx(t_sep, rel=1e-12)
    assert abs(sample.covector.hX - lam.hX) <= 1e-12


def test_brenier_map_rejects_non_timelike_gradients():
    with pytest.raises(NotTimelikeGradient):
        brenier_map(IDENTITY, FrameCovector(-1.0, 0.0, 0.0), P)  # future cone
    with pytest.raises(NotTimelikeGradient):
        brenier_map(IDENTITY, FrameCovector(1.0, 1.0, 0.0), P)  # null


def test_brenier_map_step_past_cosh_range_is_a_typed_error():
    # energy 0.005 at p = 0.5 scales the step by 1 / speed^3 = 1000, so the
    # exponential covector has |hZ| = 1000, past what cosh can represent
    with pytest.raises(OutOfDomain):
        brenier_map(IDENTITY, FrameCovector(0.1, 0.0, 1.0), P)


def test_forward_map_hits_plan_targets():
    mu, nu, plan, duals = _solved_instance(6, seed=7)
    pot = potential_from_duals(duals, nu, P)
    result = transport_map_from_duals(mu, pot, method="analytic")
    assignment = {i: j for i, j in plan.support()}
    for idx, sample in zip(result.mapped, result.samples):
        target = nu.atoms[assignment[idx]]
        assert sup_distance(sample.image, target) <= 1e-6


def test_forward_map_fd_agrees_with_analytic():
    mu, nu, plan, duals = _solved_instance(4, seed=12)
    pot = potential_from_duals(duals, nu, P)
    r_fd = transport_map_from_duals(mu, pot, method="fd")
    r_an = transport_map_from_duals(mu, pot, method="analytic")
    assert r_fd.mapped == r_an.mapped
    for a, b in zip(r_fd.samples, r_an.samples):
        assert sup_distance(a.image, b.image) <= 1e-5


def test_split_atom_is_skipped_not_guessed():
    # a single source splitting between two targets has a kinked potential
    mu = DiscreteMeasure((GroupPoint(0, 0, 0),), np.array([1.0]))
    nu = DiscreteMeasure(
        (GroupPoint(2.0, 0.5, 0.0), GroupPoint(2.0, -0.5, 0.0)),
        np.array([0.5, 0.5]),
    )
    plan, _ = solve_kantorovich(mu, nu, P)
    cm = cost_matrix(mu, nu, P)
    duals = strengthen_duals(plan, cm)
    pot = potential_from_duals(duals, nu, P)
    result = transport_map_from_duals(mu, pot)
    assert result.mapped == ()
    assert len(result.skipped) == 1
    assert "NondifferentiableAt" in result.skipped[0][1]
    with pytest.raises(NondifferentiableAt):
        potential_gradient(pot, mu.atoms[0])


def test_backward_map_skips_ties_and_targets_outside_the_domain():
    # two mirror-image sources merging into one target give the max-form
    # potential a kink there
    mu = DiscreteMeasure(
        (GroupPoint(0.0, 0.5, 0.0), GroupPoint(0.0, -0.5, 0.0)), np.array([0.5, 0.5])
    )
    nu = DiscreteMeasure((GroupPoint(2.0, 0.0, 0.0),), np.array([1.0]))
    plan, _ = solve_kantorovich(mu, nu, P)
    duals = strengthen_duals(plan, cost_matrix(mu, nu, P))
    result = backward_map_from_duals(nu, duals.phi, mu.atoms, P)
    assert result.mapped == ()
    assert len(result.skipped) == 1
    assert result.skipped[0][1].startswith("NondifferentiableAt: branches tie within")
    assert result.skipped[0][1].endswith("at target atom 0")
    # a target that does not lie after every source is outside the domain
    sources = (GroupPoint(0.0, 0.0, 0.0), GroupPoint(3.0, 0.0, 0.0))
    result = backward_map_from_duals(nu, [0.0, 0.0], sources, P)
    assert result.skipped == (
        (0, "DomainViolation: target atom 0 is not chronologically after source 1"),
    )


def test_backward_map_returns_to_sources():
    mu, nu, plan, duals = _solved_instance(5, seed=21)
    back = backward_map_from_duals(nu, duals.phi, mu.atoms, P)
    assignment = {j: i for i, j in plan.support()}
    for idx, sample in zip(back.mapped, back.samples):
        source = mu.atoms[assignment[idx]]
        assert sup_distance(sample.image, source) <= 1e-6


def test_roundtrip_forward_then_backward():
    mu, nu, plan, duals = _solved_instance(6, seed=30)
    pot = potential_from_duals(duals, nu, P)
    fwd = transport_map_from_duals(mu, pot, method="analytic")
    back = backward_map_from_duals(nu, duals.phi, mu.atoms, P)
    assert fwd.mapped and back.mapped
    assert inverse_roundtrip_check(fwd, back) <= 1e-6


def test_interpolation_runs_at_constant_speed():
    y = GroupPoint(2.5, 0.4, 0.3)
    lam = log_map(IDENTITY, y)
    t_sep = math.sqrt(2.0 * energy(lam))
    sample = MapSample(IDENTITY, y, lam)
    assert sup_distance(interpolate(sample, 0.0), IDENTITY) == 0.0
    assert sup_distance(interpolate(sample, 1.0), y) <= 1e-14
    for s, t in ((0.0, 0.5), (0.25, 0.75), (0.3, 1.0)):
        seg = tau(interpolate(sample, s), interpolate(sample, t))
        assert seg == pytest.approx((t - s) * t_sep, abs=1e-12)
    with pytest.raises(ValueError):
        interpolate(sample, 1.5)
    with pytest.raises(ValueError):
        interpolate(sample, -0.1)


def test_monge_ampere_translation_preserves_gaussian():
    # right translation by a planar chronological step is measure-preserving
    # for the pushed-forward density: det = 1 and residual ~ 0
    q0 = GroupPoint(1.0, 0.5, 0.0)
    lam = log_map(IDENTITY, q0)
    t_sep = math.sqrt(2.0 * energy(lam))
    scale = t_sep ** (P.p - 2.0)

    def grad_fn(q):
        lam_q = log_map(q, GroupPoint(q.x + q0.x, q.y + q0.y, q.z + 0.5 * (q.x * q0.y - q0.x * q.y)))
        return FrameCovector(-scale * lam_q.hX, -scale * lam_q.hY, -scale * lam_q.hZ)

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

    rng = np.random.default_rng(5)
    sources = [GroupPoint(*rng.uniform(-0.4, 0.4, size=3)) for _ in range(8)]
    report = monge_ampere_residual(grad_fn, sources, t, rho0, rhot, P)
    assert report.max_residual <= 1e-6
    for src, img, det, res in report.points:
        assert det == pytest.approx(1.0, abs=1e-6)


def test_monge_ampere_rejects_bad_time():
    with pytest.raises(ValueError):
        monge_ampere_residual(lambda q: None, [], 1.5, lambda q: 1.0, lambda q: 1.0, P)
