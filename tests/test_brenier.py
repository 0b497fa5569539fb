"""Semi-discrete potentials, transport maps, interpolation, change of
variables."""

import math
import re

import numpy as np
import pytest

from sublorentz.brenier import (
    MapSample,
    SemiDiscretePotential,
    TransportMapResult,
    _central_diff,
    _map_atoms,
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
from sublorentz.causality import CausalRelation, classify, tau
from sublorentz.errors import (
    DomainViolation,
    NondifferentiableAt,
    NotTimelikeGradient,
    OutOfDomain,
    SingularJacobian,
)
from sublorentz.geodesics import log_map
from sublorentz.heisenberg import (
    IDENTITY,
    CoordCovector,
    FrameCovector,
    GroupPoint,
    coord_to_frame,
    energy,
    sup_distance,
)
from sublorentz.measures_io import sample_chronological_pair
from sublorentz.transport import (
    CostMatrix,
    CostParams,
    DiscreteMeasure,
    cost_matrix,
    solve_cost_matrix,
    solve_kantorovich,
    strengthen_duals,
)

P = CostParams(0.5)


def fd_gradient(pot, q):
    """Finite-difference oracle for potential_gradient: central differences
    of the active branch psi_j - gain(tau(., y_j)) in exponential
    coordinates, converted to frame components."""
    j = active_branch(pot, q)
    psi_j, y = float(pot.psi[j]), pot.target_atoms[j]

    def branch(point):
        return psi_j - pot.params.gain(tau(point, y))

    return coord_to_frame(q, CoordCovector(*_central_diff(branch, q).tolist()))


def fd_transport_map(mu, pot):
    """transport_map_from_duals with the gradient of fd_gradient: brenier_map
    of the oracle's gradient at every source atom, with the same skips."""
    return _map_atoms(mu.atoms, lambda i, x: brenier_map(x, fd_gradient(pot, x), pot.params))


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
            g_fd = fd_gradient(pot, x)
            g_an = potential_gradient(pot, x)
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
    result = transport_map_from_duals(mu, pot, cost_matrix(mu, nu, P))
    assignment = {i: j for i, j in plan.support()}
    for idx, sample in zip(result.mapped, result.samples):
        target = nu.atoms[assignment[idx]]
        assert sup_distance(sample.image, target) <= 1e-6


def test_forward_map_fd_agrees_with_analytic():
    mu, nu, plan, duals = _solved_instance(4, seed=12)
    pot = potential_from_duals(duals, nu, P)
    r_fd = fd_transport_map(mu, pot)
    r_an = transport_map_from_duals(mu, pot, cost_matrix(mu, nu, P))
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
    result = transport_map_from_duals(mu, pot, cm)
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
    result = backward_map_from_duals(nu, duals.phi, mu.atoms, P, cost_matrix(mu, nu, P))
    assert result.mapped == ()
    assert len(result.skipped) == 1
    assert result.skipped[0][1].startswith("NondifferentiableAt: branches tie within")
    assert result.skipped[0][1].endswith("at target atom 0")
    # a target that does not lie after every source is outside the domain
    sources = (GroupPoint(0.0, 0.0, 0.0), GroupPoint(3.0, 0.0, 0.0))
    cm = cost_matrix(DiscreteMeasure(sources, np.array([0.5, 0.5])), nu, P)
    result = backward_map_from_duals(nu, [0.0, 0.0], sources, P, cm)
    assert result.skipped == (
        (0, "DomainViolation: target atom 0 is not chronologically after source 1"),
    )


def test_backward_map_returns_to_sources():
    mu, nu, plan, duals = _solved_instance(5, seed=21)
    back = backward_map_from_duals(nu, duals.phi, mu.atoms, P, cost_matrix(mu, nu, P))
    assignment = {j: i for i, j in plan.support()}
    for idx, sample in zip(back.mapped, back.samples):
        source = mu.atoms[assignment[idx]]
        assert sup_distance(sample.image, source) <= 1e-6


def test_roundtrip_forward_then_backward():
    mu, nu, plan, duals = _solved_instance(6, seed=30)
    pot = potential_from_duals(duals, nu, P)
    cm = cost_matrix(mu, nu, P)
    fwd = transport_map_from_duals(mu, pot, cm)
    back = backward_map_from_duals(nu, duals.phi, mu.atoms, P, cm)
    assert fwd.mapped and back.mapped
    assert inverse_roundtrip_check(fwd, back) <= 1e-6


def _scalar_cost(sources, targets):
    """The branch gains as the maps once computed them for themselves: one
    scalar classify and tau call per pair, zero off the chronological pairs."""
    values = np.zeros((len(sources), len(targets)))
    for i, x in enumerate(sources):
        for j, y in enumerate(targets):
            if classify(x, y) is CausalRelation.CHRONOLOGICAL:
                values[i, j] = P.gain(tau(x, y))
    return CostMatrix(values, values > 0.0)


@pytest.mark.parametrize("n", [6, 30, 100])
def test_maps_off_the_cost_matrix_match_the_scalar_branch_table(n):
    # the gains cost_matrix broadcasts pick the same branches as scalar
    # ones; only the printed tie margins may differ in their last digits
    def masked(result):
        return [(k, re.sub(r"within \S+ at", "within # at", reason)) for k, reason in result.skipped]

    for seed in range(2):
        for weights in ("uniform", "random"):
            mu, nu = sample_chronological_pair(n, n, seed=seed, weights=weights)
            cm = cost_matrix(mu, nu, P)
            plan, _ = solve_cost_matrix(cm, mu.weights, nu.weights)
            duals = strengthen_duals(plan, cm)
            pot = potential_from_duals(duals, nu, P)
            ref = _scalar_cost(mu.atoms, nu.atoms)
            for build in (
                lambda cost: transport_map_from_duals(mu, pot, cost),
                lambda cost: backward_map_from_duals(nu, duals.phi, mu.atoms, P, cost),
            ):
                got, want = build(cm), build(ref)
                assert got.mapped == want.mapped
                assert got.samples == want.samples
                assert masked(got) == masked(want)


def test_maps_check_the_domain_and_the_cost_matrix_shape():
    mu = DiscreteMeasure((GroupPoint(0.0, 0.0, 0.0), GroupPoint(3.0, 0.0, 0.0)), np.array([0.5, 0.5]))
    nu = DiscreteMeasure((GroupPoint(2.0, 0.0, 0.0),), np.array([1.0]))
    pot = SemiDiscretePotential(nu.atoms, np.zeros(1), P)
    result = transport_map_from_duals(mu, pot, cost_matrix(mu, nu, P))
    reason = "GroupPoint(x=3.0, y=0.0, z=0.0) does not chronologically precede target atom 0"
    assert result.mapped == (0,)
    assert result.skipped == ((1, "DomainViolation: " + reason),)
    with pytest.raises(DomainViolation, match=re.escape(reason)):
        potential_gradient(pot, mu.atoms[1])
    with pytest.raises(ValueError):
        transport_map_from_duals(mu, pot, cost_matrix(nu, nu, P))
    with pytest.raises(ValueError):
        backward_map_from_duals(nu, [0.0, 0.0], mu.atoms, P, cost_matrix(nu, mu, P))


@pytest.mark.parametrize("lam", [1e-12, 1e-16, 1e40, 1e100])
def test_dilated_maps_keep_every_atom(lam):
    # delta_lam scales every gain and potential by lam^p; with an absolute
    # tie tolerance of 1e-9 the forward map kept 2 and the backward map 1 of
    # these 6 atoms at lam = 1e-12, and none at 1e-16; with an absolute cap
    # on the dual margin, 4 and 1 at lam = 1e40, and 2 and 1 at 1e100
    def dilate(measure):
        atoms = tuple(GroupPoint(lam * q.x, lam * q.y, lam * lam * q.z) for q in measure.atoms)
        return DiscreteMeasure(atoms, measure.weights)

    mu, nu = map(dilate, sample_chronological_pair(6, 6, seed=3, weights="uniform"))
    cm = cost_matrix(mu, nu, P)
    plan, _ = solve_cost_matrix(cm, mu.weights, nu.weights)
    duals = strengthen_duals(plan, cm)
    fwd = transport_map_from_duals(mu, potential_from_duals(duals, nu, P), cm)
    back = backward_map_from_duals(nu, duals.phi, mu.atoms, P, cm)
    assert len(fwd.mapped) == len(back.mapped) == 6
    assignment = dict(plan.support())
    bound = 1e-6 * max(lam, lam * lam)  # z carries lam^2
    for idx, sample in zip(fwd.mapped, fwd.samples):
        assert sup_distance(sample.image, nu.atoms[assignment[idx]]) <= bound
    assert inverse_roundtrip_check(fwd, back) <= bound


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


def test_roundtrip_check_is_inf_on_an_empty_backward_map():
    sample = MapSample(IDENTITY, GroupPoint(2.0, 0.0, 0.0), log_map(IDENTITY, GroupPoint(2.0, 0.0, 0.0)))
    forward = TransportMapResult((sample,), (0,), ())
    assert inverse_roundtrip_check(forward, TransportMapResult((), (), ((0, "skipped"),))) == math.inf
    assert inverse_roundtrip_check(TransportMapResult((), (), ()), TransportMapResult((), (), ())) == 0.0


def test_monge_ampere_raises_on_a_singular_jacobian():
    # one target atom: the map at t = 1 sends every point to it, so its
    # Jacobian vanishes up to roundoff
    pot = SemiDiscretePotential((GroupPoint(2.0, 0.0, 0.0),), np.zeros(1), P)
    with pytest.raises(SingularJacobian, match=r"\|det\| = "):
        monge_ampere_residual(
            lambda q: potential_gradient(pot, q), [IDENTITY], 1.0, lambda q: 1.0, lambda q: 1.0, P
        )
