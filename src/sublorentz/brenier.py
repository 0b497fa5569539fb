"""Transport maps from dual potentials: semi-discrete Brenier theory.

A solved Kantorovich problem hands back potentials (phi, psi).  Against a
discrete target the psi side defines the semi-discrete potential

    phi(x) = min_j ( psi_j - c_p(x, y_j) ),      c_p = tau^p / p,

whose active branch at x names the target atom x's mass rides to.  The
transport map itself is a geodesic exponential of the potential's gradient:
with grad = D phi(x) past-directed timelike and E its energy,

    T(x) = exp_x( -grad / scale ),   scale = sqrt(2E)^((p-2)/(p-1)),

and sliding the exponential parameter from 0 to 1 yields the displacement
interpolation.  On the active branch the gradient has the closed form
-T_sep^(p-2) * log_map(x, y_j*), which makes the construction exact: the
scale cancels to leave exp_x(log_map(x, y_j*)) = y_j*.

The reverse problem swaps min for max,

    chi(y) = max_i ( phi_i + c_p(x_i, y) ),

and its gradient, pushed through the same exponential step with the
opposite sign, walks each target atom back to its source.

At the atoms the branch tables are rows of the LP's CostMatrix, psi -
values[i] at source atom i and phi + values[:, j] at target atom j; a
branch is in the domain where its gain is > 0, exactly where tau is.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .causality import tau
from .errors import (
    DomainViolation,
    NondifferentiableAt,
    NotTimelikeGradient,
    OutOfDomain,
    SingularJacobian,
)
from .heisenberg import FrameCovector, GroupPoint, energy, sup_distance
from .geodesics import exp_map, flow, log_map
from .simplex import gain_exponent
from .transport import CostMatrix, CostParams, DiscreteMeasure, DualPotentials

DEFAULT_TIE_TOL = 1e-9
DEFAULT_FD_STEP = 1e-5


class SemiDiscretePotential(NamedTuple):
    """min_j (psi_j - c_p(., y_j)) over a finite target family."""

    target_atoms: tuple
    psi: np.ndarray
    params: CostParams


def potential_from_duals(
    duals: DualPotentials, nu: DiscreteMeasure, params: CostParams
) -> SemiDiscretePotential:
    return SemiDiscretePotential(tuple(nu.atoms), np.asarray(duals.psi, float), params)


def _pick_branch(offsets: np.ndarray, gains: np.ndarray, where, outside: str) -> int:
    """Index of the least branch offsets - gains, given one gain per branch.

    DomainViolation outside.format(where=where, k=k) at the first k whose
    gain is not > 0 (not chronological); NondifferentiableAt, naming where,
    when the runner-up is within DEFAULT_TIE_TOL * 2**gain_exponent(largest gain).
    """
    inside = gains > 0.0
    if not inside.all():
        raise DomainViolation(outside.format(where=where, k=int(np.argmin(inside))))
    vals = offsets - gains
    k = int(np.argmin(vals))
    if len(vals) > 1:
        margin = float(np.partition(vals, 1)[1] - vals[k])
        if margin <= math.ldexp(DEFAULT_TIE_TOL, gain_exponent(float(gains.max()))):
            raise NondifferentiableAt(f"branches tie within {margin:.3e} at {where}")
    return k


_PRECEDES = "{where!r} does not chronologically precede target atom {k}"


def active_branch(pot: SemiDiscretePotential, q: GroupPoint) -> int:
    """Index of the minimizing branch at any point q, from scalar tau calls;
    DomainViolation off the domain, NondifferentiableAt on numerical ties."""
    gains = pot.params.gain(np.array([tau(q, y) for y in pot.target_atoms]))
    return _pick_branch(pot.psi, gains, q, _PRECEDES)


def _central_diff(f, q: GroupPoint) -> np.ndarray:
    """(f(q + h e_k) - f(q - h e_k)) / (2h) for k = x, y, z, h = DEFAULT_FD_STEP.

    f returns a float (the result is the coordinate gradient) or a point
    (column k of the result is the k-th column of the Jacobian).
    """
    h = DEFAULT_FD_STEP
    cols = []
    for axis in range(3):
        step = [0.0, 0.0, 0.0]
        step[axis] = h
        hi = np.asarray(f(GroupPoint(q.x + step[0], q.y + step[1], q.z + step[2])), float)
        lo = np.asarray(f(GroupPoint(q.x - step[0], q.y - step[1], q.z - step[2])), float)
        cols.append((hi - lo) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _gain_gradient(lam0: FrameCovector, cov: FrameCovector, p: float) -> FrameCovector:
    """-T^(p-2) * cov, with T = sqrt(2 E(lam0)) the length of the geodesic
    whose initial covector is lam0."""
    s = math.sqrt(2.0 * energy(lam0)) ** (p - 2.0)
    return FrameCovector(-s * cov.hX, -s * cov.hY, -s * cov.hZ)


def potential_gradient(pot: SemiDiscretePotential, q: GroupPoint) -> FrameCovector:
    """Gradient of the potential at q as a frame covector based at q: the closed
    form -tau^(p-2) log_map(q, y*) on the branch y* that active_branch picks."""
    lam = log_map(q, pot.target_atoms[active_branch(pot, q)])
    return _gain_gradient(lam, lam, pot.params.p)


class MapSample(NamedTuple):
    """One atom's ride: source, image and exponential covector.

    covector is the frame covector xi at source with image = exp_source(xi);
    scaling it by t in [0, 1] sweeps the displacement interpolation.  The
    time separation from source to image is sqrt(2 energy(xi)), so
    tau(interp(s), interp(t)) = (t - s) * sqrt(2 energy(xi)) along the ride.
    """

    source: GroupPoint
    image: GroupPoint
    covector: FrameCovector


def _map_step(q: GroupPoint, grad: FrameCovector, params: CostParams, sign: int) -> MapSample:
    """exp_q(sign * grad / scale) for a past-directed timelike grad; the
    forward map steps with sign -1, the backward map with sign +1."""
    e = energy(grad)
    if not (e > 0.0 and grad.hX > abs(grad.hY)):
        what = "reverse gradient" if sign > 0 else "gradient"
        raise NotTimelikeGradient(f"{what} {grad!r} is not past-directed timelike")
    scale = math.sqrt(2.0 * e) ** ((params.p - 2.0) / (params.p - 1.0))
    xi = FrameCovector(sign * grad.hX / scale, sign * grad.hY / scale, sign * grad.hZ / scale)
    return MapSample(q, exp_map(q, xi), xi)


def brenier_map(q: GroupPoint, grad: FrameCovector, params: CostParams) -> MapSample:
    """Map step from a potential gradient: exp_q(-grad / scale).

    Requires -grad future-directed timelike (equivalently grad past-directed);
    otherwise NotTimelikeGradient.
    """
    return _map_step(q, grad, params, -1)


def interpolate(sample: MapSample, t: float) -> GroupPoint:
    """Displacement interpolation: exp_source(t xi), the point a fraction t
    along the ride with covector xi.  For s <= t,
    tau(interpolate(sample, s), interpolate(sample, t)) = (t - s) sqrt(2 energy(xi))."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    xi = sample.covector
    return exp_map(sample.source, FrameCovector(t * xi.hX, t * xi.hY, t * xi.hZ))


class TransportMapResult(NamedTuple):
    samples: tuple  # MapSample per successfully mapped atom
    mapped: tuple  # indices of the mapped atoms
    skipped: tuple  # (index, reason) pairs for the rest


def _map_atoms(atoms, step) -> TransportMapResult:
    """step(index, atom) for every atom; the typed failures that mark an
    atom as unmappable are collected as skips rather than raised."""
    samples, mapped, skipped = [], [], []
    for k, atom in enumerate(atoms):
        try:
            samples.append(step(k, atom))
            mapped.append(k)
        except (NondifferentiableAt, NotTimelikeGradient, DomainViolation, OutOfDomain) as err:
            skipped.append((k, f"{type(err).__name__}: {err}"))
    return TransportMapResult(tuple(samples), tuple(mapped), tuple(skipped))


def _check_shape(cost: CostMatrix, n: int, m: int) -> None:
    if cost.values.shape != (n, m):
        raise ValueError(f"cost matrix of shape {cost.values.shape} for {n} sources and {m} targets")


def transport_map_from_duals(
    mu: DiscreteMeasure, pot: SemiDiscretePotential, cost: CostMatrix
) -> TransportMapResult:
    """Brenier map samples for every source atom where the potential is
    differentiable; atoms with tied branches or without a timelike gradient
    are reported in skipped rather than guessed at.

    cost is the CostMatrix of mu against pot's target atoms; the branch
    table at source atom i is psi - cost.values[i], on the branches of gain
    > 0 (the chronological ones).
    """
    _check_shape(cost, len(mu.atoms), len(pot.target_atoms))

    def step(i: int, x: GroupPoint) -> MapSample:
        j = _pick_branch(pot.psi, cost.values[i], x, _PRECEDES)
        lam = log_map(x, pot.target_atoms[j])
        return brenier_map(x, _gain_gradient(lam, lam, pot.params.p), pot.params)

    return _map_atoms(mu.atoms, step)


def backward_map_from_duals(
    nu: DiscreteMeasure, phi_values, source_atoms, params: CostParams, cost: CostMatrix
) -> TransportMapResult:
    """Reverse Brenier map built from the max-form potential
    chi(y) = max_i(phi_i + c_p(x_i, y)); walks target atoms back to sources.

    cost is the CostMatrix of source_atoms against nu; the branch table at
    target atom j is phi + cost.values[:, j], on the branches of gain > 0.
    The gradient of the active branch is -T^(p-2) times the geodesic's
    endpoint covector, and the exponential step uses the opposite sign from
    the forward map (+D / scale), which reverses the connecting geodesic.
    """
    phi = np.asarray(phi_values, float)
    sources = tuple(GroupPoint(*a) for a in source_atoms)
    _check_shape(cost, len(sources), len(nu.atoms))

    def step(j: int, y: GroupPoint) -> MapSample:
        # the argmax of phi + gains is the argmin of -phi - gains, and
        # negation is exact, so the tie margin is the same number either way
        where = f"target atom {j}"
        x = sources[_pick_branch(-phi, cost.values[:, j], where, "{where} is not chronologically after source {k}")]
        lam0 = log_map(x, y)
        return _map_step(y, _gain_gradient(lam0, flow(x, lam0, 1.0).cov, params.p), params, +1)

    return _map_atoms(nu.atoms, step)


def inverse_roundtrip_check(forward: TransportMapResult, backward: TransportMapResult) -> float:
    """Worst sup-norm deviation of backward(forward(x)) from x.

    Each forward image is matched to the nearest backward source; a wrong
    match surfaces as a large deviation, so the number is conservative.
    """
    worst = 0.0
    for fs in forward.samples:
        if not backward.samples:
            return math.inf
        bs = min(backward.samples, key=lambda b: sup_distance(b.source, fs.image))
        worst = max(worst, sup_distance(bs.image, fs.source))
    return worst


class MongeAmpereReport(NamedTuple):
    """Per-point change-of-variables audit of an interpolated transport map."""

    points: tuple  # (source, image, det, residual)
    max_residual: float


def monge_ampere_residual(grad_fn, sources, t: float, rho0, rhot, params: CostParams) -> MongeAmpereReport:
    """Residual |rho0(q) - rhot(T_t(q)) det dT_t(q)| at each source point.

    grad_fn maps a group point to the potential gradient there (so the map
    can be re-evaluated at finite-difference stencil points); the Jacobian
    of q -> T_t(q) is taken by central differences in exponential
    coordinates.  Raises SingularJacobian when |det| < 1e-10.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")

    def map_t(q: GroupPoint) -> GroupPoint:
        return interpolate(brenier_map(q, grad_fn(q), params), t)

    rows = []
    max_res = 0.0
    for q in sources:
        q = GroupPoint(*q)
        image = map_t(q)
        det = float(np.linalg.det(_central_diff(map_t, q)))
        if abs(det) < 1e-10:
            raise SingularJacobian(f"|det| = {abs(det):.3e} at {q!r}")
        residual = abs(rho0(q) - rhot(image) * det)
        rows.append((q, image, det, residual))
        max_res = max(max_res, residual)
    return MongeAmpereReport(tuple(rows), max_res)
