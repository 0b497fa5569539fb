"""Causal optimal transport between discrete measures on the Heisenberg group.

The Kantorovich problem here is a maximization: couplings must respect the
causal order (mass moves only into the causal future, null boundary allowed
at zero gain), and the objective is

    maximize  sum_ij  pi_ij * tau(x_i, y_j)^p / p,    0 < p < 1.

The concave power makes the problem well posed; the associated cost of an
optimal plan defines the Lorentz-Wasserstein distance (p * value)^(1/p).
"""

from __future__ import annotations

import array
import itertools
import math
from typing import NamedTuple

import numpy as np

from .causality import tau_array
from .errors import InfeasibleDuals, NoCausalCoupling, WeightError
from .heisenberg import GroupPoint
from .simplex import gain_exponent, longest_path, solve_max_transport, tight_components

SUPPORT_TOL = 1e-12


class CostParams:
    """Concavity exponent p of the gain tau^p / p, with 0 < p < 1 strict."""

    __slots__ = ("p",)
    p: float

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
        self.p = p

    def gain(self, t):
        """tau^p / p, zero where tau <= 0; t is a float or a numpy array."""
        if isinstance(t, np.ndarray):
            return np.maximum(t, 0.0) ** self.p / self.p
        if t <= 0.0:
            return 0.0
        return t**self.p / self.p


class DiscreteMeasure:
    """Finitely many weighted atoms; weights nonnegative, summing to one."""

    __slots__ = ("atoms", "weights", "_coords")
    atoms: tuple
    weights: np.ndarray

    def __init__(self, atoms, weights):
        atoms = tuple(GroupPoint(*a) for a in atoms)
        w = np.array(weights, dtype=float)  # a copy, frozen below once validated
        if w.ndim != 1 or len(atoms) != w.shape[0]:
            raise ValueError("atoms and weights must have matching length")
        # (n, 3) coordinates for cost_matrix; array.array, unlike numpy,
        # raises TypeError on a non-number such as the string "1.0"
        coords = np.array(array.array("d", itertools.chain.from_iterable(atoms))).reshape(-1, 3)
        bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
        if bad.size:
            raise ValueError(f"non-finite atom {atoms[bad[0]]!r}")
        coords.flags.writeable = False
        if not np.all(np.isfinite(w)):
            raise WeightError("non-finite weight")
        if np.any(w < 0.0):
            raise WeightError("negative weight")
        with np.errstate(over="ignore"):  # an overflowing sum is reported below as inf
            total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise WeightError(f"weights sum to {total!r}, expected 1")
        w.flags.writeable = False
        self.atoms, self.weights, self._coords = atoms, w, coords

    def __len__(self):
        return len(self.atoms)


class CostMatrix(NamedTuple):
    """Pairwise gains and causal feasibility between two atom families.

    values[i, j] is tau(x_i, y_j)^p / p for chronological pairs, zero for
    null or unrelated ones; feasible[i, j] is True unless the pair is
    causally unrelated.  The builders make both arrays read-only, since the
    LP, strengthen_duals, the maps and the audit share them.
    """

    values: np.ndarray
    feasible: np.ndarray


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, params: CostParams) -> CostMatrix:
    """Gains and feasibility of every pair, from one broadcast of tau_array."""
    t, feasible = tau_array(mu._coords[:, None, :], nu._coords[None, :, :])
    values = params.gain(t)
    values.flags.writeable = feasible.flags.writeable = False
    return CostMatrix(values, feasible)


class TransportPlan(NamedTuple):
    masses: np.ndarray
    value: float

    def support(self):
        """Index pairs carrying more than SUPPORT_TOL mass."""
        rows, cols = np.nonzero(self.masses > SUPPORT_TOL)
        return list(zip(rows.tolist(), cols.tolist()))


class DualPotentials(NamedTuple):
    phi: np.ndarray
    psi: np.ndarray


def solve_kantorovich(mu: DiscreteMeasure, nu: DiscreteMeasure, params: CostParams):
    """Exact optimal plan and dual potentials for the causal problem.

    Returns (TransportPlan, DualPotentials).  The duals satisfy
    psi[j] - phi[i] >= c[i,j] on every causally feasible pair, with equality
    on the support of the plan.  Raises NoCausalCoupling when the feasible
    pairs cannot carry the full mass.
    """
    return solve_cost_matrix(cost_matrix(mu, nu, params), mu.weights, nu.weights)


def solve_cost_matrix(cost: CostMatrix, supplies, demands):
    """solve_kantorovich on an already built cost matrix and marginals."""
    masses, phi, psi = solve_max_transport(cost.values, cost.feasible, supplies, demands)
    value = float(np.sum(masses * cost.values))
    return TransportPlan(masses, value), DualPotentials(phi, psi)


def strengthen_duals(plan: TransportPlan, cost: CostMatrix) -> DualPotentials:
    """Move optimal duals into the interior of the dual optimal face.

    The simplex returns a vertex of the dual polytope, where constraints
    beyond the plan's support are tight (degenerate basic arcs).  Potential
    branches then tie at source atoms and gradient-based maps have to skip
    them.  This pass keeps the support equalities (so the pair stays optimal
    and the duality gap stays at roundoff) and returns the least duals >= 0
    whose off-support feasible slacks are all at least half the largest
    margin the face allows.

    The support fixes the potentials of each of its k components up to one
    offset (tight_components).  Each off-support pair is an edge between the
    offsets of its two components; one inside a component is a self-loop
    that caps the margin at its slack.  A support pair closing a cycle is a
    self-loop weighing the cycle's absolute alternating gain sum, with no
    margin.  From the cap (1024 at most), Dinkelbach steps find the exact
    margin: while longest_path finds a positive cycle, the margin drops to
    the one at which that cycle weighs 0.  The duals sit at half the margin,
    so at 512 * 2**e when nothing limits it.  A zero margin can be genuinely
    unimprovable (ties between optimal plans); the duals are then minimal.

    As in solve_max_transport, the cap and the relaxation tolerances apply
    to the gains divided by 2**e, e = gain_exponent(largest feasible |gain|).
    """
    n, m = plan.masses.shape
    on = plan.masses > SUPPORT_TOL
    si, sj = np.nonzero(on)
    fi, fj = np.nonzero(cost.feasible & ~on)
    scale = gain_exponent(float(np.abs(cost.values[cost.feasible]).max(initial=0.0)))
    gain = np.ldexp(cost.values[si, sj], -scale)
    pot, comp, k, loose = tight_components(n + m, si, n + sj, gain, range(n + m))
    np.minimum.at(low := np.full(k, np.inf), comp, pot)
    pot -= low[comp]  # least 0 on each component, so the offsets are >= 0
    i, j = np.concatenate([si[loose], fi]), np.concatenate([sj[loose], fj])
    tail, head, off = comp[i], comp[n + j], np.arange(i.size) >= np.count_nonzero(loose)
    weight = np.ldexp(cost.values[i, j], -scale) - (pot[n + j] - pot[i])
    weight[~off] = np.abs(weight[~off])
    margin = max(0.0, -float(weight[off & (tail == head)].max(initial=-1024.0)))
    while (cycle := longest_path(k, tail, head, weight + margin * off)[1]) is not None:
        k_off = np.count_nonzero(off[cycle])
        if not k_off or not margin:
            raise InfeasibleDuals("support equalities admit no feasible duals")
        ratio = -float(weight[cycle].sum()) / k_off
        if ratio >= margin:  # the cycle weighs 0 at this margin up to roundoff
            break
        margin = max(0.0, ratio)
    delta = longest_path(k, tail, head, weight + 0.5 * margin * off)[0]
    pi = np.ldexp(pot + delta[comp], scale)
    return DualPotentials(pi[:n], pi[n:])


def lorentz_wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, params: CostParams) -> float:
    """(p * optimal value)^(1/p); -inf when no causal coupling exists."""
    try:
        plan, _ = solve_kantorovich(mu, nu, params)
    except NoCausalCoupling:
        return -math.inf
    return (params.p * plan.value) ** (1.0 / params.p)


def duality_gap(
    plan: TransportPlan,
    duals: DualPotentials,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
) -> float:
    """Dual objective minus primal value; near zero certifies optimality.

    Raises InfeasibleDuals when psi[j] - phi[i] >= c[i,j] fails by more than
    1e-9 * 2**e on a causally feasible pair, e as in strengthen_duals.
    """
    slack = duals.psi[None, :] - duals.phi[:, None] - cost.values
    worst = float(np.min(np.where(cost.feasible, slack, np.inf)))
    top = float(np.abs(cost.values[cost.feasible]).max(initial=0.0))
    if worst < -math.ldexp(1e-9, gain_exponent(top)):
        raise InfeasibleDuals(f"dual constraint violated by {-worst:.3e}")
    dual_value = float(np.dot(duals.psi, nu.weights) - np.dot(duals.phi, mu.weights))
    return dual_value - plan.value


def brute_force_plan(mu: DiscreteMeasure, nu: DiscreteMeasure, params: CostParams) -> TransportPlan:
    """Exhaustive optimum over permutation couplings.

    Only valid for n == m <= 8 with uniform weights on both sides, where
    the optimal plan may be taken to be a permutation.  Ties resolve to the
    lexicographically smallest assignment, so results are deterministic.
    """
    n = len(mu)
    if len(nu) != n or n > 8 or n == 0:
        raise ValueError("brute force requires n == m <= 8")
    for w in (mu.weights, nu.weights):
        if np.max(np.abs(w - 1.0 / n)) > 1e-12:
            raise ValueError("brute force requires uniform weights")
    cm = cost_matrix(mu, nu, params)
    best_value = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        if not all(cm.feasible[i, perm[i]] for i in range(n)):
            continue
        value = sum(cm.values[i, perm[i]] for i in range(n)) / n
        if best_value is None or value > best_value:
            best_value = value
            best_perm = perm
    if best_perm is None:
        raise NoCausalCoupling("every permutation hits a non-causal pair")
    masses = np.zeros((n, n))
    for i, j in enumerate(best_perm):
        masses[i, j] = 1.0 / n
    return TransportPlan(masses, float(best_value))


class MonotonicityReport(NamedTuple):
    """Outcome of a cyclical monotonicity audit over a plan's support.

    worst_violation > 0 means a cycle of support pairs was found whose
    reassigned gains beat the original ones, which contradicts optimality.
    Reassignments that route mass through a causally unrelated pair are not
    admissible couplings at all, so such cycles can never witness a
    violation.
    """

    worst_violation: float
    cycles_checked: int
    exhaustive: bool


def check_cyclical_monotonicity(
    plan: TransportPlan,
    cost: CostMatrix,
    max_cycle: int = 6,
    seed: int = 0,
) -> MonotonicityReport:
    """Search support cycles for gain-improving reassignments.

    Exhaustive over all cycles up to max_cycle when the support has at most
    12 pairs; otherwise a seeded random search of 2000 cycles per length, so
    repeated runs agree.  A cycle of support pairs s_t = (i_t, j_t) gains
    sum_t values[i_{t+1}, j_t] - values[i_t, j_t], or -inf if it reassigns
    mass through a causally unrelated pair.

    Cost: the exhaustive branch scores all cycles of one vertex order as one
    array operation, (k-1)! orders per length k (153 up to 6-cycles).  In the
    sampled branch the 2000 rng.choice draws per length dominate.
    """
    rows, cols = np.array(plan.support(), dtype=np.intp).reshape(-1, 2).T
    base = cost.values[rows, cols]
    # moved[s, s'] is the gain when the source of pair s' takes the target of s
    moved = cost.values[rows[None, :], cols[:, None]]
    ok = cost.feasible[rows[None, :], cols[:, None]]
    worst = 0.0
    checked = 0

    def score(cycles):
        # gains are added in cycle order, t = 0..k-1, so each sum is rounded
        # exactly as a per-cycle loop rounds it
        nonlocal worst, checked
        b, m = np.zeros((2, len(cycles)))
        admissible = np.ones(len(cycles), dtype=bool)
        for cur, nxt in zip(cycles.T, np.roll(cycles, -1, axis=1).T):
            b += base[cur]
            m += moved[cur, nxt]
            admissible &= ok[cur, nxt]
        checked += len(cycles)
        worst = max(worst, float(np.where(admissible, m - b, -math.inf).max()))

    n = len(rows)
    exhaustive = n <= 12
    rng = None if exhaustive else np.random.default_rng(seed)  # a Generator imports numpy.random
    for k in range(2, min(max_cycle, n) + 1):
        if exhaustive:
            combos = np.array(list(itertools.combinations(range(n), k)))
            for rest in itertools.permutations(range(1, k)):
                score(combos[:, (0,) + rest])
        else:
            score(np.array([rng.choice(n, size=k, replace=False) for _ in range(2000)]))

    return MonotonicityReport(worst, checked, exhaustive)
