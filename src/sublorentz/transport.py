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
from .heisenberg import GroupPoint, _new
from .simplex import gain_exponent, longest_path, solve_max_transport

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
        """tau^p / p, zero where tau <= 0, for an array of taus or a float: a
        float runs as a one-element array, so it gets the array's bits."""
        g = np.maximum(np.atleast_1d(t), 0.0) ** self.p / self.p
        return g if isinstance(t, np.ndarray) else float(g[0])


class DiscreteMeasure:
    """Finitely many weighted atoms; weights nonnegative, summing to one."""

    __slots__ = ("atoms", "weights", "_coords")
    atoms: tuple
    weights: np.ndarray

    def __init__(self, atoms, weights):
        # an atom of the wrong arity raises GroupPoint's own TypeError
        atoms = tuple(a if len(a) == 3 else GroupPoint(*a) for a in atoms)
        w = np.array(weights, dtype=float)  # a copy, frozen below once validated
        if w.ndim != 1 or len(atoms) != w.shape[0]:
            raise ValueError("atoms and weights must have matching length")
        # (n, 3) coordinates for cost_matrix; array.array, unlike numpy,
        # raises TypeError on a non-number such as the string "1.0"
        coords = np.array(array.array("d", itertools.chain.from_iterable(atoms))).reshape(-1, 3)
        if not np.isfinite(coords).all():
            bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))[0]
            raise ValueError(f"non-finite atom {GroupPoint(*atoms[bad])!r}")
        coords.flags.writeable = False
        if not np.isfinite(w).all():
            raise WeightError("non-finite weight")
        if (w < 0.0).any():
            raise WeightError("negative weight")
        with np.errstate(over="ignore"):  # an overflowing sum is reported below as inf
            total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise WeightError(f"weights sum to {total!r}, expected 1")
        w.flags.writeable = False
        # the atoms are the checked coordinates as Python floats: the scalar kernels run fastest on them
        self.atoms, self.weights, self._coords = tuple(_new(GroupPoint, a) for a in coords.tolist()), w, coords

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
    offset (_tight_forest).  Each off-support pair is an edge between the
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
    scale, pot, comp, k, tail, head, weight, off = _contracted_support(plan, cost)
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
    n = plan.masses.shape[0]
    return DualPotentials(pi[:n], pi[n:])


def _contracted_support(plan: TransportPlan, cost: CostMatrix):
    """The contraction of the support that strengthen_duals describes, for it
    and check_cyclical_monotonicity: (scale, pot, comp, k, tail, head, weight,
    off), with gains divided by 2**scale and edges asking delta[head] >=
    delta[tail] + weight of the k component offsets."""
    n, m = plan.masses.shape
    on = plan.masses > SUPPORT_TOL
    si, sj = np.nonzero(on)
    fi, fj = np.nonzero(cost.feasible & ~on)
    scale = gain_exponent(float(np.abs(cost.values[cost.feasible]).max(initial=0.0)))
    gain = np.ldexp(cost.values[si, sj], -scale)
    pot, comp, k, loose = _tight_forest(n + m, si, n + sj, gain)
    np.minimum.at(low := np.full(k, np.inf), comp, pot)
    pot -= low[comp]  # least 0 on each component, so the offsets are >= 0
    i, j = np.concatenate([si[loose], fi]), np.concatenate([sj[loose], fj])
    tail, head, off = comp[i], comp[n + j], np.arange(i.size) >= np.count_nonzero(loose)
    weight = np.ldexp(cost.values[i, j], -scale) - (pot[n + j] - pot[i])
    weight[~off] = np.abs(weight[~off])
    return scale, pot, comp, k, tail, head, weight, off


def _tight_forest(n_nodes, tail, head, gain):
    """Potentials with pot[head] = pot[tail] + gain on a spanning forest of
    the edges, 0 at each component's least node.  Returns (pot, comp, k,
    loose): the potentials, labels numbered in the order of the least
    nodes, k labels, and the non-forest edge mask."""
    adj = [[] for _ in range(n_nodes)]
    for e, (t, h, g) in enumerate(zip(tail.tolist(), head.tolist(), gain.tolist())):
        adj[t].append((h, g, e))
        adj[h].append((t, -g, e))
    pot, comp, via, k = [0.0] * n_nodes, [-1] * n_nodes, [-1] * n_nodes, 0
    for top in range(n_nodes):
        if comp[top] < 0:
            comp[top], stack = k, [top]
            while stack:
                u = stack.pop()
                for w, g, e in adj[u]:
                    if comp[w] < 0:
                        pot[w], comp[w], via[w] = pot[u] + g, k, e
                        stack.append(w)
            k += 1
    loose = np.ones(len(tail) + 1, dtype=bool)
    loose[via] = False  # via is -1 at the least nodes: the spare last entry
    return np.array(pot), np.array(comp), k, loose[:-1]


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
    violation.  cycles_checked counts the cycles scored one by one: 0 beyond
    12 support pairs, where potentials decide.  exhaustive is always True,
    though on at most 12 pairs only cycles of up to max_cycle pairs are
    scored: a 12-pair plan's improving 7-cycle reads 0.0.  Both fields stay
    only because solve prints them and the benchmark's span counters and
    its solve-small check read them.
    """

    worst_violation: float
    cycles_checked: int
    exhaustive: bool


def check_cyclical_monotonicity(plan: TransportPlan, cost: CostMatrix, max_cycle: int = 6) -> MonotonicityReport:
    """Search support cycles for gain-improving reassignments.

    A cycle of support pairs s_t = (i_t, j_t) gains
    sum_t values[i_{t+1}, j_t] - values[i_t, j_t], or -inf if it reassigns
    mass through a causally unrelated pair.

    On at most 12 support pairs every cycle up to max_cycle pairs is scored,
    all cycles of one vertex order as one array operation, (k-1)! orders per
    length k (153 up to 6-cycles), and worst_violation is the largest gain.

    Beyond 12 pairs the verdict covers cycles of every length, and max_cycle
    is unused.  The support is c-cyclically monotone exactly when potentials
    exist that are tight on it and dominate on every other feasible pair
    (Rockafellar 1966; Villani, Optimal Transport: Old and New, Thm 5.10).
    One longest_path on strengthen_duals' contracted graph, at margin 0,
    looks for them.  If it returns a cycle, worst_violation is that cycle's
    gain, floored at 0: one improving cycle, not necessarily the worst, and
    of roundoff size when a degenerate optimal plan closes a tie cycle.
    Otherwise it is the largest positive residual of the potentials found,
    which is roundoff.
    """
    if np.count_nonzero(plan.masses > SUPPORT_TOL) > 12:
        scale, _, _, k, tail, head, weight, _ = _contracted_support(plan, cost)
        delta, cycle = longest_path(k, tail, head, weight)
        if cycle is None:
            gain = float((weight + delta[tail] - delta[head]).max(initial=0.0))
        else:
            gain = float(weight[cycle].sum())
        return MonotonicityReport(max(0.0, math.ldexp(gain, scale)), 0, True)

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
    for k in range(2, min(max_cycle, n) + 1):
        combos = np.array(list(itertools.combinations(range(n), k)))
        for rest in itertools.permutations(range(1, k)):
            score(combos[:, (0,) + rest])

    return MonotonicityReport(worst, checked, True)
