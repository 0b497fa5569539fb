"""Minkowski-plane transport on the (x, y) projection of measures.

The plane R^{1,1} with cone {dx >= |dy|} embeds in the group as the z = 0
slice.  Between points of one line through the origin of that slice the
group time separation equals the planar one, and so does tau from a point
(x, y, z) to its horizontal lift (T1, T2, z + (x (T2 - y) - (T1 - x) y) / 2)
over a planar target (T1, T2).  For measures on such a line the planar LP of
solve_minkowski therefore has the optimal value of the native one.

The same slice carries the right-translation test case: pushing a measure
forward by q -> q * q0 moves every atom by the same group difference q0, so
the identity coupling costs gain(tau(e, q0)) and the map is optimal exactly
when q0 = (x0, y0, 0) with x0 > |y0|.  right_translation_verdict compares
that coupling against the LP optimum and reports both the predicate and the
observed gap.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .causality import CausalRelation, classify, tau
from .errors import GenerationFailure, NoCausalCoupling
from .heisenberg import IDENTITY, GroupPoint, mul
from .simplex import gain_exponent
from .transport import (
    CostMatrix,
    CostParams,
    DiscreteMeasure,
    solve_cost_matrix,
    solve_kantorovich,
)


def project_measure(mu: DiscreteMeasure) -> DiscreteMeasure:
    """The same measure with every atom moved to z = 0."""
    return DiscreteMeasure(tuple(GroupPoint(a.x, a.y, 0.0) for a in mu.atoms), mu.weights)


def planar_cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, params: CostParams) -> CostMatrix:
    """Gains of the Minkowski plane between the (x, y) projections of the
    atoms, minkowski_tau's closed form broadcast over all pairs; z is ignored."""
    d = nu._coords[None, :, :2] - mu._coords[:, None, :2]
    dx, dy = d[..., 0], d[..., 1]
    feasible = dx >= np.abs(dy)
    values = params.gain(np.sqrt(np.where(feasible, (dx - dy) * (dx + dy), 0.0)))
    values.flags.writeable = feasible.flags.writeable = False
    return CostMatrix(values, feasible)


def solve_minkowski(mu: DiscreteMeasure, nu: DiscreteMeasure, params: CostParams):
    """Maximize total gain of causal couplings between the planar projections
    of two measures (z is ignored).  Returns (TransportPlan, DualPotentials),
    as solve_kantorovich does."""
    return solve_cost_matrix(planar_cost_matrix(mu, nu, params), mu.weights, nu.weights)


class RightTranslationVerdict(NamedTuple):
    """Outcome of testing q -> q * q0 for transport optimality."""

    optimal: bool
    predicate: bool
    map_value: float
    lp_value: float
    gap: float

    @property
    def agrees(self) -> bool:
        return self.optimal == self.predicate


def right_translation_verdict(
    mu: DiscreteMeasure,
    q0: GroupPoint,
    params: CostParams,
    gap_tol: float = 1e-8,
) -> RightTranslationVerdict:
    """Compare the right translation by q0 against the optimal coupling.

    Right translation shifts every atom by the same group difference q0, so
    it is a causal map iff q0 lies in the causal future of the identity;
    otherwise no coupling between mu and its pushforward exists at all and
    NoCausalCoupling is raised.  The map is optimal exactly when q0 is a
    planar point (z0 = 0) with x0 > |y0|; the verdict reports whether the LP
    agrees within gap_tol times 2**gain_exponent(larger value), its binade.
    """
    rel = classify(IDENTITY, q0)
    if rel is CausalRelation.UNRELATED:
        raise NoCausalCoupling(f"q0 = {q0!r} is not in the causal future of the identity")
    nu_atoms = tuple(mul(a, q0) for a in mu.atoms)
    nu = DiscreteMeasure(nu_atoms, mu.weights)

    # Per-atom time separation of the translation is tau(e, q0) for every
    # atom, since the group difference of (q, q * q0) is exactly q0.
    tau0 = tau(IDENTITY, q0)
    map_value = params.gain(tau0)

    plan, _ = solve_kantorovich(mu, nu, params)
    gap = plan.value - map_value
    predicate = q0.z == 0.0 and q0.x > abs(q0.y)
    return RightTranslationVerdict(
        optimal=gap <= math.ldexp(gap_tol, gain_exponent(max(map_value, plan.value))),
        predicate=predicate,
        map_value=map_value,
        lp_value=plan.value,
        gap=gap,
    )


def seeded_verdict_instance(seed: int):
    """Deterministic (mu, q0) pair for exercising right_translation_verdict.

    Even seeds draw a planar translation (z0 = 0, x0 > |y0|), which is
    optimal for every source measure, and any atom cluster will do.  Odd
    seeds draw a twisted translation (z0 != 0); a finite cluster can still
    make the translation optimal, so up to 64 candidates are drawn until
    some rearrangement strictly beats it by more than 1e-6 at p = 0.5.
    Either way the verdict at threshold 1e-8 is decidable with a wide margin.
    """
    return _seeded_verdict(seed)[:2]


def _seeded_verdict(seed: int):
    """seeded_verdict_instance(seed) plus the verdict that accepted it (None for even seeds)."""
    rng = np.random.default_rng(seed)

    def draw_cluster(spread: float) -> DiscreteMeasure:
        n = int(rng.integers(4, 9))
        atoms = [
            GroupPoint(
                rng.uniform(-spread, spread),
                rng.uniform(-spread, spread),
                rng.uniform(-spread * spread / 2.0, spread * spread / 2.0),
            )
            for _ in range(n)
        ]
        return DiscreteMeasure(tuple(atoms), np.full(n, 1.0 / n))

    def draw_base(planar: bool) -> GroupPoint:
        x0 = rng.uniform(1.2, 2.2)
        y0 = rng.uniform(-0.3, 0.3) * x0
        if planar:
            return GroupPoint(x0, y0, 0.0)
        zmax = 0.25 * (x0 * x0 - y0 * y0)
        z0 = rng.uniform(0.2, 0.6) * zmax * (1.0 if rng.random() < 0.5 else -1.0)
        return GroupPoint(x0, y0, z0)

    if seed % 2 == 0:
        return draw_cluster(0.5), draw_base(planar=True), None
    for _ in range(64):
        mu = draw_cluster(rng.uniform(0.25, 0.45))
        q0 = draw_base(planar=False)
        if (verdict := right_translation_verdict(mu, q0, CostParams(0.5))).gap > 1e-6:
            return mu, q0, verdict
    raise GenerationFailure(f"seed {seed}: no cluster with improvement above 1e-6 in 64 tries")
