"""The LP layer under power-of-two dilations.

delta_lam(x, y, z) = (lam x, lam y, lam^2 z) scales tau by lam, so at
p = 1/2 every gain tau^p / p scales by lam^(1/2).  With lam = 4^j that
factor is 2^j, exact in floats, and the LP layer scales its gains by a
power of two before it compares them with any tolerance.  So the cost
matrix, the plan, the LP duals and the strengthened duals at lam = 4^j are
bit for bit 2^j times (the plan: equal to) the answer at j = 0, and the
forward map reaches the same atoms and skips the rest for the same reasons.
"""

import math

import numpy as np
import pytest

from sublorentz.brenier import potential_from_duals, transport_map_from_duals
from sublorentz.heisenberg import GroupPoint
from sublorentz.measures_io import sample_chronological_pair
from sublorentz.transport import (
    CostParams,
    DiscreteMeasure,
    cost_matrix,
    duality_gap,
    solve_cost_matrix,
    strengthen_duals,
)

P = CostParams(0.5)


def _answer(mu, nu):
    cm = cost_matrix(mu, nu, P)
    plan, duals = solve_cost_matrix(cm, mu.weights, nu.weights)
    strong = strengthen_duals(plan, cm)
    for d in (duals, strong):
        duality_gap(plan, d, mu, nu, cm)  # raises InfeasibleDuals if a constraint fails
    fwd = transport_map_from_duals(mu, potential_from_duals(strong, nu, P), cm)
    # a skip names the atom and the tie margin, which scale; its type does not
    skips = tuple((k, reason.split(":")[0]) for k, reason in fwd.skipped)
    return cm, plan, duals, strong, fwd.mapped, skips


@pytest.mark.parametrize("weights", ["uniform", "random"])
@pytest.mark.parametrize("seed", range(6))
def test_lp_answers_scale_exactly_under_dilations(seed, weights):
    mu0, nu0 = sample_chronological_pair(20, 20, seed=seed, weights=weights)
    cm0, plan0, duals0, strong0, mapped0, skips0 = _answer(mu0, nu0)
    for j in range(-200, 201, 10):
        lam, s = 4.0**j, math.ldexp(1.0, j)

        def dilate(measure):
            atoms = tuple(GroupPoint(lam * q.x, lam * q.y, lam * lam * q.z) for q in measure.atoms)
            return DiscreteMeasure(atoms, measure.weights)

        cm, plan, duals, strong, mapped, skips = _answer(dilate(mu0), dilate(nu0))
        assert np.array_equal(cm.feasible, cm0.feasible), j
        assert np.array_equal(cm.values, cm0.values * s), j
        assert np.array_equal(plan.masses, plan0.masses), j
        assert plan.value == plan0.value * s, j
        for got, want in ((duals, duals0), (strong, strong0)):
            assert np.array_equal(got.phi, want.phi * s), j
            assert np.array_equal(got.psi, want.psi * s), j
        assert (mapped, skips) == (mapped0, skips0), j
