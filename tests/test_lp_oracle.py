"""The transportation simplex against an independent LP solver (HiGHS).

Skipped when scipy or hypothesis is missing; neither is a runtime
dependency of the library.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
optimize = pytest.importorskip("scipy.optimize")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from sublorentz.errors import NoCausalCoupling  # noqa: E402
from sublorentz.heisenberg import GroupPoint  # noqa: E402
from sublorentz.simplex import solve_max_transport  # noqa: E402
from sublorentz.transport import (  # noqa: E402
    CostParams,
    DiscreteMeasure,
    cost_matrix,
    duality_gap,
    solve_kantorovich,
)

TOL = 1e-9


def highs_value(gains, allowed, supplies, demands):
    """Optimal value of the maximization LP, or None when it is infeasible."""
    n, m = gains.shape
    src, dst = np.nonzero(allowed)
    if src.size == 0:
        return None
    a_eq = np.zeros((n + m, src.size))
    a_eq[src, np.arange(src.size)] = 1.0
    a_eq[n + dst, np.arange(src.size)] = 1.0
    res = optimize.linprog(
        -gains[src, dst],
        A_eq=a_eq,
        b_eq=np.concatenate([supplies, demands]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return None if res.status == 2 else -res.fun


def check_against_highs(gains, allowed, supplies, demands):
    reference = highs_value(gains, allowed, supplies, demands)
    try:
        masses, phi, psi = solve_max_transport(gains, allowed, supplies, demands)
    except NoCausalCoupling:
        assert reference is None, "NoCausalCoupling on a feasible LP"
        return
    assert reference is not None, "HiGHS reports infeasible, the simplex did not"
    value = float(np.sum(masses * gains))
    assert np.all(masses >= 0.0)
    assert np.max(np.abs(masses.sum(axis=1) - supplies)) <= TOL
    assert np.max(np.abs(masses.sum(axis=0) - demands)) <= TOL
    assert np.all(masses[~allowed] == 0.0)
    slack = psi[None, :] - phi[:, None] - gains
    assert np.all(slack[allowed] >= -TOL)
    assert np.all(np.abs(slack[masses > 1e-12]) <= TOL)  # tight on the support
    assert abs(value - reference) <= TOL
    assert abs(float(psi @ demands - phi @ supplies) - value) <= TOL


@st.composite
def lp_instances(draw):
    """Small integer gains (many ties) or float gains, zero marginals and
    partial masks."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 7))
    if draw(st.booleans()):
        gains = draw(hnp.arrays(np.int64, (n, m), elements=st.integers(0, 3))).astype(float)
    else:
        gains = draw(hnp.arrays(np.float64, (n, m), elements=st.floats(0.0, 3.0)))
    n_allowed = draw(st.integers(math.ceil(0.2 * n * m), n * m))
    order = draw(st.permutations(range(n * m)))
    allowed = np.zeros(n * m, dtype=bool)
    allowed[list(order[:n_allowed])] = True
    supply = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 4)).filter(lambda v: v.sum() > 0))
    demand = draw(hnp.arrays(np.int64, m, elements=st.integers(0, 4)).filter(lambda v: v.sum() > 0))
    return gains, allowed.reshape(n, m), supply / supply.sum(), demand / demand.sum()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lp_instances())
@example((np.ones((1, 5)), np.ones((1, 5), bool), np.ones(1), np.full(5, 0.2)))
@example((np.ones((4, 1)), np.ones((4, 1), bool), np.full(4, 0.25), np.ones(1)))
@example((  # the second source reaches no sink at all
    np.ones((2, 2)), np.array([[True, True], [False, False]]), np.full(2, 0.5), np.full(2, 0.5)
))
@example((  # zero supply on the source with no arcs keeps the LP feasible
    np.ones((2, 2)), np.array([[True, True], [False, False]]), np.array([1.0, 0.0]), np.full(2, 0.5)
))
def test_simplex_matches_highs(instance):
    check_against_highs(*instance)


def test_duplicate_atoms_match_highs():
    p = CostParams(0.5)
    mu = DiscreteMeasure(
        (GroupPoint(0.0, 0.0, 0.0), GroupPoint(0.0, 0.0, 0.0), GroupPoint(0.3, 0.1, 0.02)),
        np.array([0.25, 0.25, 0.5]),
    )
    nu = DiscreteMeasure(
        (GroupPoint(2.0, 0.5, 0.1), GroupPoint(2.0, 0.5, 0.1), GroupPoint(1.5, -0.2, 0.0)),
        np.array([0.4, 0.4, 0.2]),
    )
    plan, duals = solve_kantorovich(mu, nu, p)
    cm = cost_matrix(mu, nu, p)
    check_against_highs(cm.values, cm.feasible, mu.weights, nu.weights)
    assert abs(plan.value - highs_value(cm.values, cm.feasible, mu.weights, nu.weights)) <= TOL
    assert abs(duality_gap(plan, duals, mu, nu, cm)) <= TOL
