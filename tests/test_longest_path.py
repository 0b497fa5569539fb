"""simplex.longest_path against the plain Jacobi relaxation it shortcuts."""

import numpy as np
import pytest

from sublorentz.simplex import longest_path

TOL = 1e-13


def _plain_relaxation(n_nodes, tail, head, weight):
    """All n_nodes + 1 Jacobi rounds, with no early stop."""
    pi = np.zeros(n_nodes)
    for _ in range(n_nodes + 1):
        need = np.full(n_nodes, -np.inf)
        np.maximum.at(need, head, pi[tail] + weight)
        rise = need > pi + TOL
        if not rise.any():
            return pi
        pi = np.where(rise, need, pi)
    return None


def _graph(rng, n_nodes, n_edges, cycle_weight):
    """Random edges made cycle-free by potentials, plus a closing cycle of
    the given total weight through a random set of nodes (none if None)."""
    pot = rng.uniform(0.0, 5.0, n_nodes)
    tail = rng.integers(0, n_nodes, n_edges)
    head = rng.integers(0, n_nodes, n_edges)
    weight = pot[head] - pot[tail] - rng.exponential(1.0, n_edges) * (rng.random(n_edges) < 0.7)
    if cycle_weight is not None:
        ring = rng.choice(n_nodes, size=int(rng.integers(2, min(n_nodes, 8) + 1)), replace=False)
        ring_w = pot[np.roll(ring, -1)] - pot[ring]
        ring_w[-1] += cycle_weight
        tail = np.concatenate([tail, ring])
        head = np.concatenate([head, np.roll(ring, -1)])
        weight = np.concatenate([weight, ring_w])
    return tail, head, weight


@pytest.mark.parametrize("cycle_weight", [None, 0.0, 5e-14, 1.5e-13, 3e-13, 1e-9, 1e-3, 1.0, 50.0])
def test_same_result_as_plain_relaxation(cycle_weight):
    rng = np.random.default_rng(7)
    for _ in range(40):
        n_nodes = int(rng.integers(2, 40))
        tail, head, weight = _graph(rng, n_nodes, int(rng.integers(1, 4 * n_nodes)), cycle_weight)
        want = _plain_relaxation(n_nodes, tail, head, weight)
        got, cycle = longest_path(n_nodes, tail, head, weight)
        if want is None:
            assert got is None
            # the raising edges close the returned cycle, which gains weight
            assert cycle.size and np.array_equal(head[cycle], tail[np.roll(cycle, 1)])
            assert weight[cycle].sum() > 0.0
        else:
            assert cycle is None
            np.testing.assert_array_equal(got, want)


def test_no_edges():
    # the simplex's dual-offset search makes this call with n_nodes = 1
    # whenever the final tree's real arcs join every node into one component
    empty = np.array([], dtype=int)
    for n_nodes in (0, 1, 3):
        pi, cycle = longest_path(n_nodes, empty, empty, np.array([]))
        assert cycle is None
        assert pi.dtype == np.float64
        np.testing.assert_array_equal(pi, np.zeros(n_nodes))
        np.testing.assert_array_equal(pi, _plain_relaxation(n_nodes, empty, empty, np.array([])))


def test_cycle_raised_late_by_a_heavy_path():
    # A cycle gaining 1e-11 a lap at potentials near 0.5, reached only at
    # round 22 by a chain that lifts it to 1e6, where the lap's gain is lost
    # to rounding: the plain relaxation then converges, so the early stop
    # must not have fired on the small potentials it saw before.
    chain = 22
    c0, c1 = chain + 1, chain + 2
    tail = np.array(list(range(chain)) + [chain, c0, c1])
    head = np.array(list(range(1, chain + 1)) + [c0, c1, c0])
    weight = np.array([1e6] + [0.0] * (chain - 1) + [0.0, 0.5, -0.5 + 1e-11])
    want = _plain_relaxation(chain + 3, tail, head, weight)
    assert want is not None and want[c0] == 1e6
    pi, cycle = longest_path(chain + 3, tail, head, weight)
    assert cycle is None
    np.testing.assert_array_equal(pi, want)
