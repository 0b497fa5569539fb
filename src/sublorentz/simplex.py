"""Primal network simplex for transportation with forbidden arcs and exact duals.

Maximizes sum_ij c[i,j] x[i,j] over the transportation polytope
{x >= 0, row sums = supplies, column sums = demands} with x[i,j] forced to
zero wherever allowed[i,j] is False.  Internally the problem is the
minimum-cost flow with arc costs -c[i,j] on the allowed source->sink arcs.

Design notes:

* The basis is a spanning tree over sources, sinks and one artificial root
  node.  The initial tree is the all-artificial star (source->root and
  root->sink arcs carrying the marginals), so no phase-1 is needed.
* Artificial arcs cost M with M symbolic: each potential is one complex
  number, M coefficient + i * float part, never a literal large float.
  Mass left on an artificial arc at optimality is therefore an exact
  certificate that no admissible coupling exists.  Artificial arcs are
  never priced, so once one leaves the basis it stays out.
* The M coefficient of every real node is exactly -1 or +1: every
  artificial arc touches the root, which never moves and has potential 0,
  and real arcs carry no M part, so a node's coefficient is the orientation
  of the one artificial arc that hangs its component from the root.  Their
  sum over the real nodes, a whole number kept up to date pivot by pivot, is
  therefore -(n + m) or n + m exactly when they are all equal.
* Pricing is block search (Grigoriadis 1986), the rule of the network
  simplex of Bonneel, van de Panne, Paris & Heidrich (2011): reduced costs
  of the allowed arcs are evaluated with numpy in blocks of ceil(sqrt(#arcs))
  arcs, each search resumes where the previous one stopped, and the best arc
  of the first block holding an eligible arc enters.  Two numpy facts make
  the best arc one complex argmin: complex + and - act on each part alone,
  so a reduced cost's parts are the float sums, bit for bit; and argmin
  orders by real part, then imaginary part, returning the first index on
  ties.  So the least M part wins, then the least float part, and the arc
  enters if (M part, float part) < (0, -tol).  Basic arcs are priced at
  +inf i; a basic real arc's M part is exactly 0 (the M coefficients are
  whole numbers), so no argmin picks one over an eligible arc.  Once the M
  coefficients of all real nodes are equal (their sum says when), every
  real arc's M part is 0 and stays 0, so pricing compares the float parts
  alone, with the imaginary parts of the prices and the potentials.
* Anti-cycling uses strongly feasible trees (Cunningham 1976): every tree
  arc carrying zero flow points toward the root.  The initial star is
  strongly feasible because a sink with zero demand gets its artificial arc
  oriented sink->root.  The leaving arc is the last blocking arc met when
  walking the pivot cycle from its apex in the direction of the entering
  arc (strict < on the tail side, <= on the head side, as in LEMON's
  findLeavingArc), which keeps the tree strongly feasible and the number of
  consecutive degenerate pivots finite.  The solve is deterministic.
* The tree is stored as each node's parent, the arc to it and that arc's
  orientation, and in preorder as in LEMON (Kiraly & Kovacs, Acta Univ.
  Sapientiae Inform. 4, 2012): the thread through every node from the root
  and back, its inverse, and each subtree's size and last node.  A pivot
  walks its cycle once: the climb to the apex steps whichever node has the
  smaller subtree, records both tree paths and keeps each side's blocking
  minimum, which gives the leaving arc; the flow update and the re-hang
  read the paths.  The re-hang relinks the thread along the stem it
  reverses and fixes sizes and last nodes on the paths: its Python steps
  count stem and path nodes, not subtree nodes.  The re-hung subtree is a
  run of the thread, and its potentials shift along it one Python float at
  a time through memoryviews of their two parts (a run is not contiguous
  in memory, so numpy would first have to gather it node by node).
* Reported dual potentials come from one pass over the final tree in
  preorder: each subtree hung from the root is a component, 0 at its top
  node, and complementary slackness fixes each node from its parent, which
  the pass has already reached.  With several components, their offsets
  are then raised by a longest-path relaxation until every allowed arc
  satisfies psi[j] - phi[i] >= c[i,j].  This keeps the artificial M-parts
  out of the duals and the duality gap at roundoff.

A DEBUG record on the "sublorentz" logger reports, per solve, the problem
size, the pivots, the degenerate pivots (zero step), the pivot after which
pricing dropped the M part (-1 if it never did) and the stranded mass.
Until something else has loaded the logging module, nothing can have
enabled that logger, so the solve does not load it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NoCausalCoupling

_MASS_TOL = 1e-12
_PIVOT_TOL = 1e-12
_RELAX_TOL = 1e-13
_MAX_PIVOTS = 200000


def longest_path(n_nodes, tail, head, weight):
    """Least pi >= 0 with pi[head] >= pi[tail] + weight on every edge.

    tail, head and weight are equal-length arrays of edges over nodes
    0..n_nodes-1.  Jacobi rounds of the Bellman-Ford relaxation raise pi
    where an edge demands more than 1e-13 above it.  Returns (pi, None), or
    (None, cycle) when the edges carry a positive cycle: cycle holds the
    indices of the edges that last raised its nodes, in walk order, so
    head[cycle[k]] == tail[cycle[k - 1]].  That happens after n_nodes + 1
    rounds, when the raising edges always close a cycle, or as soon as they
    close one heavier than its length times 1e-13 plus a roundoff allowance.
    The allowance bounds the rounding of every potential the full rounds
    could still reach (at most n_nodes + 1 times the largest weight), not
    just of today's, so no potentials can then satisfy the cycle within the
    tolerance and the full rounds end in a cycle too.  That early test starts
    at round 16 and runs every fourth round, so short searches never pay for
    it.  Every caller passes gains divided by 2**gain_exponent(largest gain),
    into [1, 2).  Where potentials still exceed about 1e3, one ulp exceeds
    1e-13, so a cycle of weight 0 can creep up by ulps and come back.
    """
    if not len(tail):  # the zeros the first round would return
        return np.zeros(n_nodes), None
    # 2|pi| + |weight| + 1 stays below this on every round, so the rounding
    # of one edge's relaxation test is below 1.2e-16 times it
    scale = (2 * n_nodes + 3) * float(np.abs(weight).max(initial=0.0)) + 1.0
    pi = np.zeros(n_nodes)
    via = np.full(n_nodes, -1)  # edge that last raised each node
    for rounds in range(n_nodes + 1):
        reach = pi[tail] + weight
        need = np.full(n_nodes, -np.inf)
        np.maximum.at(need, head, reach)
        rise = need > pi + _RELAX_TOL
        if not rise.any():
            return pi, None
        hit = np.flatnonzero(rise[head] & (reach == need[head]))
        via[head[hit]] = hit
        pi = np.where(rise, need, pi)
        if rounds >= 16 and rounds % 4 == 3:
            cycle = _raised_cycle(via, tail)
            w = weight[cycle]
            allowance = cycle.size * (_RELAX_TOL + 1e-15 * scale) + 1e-15 * float(np.abs(w).sum())
            if float(w.sum()) > allowance:
                return None, cycle
    return None, _raised_cycle(via, tail)


def _raised_cycle(via, tail):
    """Edges of a cycle that the raising edges close, in walk order; empty
    when they close none."""
    n = via.size
    up = np.append(np.where(via >= 0, tail[via], n), n)  # node n: no raiser
    for _ in range(max(1, n.bit_length())):
        up = up[up]  # 2^k steps up the raising edges
    cyclic = np.flatnonzero(up[:n] < n)
    edges = []
    if cyclic.size:
        start = node = int(up[cyclic[0]])  # at least n steps up: on the cycle
        while not edges or node != start:
            edges.append(int(via[node]))
            node = int(tail[edges[-1]])
    return np.array(edges, dtype=int)


def gain_exponent(top):
    """The k with top * 2**-k in [1, 2), or 0 when top is 0 or not finite.
    The LP layer's tolerances apply to its gains divided by 2**k, top being
    the largest |gain|, so its answers scale exactly with the gains."""
    return math.frexp(top)[1] - 1 if 0.0 < top < math.inf else 0


def solve_max_transport(values, allowed, supplies, demands):
    """Solve the maximization transportation problem.

    values: (n, m) array of arc gains, finite on allowed arcs; entries at
    disallowed arcs are ignored, so forbid an arc there, not with -inf.
    allowed: (n, m) boolean array of admissible arcs.
    supplies/demands: finite nonnegative vectors with equal sums.

    Returns (x, phi, psi) with x the optimal (n, m) mass matrix and duals
    satisfying psi[j] - phi[i] >= c[i,j] on allowed arcs, with equality on
    every basic (hence every support) arc.  Raises NoCausalCoupling when the
    allowed-arc structure cannot route the full mass, and ValueError naming
    the entry on a non-finite gain or marginal or a negative marginal.

    The pivot and relaxation tolerances apply to the gains divided by 2**k,
    k = gain_exponent(largest allowed |gain|); the duals are scaled back.
    """
    c = np.asarray(values, dtype=float)
    ok = np.asarray(allowed, dtype=bool)
    a = [float(v) for v in supplies]
    b = [float(v) for v in demands]
    n, m = c.shape
    if ok.shape != (n, m) or len(a) != n or len(b) != m:
        raise ValueError("inconsistent problem dimensions")
    for name, marginal in (("supply", a), ("demand", b)):
        for i, v in enumerate(marginal):
            if not 0.0 <= v < math.inf:  # also nan
                raise ValueError(f"{name} {i} is {v!r}; marginals must be finite and >= 0")
    if abs(sum(a) - sum(b)) > 1e-9:
        raise ValueError("supplies and demands must balance")

    # Nodes: sources 0..n-1, sinks n..n+m-1, root n+m.  Arcs: the allowed
    # real arcs 0..n_real-1 in row-major order, then node u's artificial arc
    # n_real+u.
    root = n + m
    src, dst = np.nonzero(ok)
    n_real = src.size
    tails = src
    heads = n + dst
    tail_of, head_of = tails.tolist(), heads.tolist()
    cost = -c[src, dst]
    if not np.isfinite(cost).all():
        e = int(np.isfinite(cost).argmin())
        raise ValueError(f"gain {float(-cost[e])!r} on allowed arc ({src[e]}, {dst[e]}) is not finite")
    scale = gain_exponent(float(np.abs(cost).max(initial=0.0)))
    cost = np.ldexp(cost, -scale)
    # arc prices as M part + i * float part, like the potentials pi, with
    # +inf float part on basic arcs, so that no argmin picks one; set parts
    # through .real and .imag, since 1j * inf is nan + inf j
    price_mf = np.zeros(n_real, dtype=complex)
    price_mf_f = price_mf.imag
    price_mf_f[:] = cost
    flow = [0.0] * n_real + a + b

    parent = [root] * root + [-1]
    pred = [n_real + u for u in range(root)] + [-1]
    up = [True] * (root + 1)  # tree arc of u points u -> parent[u]
    # The tree in preorder, from the root and back: thread[u] follows u,
    # rev[u] precedes it, and u's subtree is the size[u] nodes to last[u].
    thread = list(range(1, root + 1)) + [0]
    rev = [root] + list(range(root))
    size = [1] * root + [root + 1]
    last = list(range(root)) + [root - 1]
    pi = np.zeros(root + 1, dtype=complex)
    pi_f, pi_m = pi.imag, pi.real
    pi_m[:root] = -1.0  # u -> root at cost M: pi_u = -M
    m_sum = -root  # of pi_m over the real nodes: flat at -root or root
    for j in range(m):
        if b[j] > 0.0:  # root -> sink at cost M: pi = +M
            up[n + j] = False
            pi_m[n + j] = 1.0
            m_sum += 2
    pf, pm = memoryview(pi_f), memoryview(pi_m)  # Python floats, one node at a time
    price_v, arc_cost = memoryview(price_mf_f), cost.tolist()

    block = math.isqrt(n_real - 1) + 1 if n_real else 1
    blocks = [
        (lo, tails[lo:lo + block], heads[lo:lo + block], price_mf[lo:lo + block], price_mf_f[lo:lo + block])
        for lo in range(0, n_real, block)
    ]
    n_blocks, next_block = len(blocks), 0
    pivots = degenerate = 0
    m_flat_at = -1  # the pivot after which pi_m was constant on the real nodes
    while True:
        # Block search: the best eligible arc of the first block holding one.
        entering = -1
        for scan in range(n_blocks):
            lo, t, h, block_mf, block_price = blocks[(next_block + scan) % n_blocks]
            if m_flat_at < 0:  # the least M part decides, then the float part
                rc = block_mf + pi[t] - pi[h]
                k = int(rc.argmin())
                sigma = rc.item(k)
                sigma_m, sigma_f = sigma.real, sigma.imag
            else:
                rc = block_price + pi_f[t] - pi_f[h]
                k = int(rc.argmin())
                sigma_m, sigma_f = 0.0, rc.item(k)
            if (sigma_m, sigma_f) < (0.0, -_PIVOT_TOL):
                entering = lo + k
                next_block = (next_block + scan + 1) % n_blocks
                break
        if entering < 0:
            break
        if pivots == _MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded; this indicates a solver bug")
        pivots += 1

        # The cycle runs tail -> head along the entering arc, then up the
        # tree from head to the apex and down from the apex to tail.  The
        # climb steps the node with the smaller subtree, never an ancestor
        # of the other, and keeps both tree paths for the steps below.  It
        # finds the leaving arc too: the tail side keeps its first least
        # flow (<), the head side its last (<=), which also wins a tie.
        first, second = tail_of[entering], head_of[entering]
        path_first, path_second = [], []
        theta_first = theta_second = math.inf
        cut_first = cut_second = -1
        u, v = first, second
        while u != v:
            if size[u] < size[v]:
                if up[u] and (f := flow[pred[u]]) < theta_first:
                    theta_first, cut_first = f, len(path_first)
                path_first.append(u)
                u = parent[u]
            else:
                if not up[v] and (f := flow[pred[v]]) <= theta_second:
                    theta_second, cut_second = f, len(path_second)
                path_second.append(v)
                v = parent[v]
        apex = u
        if theta_second <= theta_first:
            theta, path, i = theta_second, path_second, cut_second
        else:
            theta, path, i = theta_first, path_first, cut_first
        if i < 0:
            raise AssertionError("transportation cycle without reverse arc")

        if theta > 0.0:
            flow[entering] = theta
            for u in path_first:
                flow[pred[u]] += -theta if up[u] else theta
            for u in path_second:
                flow[pred[u]] += theta if up[u] else -theta
        else:
            degenerate += 1

        leaving = pred[path[i]]
        price_v[entering] = math.inf
        if leaving < n_real:
            price_v[leaving] = arc_cost[leaving]

        # Re-hang the subtree that the leaving arc cuts off below u_out from
        # v_in, reversing the stem path[:i + 1] from the entering arc's end
        # u_in up to u_out (LEMON's updateTreeStructure).  The new run
        # follows v_in in the thread: u_in's subtree, then each stem node
        # above it with the rest of its subtree.
        if path is path_first:
            u_in, v_in, new_up, grown = first, second, True, path_second
        else:
            u_in, v_in, new_up, grown = second, first, False, path_first
            sigma_f, sigma_m = -sigma_f, -sigma_m
        u_out = path[i]
        v_out = parent[u_out]
        old_rev, old_size, old_last = rev[u_out], size[u_out], last[u_out]
        if i == 0:  # the subtree moves whole
            end = old_last
            if thread[v_in] != u_in:
                after = thread[old_last]
                thread[old_rev], rev[after] = after, old_rev
                after = thread[v_in]
                thread[v_in], rev[u_in] = u_in, v_in
                thread[old_last], rev[after] = after, old_last
        else:
            cont = thread[old_last] if old_rev == v_in else thread[v_in]
            thread[v_in] = u_in
            relinked = [v_in]
            end = last[u_in]
            after = thread[end]
            for k in range(i):
                stem, above = path[k], path[k + 1]
                thread[end] = above  # above and its subtree less stem's
                relinked.append(end)
                before = rev[stem]
                thread[before], rev[after] = after, before
                end = before if last[above] == last[stem] else last[above]
                after = thread[end]
            thread[end], rev[cont] = cont, end
            if old_rev != v_in:
                thread[old_rev], rev[after] = after, old_rev
            for u in relinked:
                rev[thread[u]] = u
            for k in range(i, 0, -1):  # top down, so path[k - 1] still has its old arc
                u, w = path[k], path[k - 1]
                parent[u], pred[u], up[u], size[u], last[u] = w, pred[w], not up[w], old_size - size[w], end
        parent[u_in], pred[u_in], up[u_in], size[u_in], last[u_in] = v_in, entering, new_up, old_size, end

        # Only the ancestors of v_in and v_out change their last node (up
        # to the apex, or above it when the run ends there) and their size
        # (below the apex).
        limit = apex if last[apex] == v_in else -1
        u = v_in
        while u >= 0 and last[u] == v_in:
            last[u] = end
            u = parent[u]
        fix = end if old_rev == apex or old_rev == v_in else old_rev
        u = v_out
        while u != limit and last[u] == old_last:
            last[u] = fix
            u = parent[u]
        for u in grown:
            size[u] += old_size
        for u in path[i + 1:]:
            size[u] -= old_size

        # Potentials change only on the re-hung subtree, the run from u_in.
        u = u_in
        if sigma_m:
            for _ in range(old_size):
                pf[u] -= sigma_f
                pm[u] -= sigma_m
                u = thread[u]
            m_sum -= sigma_m * old_size
            if abs(m_sum) == root:
                m_flat_at = pivots
        else:
            for _ in range(old_size):
                pf[u] -= sigma_f
                u = thread[u]

    # mass the real arcs leave unrouted: unshipped supply, unmet demand
    unshipped = sum(f for f in flow[n_real:n_real + n] if f > _MASS_TOL)
    unmet = sum(f for f, d in zip(flow[n_real + n:], b) if d > 0.0 and f > _MASS_TOL)
    stranded = max(unshipped, unmet)
    logging = sys.modules.get("logging")
    if logging and (log := logging.getLogger("sublorentz")).isEnabledFor(logging.DEBUG):
        log.debug(
            "solve_max_transport n=%d m=%d pivots=%d degenerate=%d m_flat_at=%d stranded=%.3e",
            n, m, pivots, degenerate, m_flat_at, stranded,
        )
    if stranded > _MASS_TOL:
        raise NoCausalCoupling(
            f"no admissible coupling: {stranded:.3e} mass cannot be routed"
        )

    masses = np.zeros((n, m))
    masses[src, dst] = flow[:n_real]

    # Duals from the real arcs of the tree, in one pass in preorder: each
    # subtree hung from the root is a component, 0 at its top node, and
    # complementary slackness fixes each node below from its parent.
    pot, comp, k = [0.0] * root, [0] * root, -1  # k: the last label
    u = thread[root]
    while u != root:
        p = parent[u]
        if p == root:
            k += 1
        else:
            pot[u] = pot[p] + arc_cost[pred[u]] if up[u] else pot[p] - arc_cost[pred[u]]
        comp[u] = k
        u = thread[u]
    pot = np.array(pot)

    # Component offsets: delta[B] - delta[A] >= c_ij - (psi_j - phi_i) for
    # every allowed cross-component arc.  Converges because an improving
    # cycle would contradict primal optimality.  One component needs none.
    if k > 0:
        comp = np.array(comp)
        ca, cb = comp[tails], comp[heads]
        cross = ca != cb
        gain = -cost - (pot[heads] - pot[tails])
        delta, _ = longest_path(k + 1, ca[cross], cb[cross], gain[cross])
        if delta is None:
            raise AssertionError("dual offsets failed to stabilize")
        pot += delta[comp]
    pot = np.ldexp(pot, scale)
    return masses, pot[:n], pot[n:]
