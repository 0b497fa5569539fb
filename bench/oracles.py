"""Independent numpy oracles for the benchmark's output checks.

Nothing here imports the library.  Group arithmetic, the geodesic flow and
the time separation are re-derived from their closed forms; alpha is
inverted by plain bisection instead of the library's safeguarded Newton, so
agreement between the two is evidence, not a tautology.  Points are arrays
whose last axis is (x, y, z); covectors are (hX, hY, hZ) frame components.
"""

from __future__ import annotations

import math

import numpy as np

# Pairs whose cone form F = -x^2 + y^2 + 4|z| lies within this share of
# x^2 + y^2 + 4|z| are too close to the null boundary to call either way in
# floating point; feasibility comparisons skip them.
NULL_MARGIN = 1e-9

_BISECT_STEPS = 120  # [0, 64] shrinks below 1e-34: past double resolution


def mul(a, b):
    """Group product a * b."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    z = a[..., 2] + b[..., 2] + 0.5 * (a[..., 0] * b[..., 1] - b[..., 0] * a[..., 1])
    return np.stack([a[..., 0] + b[..., 0], a[..., 1] + b[..., 1], z], axis=-1)


def difference(a, b):
    """a^{-1} * b: b as seen from a."""
    return mul(-np.asarray(a, float), b)


def dilate(p, lam):
    """delta_lam(x, y, z) = (lam x, lam y, lam^2 z)."""
    p = np.asarray(p, float)
    return np.stack([lam * p[..., 0], lam * p[..., 1], lam * lam * p[..., 2]], axis=-1)


def alpha(t):
    """(sinh 2t - 2t) / (8 sinh^2 t), by its Taylor series near 0."""
    t = np.asarray(t, float)
    small = np.abs(t) < 0.05
    ts = np.where(small, 1.0, t)
    sh = np.sinh(ts)
    closed = (np.sinh(2.0 * ts) - 2.0 * ts) / (8.0 * sh * sh)
    t2 = t * t
    series = t * (1.0 / 6.0 - t2 / 45.0 + t2 * t2 / 315.0 - 2.0 * t2 * t2 * t2 / 4725.0)
    return np.where(small, series, closed)


def beta(zeta):
    """Inverse of alpha on (-1/4, 1/4) by bisection on [0, 64]."""
    zeta = np.asarray(zeta, float)
    target = np.abs(zeta)
    lo = np.zeros_like(target)
    hi = np.full_like(target, 64.0)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        below = alpha(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.sign(zeta) * 0.5 * (lo + hi)


def null_distance(d):
    """|F| / (x^2 + y^2 + 4|z|) for F = -x^2 + y^2 + 4|z|: the scale-free
    distance of a group difference from the null boundary."""
    d = np.asarray(d, float)
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    scale = x * x + y * y + 4.0 * np.abs(z)
    return np.abs(y * y + 4.0 * np.abs(z) - x * x) / np.where(scale > 0.0, scale, 1.0)


def causal_state(d):
    """(chronological, feasible, near_null) masks of group differences d.

    feasible means chronological or on the null boundary; near_null marks
    the pairs within NULL_MARGIN of the boundary, whose feasibility is not
    decidable in floating point.
    """
    d = np.asarray(d, float)
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    f = -x * x + y * y + 4.0 * np.abs(z)
    near = null_distance(d) <= NULL_MARGIN
    chron = (f < 0.0) & (x > 0.0) & ~near
    feasible = (f <= 0.0) & (x >= 0.0)
    return chron, feasible, near


def tau_diff(d):
    """Time separation from the identity to d (zero off the open cone)."""
    d = np.asarray(d, float)
    chron, _, _ = causal_state(d)
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    m = np.where(chron, (x - y) * (x + y), 1.0)
    b = beta(np.where(chron, z / m, 0.0))
    safe = np.where(b == 0.0, 1.0, b)
    ratio = np.where(b == 0.0, 1.0, safe / np.sinh(safe))
    return np.where(chron, np.sqrt(m) * ratio, 0.0)


def tau(a, b):
    return tau_diff(difference(a, b))


def _f123(s):
    small = np.abs(s) < 1e-3
    ss = np.where(small, 1.0, s)
    s2 = s * s
    f1 = np.where(small, 1.0 + s2 / 6.0 + s2 * s2 / 120.0, np.sinh(ss) / ss)
    f2 = np.where(small, s * (0.5 + s2 / 24.0 + s2 * s2 / 720.0), (np.cosh(ss) - 1.0) / ss)
    f3 = np.where(
        small, 1.0 / 6.0 + s2 / 120.0 + s2 * s2 / 5040.0, (np.sinh(ss) - ss) / (ss * ss * ss)
    )
    return f1, f2, f3


def exp_map(p, cov):
    """Time-1 endpoint of the geodesic from p with frame covector cov."""
    cov = np.asarray(cov, float)
    u, v, w = cov[..., 0], cov[..., 1], cov[..., 2]
    f1, f2, f3 = _f123(w)
    step = np.stack([v * f2 - u * f1, v * f1 - u * f2, 0.5 * (u * u - v * v) * w * f3], axis=-1)
    return mul(p, step)


def energy(cov):
    cov = np.asarray(cov, float)
    return 0.5 * (cov[..., 0] ** 2 - cov[..., 1] ** 2)


def gain(t, p):
    """tau^p / p, zero at tau = 0."""
    t = np.asarray(t, float)
    return np.where(t > 0.0, np.abs(t) ** p / p, 0.0)


def cost(mu_atoms, nu_atoms, p):
    """(gain matrix, feasible mask, near-null mask) between two atom arrays."""
    d = difference(np.asarray(mu_atoms)[:, None, :], np.asarray(nu_atoms)[None, :, :])
    _, feasible, near = causal_state(d)
    return gain(tau_diff(d), p), feasible, near


def plan_certificate(masses, phi, psi, value, c, feasible, near, a, b):
    """Worst violation of the primal-dual optimality conditions, relative to
    the objective's scale: nonnegative masses with marginals a and b, no mass
    on forbidden arcs, psi_j - phi_i >= c_ij on allowed arcs, and primal,
    dual and reported objectives equal.  Near-null arcs may go either way.
    """
    masses = np.asarray(masses, float)
    scale = max(1.0, abs(value))
    allowed = feasible | near
    slack = psi[None, :] - phi[:, None] - c
    primal = float(np.sum(masses * c))
    dual = float(psi @ b - phi @ a)
    worst = max(
        float(-masses.min()),
        float(np.abs(masses.sum(axis=1) - a).max()),
        float(np.abs(masses.sum(axis=0) - b).max()),
        float(np.abs(np.where(allowed, 0.0, masses)).max()),
        float(-np.min(np.where(feasible & ~near, slack, np.inf))) / scale,
        abs(primal - value) / scale,
        abs(dual - value) / scale,
    )
    return worst


def highs_value(c, allowed, a, b):
    """Optimal value of max sum c x over the transportation polytope by
    scipy's HiGHS, or None when scipy does not import."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    n, m = c.shape
    arcs = np.flatnonzero(np.asarray(allowed).ravel())
    rows, cols = np.divmod(arcs, m)
    a_eq = np.zeros((n + m, arcs.size))
    a_eq[rows, np.arange(arcs.size)] = 1.0
    a_eq[n + cols, np.arange(arcs.size)] = 1.0
    res = linprog(
        -np.asarray(c).ravel()[arcs],
        A_eq=a_eq,
        b_eq=np.concatenate([a, b]),
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise ValueError(f"HiGHS did not solve the reference LP: {res.message}")
    return -float(res.fun)


def monotonicity_cycles(support: int, max_cycle: int = 6) -> int:
    """Number of distinct support cycles of length 2..max_cycle."""
    return sum(math.comb(support, k) * math.factorial(k - 1) for k in range(2, max_cycle + 1))
