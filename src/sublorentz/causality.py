"""Causal structure and time separation on the Heisenberg group.

After left-translating q0 to the identity, the causal future of the identity
is the set {x >= 0, -x^2 + y^2 + 4|z| <= 0} and its interior is the
chronological future.  The time separation tau(q0, q) (sup of lengths of
causal curves joining the points) has an explicit form built from the
inverse of

    alpha(t) = (sinh(2t) - 2t) / (8 sinh(t)^2),

an odd, strictly increasing bijection of the real line onto (-1/4, 1/4).

One cone test, :func:`cone_state`, decides both causal relations.  It
compares the cone form F with DEFAULT_SLACK = 1e-12 times
S = x^2 + y^2 + 4|z|, and x with DEFAULT_SLACK times sqrt(S).  F and S scale
alike under the dilations (x, y, z) -> (l x, l y, l^2 z), so the verdict does
not depend on the scale of the pair.  A point within that relative slack of
the boundary counts as null: the planar point (1, 1 - 1e-13, 0) is null,
though it is timelike.

Each kernel comes twice.  The scalar functions (``classify``, ``tau``,
``beta``) take GroupPoints and serve single pairs.  The array kernels
(``classify_array``, ``tau_array``, ``beta_array``) take float arrays whose
last axis holds (x, y, z) and broadcast over the leading axes, so one call
covers every pair of two atom families.  Both apply ``cone_state`` to
``heisenberg.group_difference``, which takes arrays too, so their masks
agree bit for bit.  ``beta_array`` is the scalar safeguarded Newton iteration run
on the entries that have not converged yet; numpy's sinh and cosh may differ
from the math module's in the last bit, so values agree to roundoff.  In
both, the bracket test's evaluation of alpha at 8|zeta| is the first Newton
point, so alpha is evaluated once per point.

Only the array kernels import numpy, inside their bodies, so the scalar
layers (this module, ``heisenberg``, ``geodesics``) load without it.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import NotCausalChain, NotChronological, OutOfDomain
from .heisenberg import GroupPoint, group_difference

DEFAULT_SLACK = 1e-12


class PlanarPoint(NamedTuple):
    x: float
    y: float


class CausalRelation(enum.Enum):
    CHRONOLOGICAL = "Chronological"
    CAUSAL_NULL = "CausalNull"
    UNRELATED = "Unrelated"


def cone_state(x, y, z):
    """(chronological, causal) verdicts on a group difference (x, y, z).

    With F = -x^2 + y^2 + 4|z|, S = x^2 + y^2 + 4|z| and slack =
    DEFAULT_SLACK, the pair is chronological when F < -slack S and x > 0, and
    causal (chronological or null) when F <= slack S and x >= -slack sqrt(S).
    Written in & / abs arithmetic, so x, y, z may be floats or numpy arrays
    of one shape.
    """
    xx = x * x
    r = y * y + 4.0 * abs(z)
    f = r - xx
    s = r + xx
    del xx, r  # on large arrays, fewer temporaries alive at once
    chronological = (f < -DEFAULT_SLACK * s) & (x > 0.0)
    causal = (f <= DEFAULT_SLACK * s) & (x >= -DEFAULT_SLACK * s**0.5)
    return chronological, causal


def classify(q0: GroupPoint, q: GroupPoint) -> CausalRelation:
    """Causal relation of q relative to q0.

    Applies :func:`cone_state` to the group difference q0^{-1} q: F < 0
    with x > 0 is the open chronological future, F = 0 with x >= 0 the null
    boundary (reachable, zero time separation).  The slack absorbs roundoff
    on points constructed to lie on the boundary.  It is relative: F is
    compared with DEFAULT_SLACK * S, S = x^2 + y^2 + 4|z|, so a pair with
    x > 0 is null when |F| <= DEFAULT_SLACK * S, whatever its scale.
    """
    d = group_difference(q0, q)
    chronological, causal = cone_state(d.x, d.y, d.z)
    if chronological:
        return CausalRelation.CHRONOLOGICAL
    if causal:
        return CausalRelation.CAUSAL_NULL
    return CausalRelation.UNRELATED


def _differences(a, b):
    """group_difference of broadcast point arrays whose last axis is (x, y, z)."""
    import numpy as np

    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return group_difference(GroupPoint(a[..., 0], a[..., 1], a[..., 2]), GroupPoint(b[..., 0], b[..., 1], b[..., 2]))


def classify_array(a, b):
    """(chronological, causal) masks of the pairs (a, b).

    a and b are float arrays whose last axis holds (x, y, z); the leading
    axes broadcast, so ``classify_array(p[:, None], q[None, :])`` tests every
    pair of two families.  Entry by entry the masks are those of
    :func:`classify`.
    """
    return cone_state(*_differences(a, b))


# Series branches: the closed forms for alpha and alpha' lose digits to
# cancellation near 0, so below the pinned thresholds we use the leading
# Taylor terms instead.  Three terms keep the error far below 1e-13 at the
# switch point.

_ALPHA_SERIES_CUT = 1e-3


def _alpha_pair(t: float):
    """(alpha(t), alpha'(t)) for a float t, sharing one sinh(t)."""
    if abs(t) < _ALPHA_SERIES_CUT:
        t2 = t * t
        a = t * (1.0 / 6.0 + t2 * (-1.0 / 45.0 + t2 / 315.0))
        return a, 1.0 / 6.0 + t2 * (-1.0 / 15.0 + t2 / 63.0)
    sh = math.sinh(t)
    a = (math.sinh(2.0 * t) - 2.0 * t) / (8.0 * sh * sh)
    return a, 0.5 - 2.0 * a * (math.cosh(t) / sh)


def alpha(t: float) -> float:
    """(sinh(2t) - 2t) / (8 sinh(t)^2), extended by alpha(0) = 0.

    Odd and strictly increasing with range (-1/4, 1/4).
    """
    return _alpha_pair(t)[0]


def alpha_prime(t: float) -> float:
    """Derivative of alpha; equals 1/2 - 2 alpha(t) coth(t) away from 0."""
    return _alpha_pair(t)[1]


_BETA_TOL = 1e-13
_BETA_MAX_ITER = 200
_BETA_HI_CAP = 64.0  # alpha(64) is within 1e-50 of 1/4; no double below 1/4 needs more


def beta(zeta: float) -> float:
    """Inverse of alpha on (-1/4, 1/4).

    Safeguarded Newton iteration from 8|zeta|, where the bracket test's
    alpha is the first Newton point, so alpha is evaluated once per point.
    Steps that leave the current bracket fall back to bisection, so
    convergence is unconditional.  Raises OutOfDomain for |zeta| >= 1/4.
    """
    if not abs(zeta) < 0.25:
        raise OutOfDomain(f"beta requires |zeta| < 1/4, got {zeta!r}")
    if zeta == 0.0:
        return 0.0
    sign = 1.0 if zeta > 0.0 else -1.0
    target = abs(zeta)

    lo = 0.0
    b = 8.0 * target
    hi = b if b > 1e-8 else 1e-8  # max(b, 1e-8), without the cost of a builtin call
    # Below the floor (8|zeta| < 1e-8) alpha(b) ~ 4|zeta|/3 and alpha(hi) both
    # reach |zeta|, so the bracket test at b grows the same brackets as at hi.
    a, df = _alpha_pair(b)
    grow = a < target
    while grow:
        hi *= 2.0
        if hi > _BETA_HI_CAP:
            break
        grow = _alpha_pair(hi)[0] < target

    for _ in range(_BETA_MAX_ITER):
        f = a - target
        if abs(f) <= _BETA_TOL:
            break
        if f > 0.0:
            hi = b
        else:
            lo = b
        nb = b - f / df if df > 0.0 else lo
        b = nb if lo < nb < hi else 0.5 * (lo + hi)
        if hi - lo <= 1e-16 * (hi if hi > 1.0 else 1.0):
            break
        a, df = _alpha_pair(b)
    return sign * b


def _alpha_terms(t):
    """alpha and alpha' on an array of t > 0, with the scalar series branch."""
    import numpy as np

    small = t < _ALPHA_SERIES_CUT
    some_small = small.any()
    tc = np.where(small, 1.0, t) if some_small else t
    sh = np.sinh(tc)
    a = (np.sinh(2.0 * tc) - 2.0 * tc) / (8.0 * sh * sh)
    da = 0.5 - 2.0 * a * (np.cosh(tc) / sh)
    if some_small:
        ts = t[small]
        t2 = ts * ts
        a[small] = ts * (1.0 / 6.0 + t2 * (-1.0 / 45.0 + t2 / 315.0))
        da[small] = 1.0 / 6.0 + t2 * (-1.0 / 15.0 + t2 / 63.0)
    return a, da


def beta_array(zeta) -> np.ndarray:
    """:func:`beta` on every entry of an array.

    The same bracket growth, Newton steps, bisection fallback and stop rules
    as the scalar iteration, with the bracket test as the first Newton round;
    each round works only on the entries that have not stopped yet.
    """
    import numpy as np

    zeta = np.asarray(zeta, float)
    if not np.all(np.abs(zeta) < 0.25):
        raise OutOfDomain("beta requires |zeta| < 1/4 on every entry")
    out = np.zeros(zeta.size)
    at = np.flatnonzero(zeta)
    target = np.abs(zeta.ravel()[at])
    b = 8.0 * target
    hi = np.maximum(b, 1e-8)  # as in beta, floored entries pass the bracket test at b
    a, da = _alpha_terms(b)
    grow = np.flatnonzero(a < target)
    while grow.size:
        hi[grow] *= 2.0
        grow = grow[hi[grow] <= _BETA_HI_CAP]
        grow = grow[_alpha_terms(hi[grow])[0] < target[grow]]

    lo = np.zeros_like(b)
    for _ in range(_BETA_MAX_ITER):
        f = a - target
        done = np.abs(f) <= _BETA_TOL
        over = f > 0.0
        hi = np.where(over, b, hi)
        lo = np.where(over, lo, b)
        newton = da > 0.0
        nb = np.where(newton, b - f / np.where(newton, da, 1.0), lo)
        step = np.where((lo < nb) & (nb < hi), nb, 0.5 * (lo + hi))
        b = np.where(done, b, step)
        done |= hi - lo <= 1e-16 * np.maximum(1.0, hi)
        if done.any():
            out[at[done]] = b[done]
            go = ~done
            at, target, b, lo, hi = at[go], target[go], b[go], lo[go], hi[go]
        if not at.size:
            break
        a, da = _alpha_terms(b)
    out[at] = b
    return np.copysign(out.reshape(zeta.shape), zeta)


def tau(q0: GroupPoint, q: GroupPoint) -> float:
    """Time separation between q0 and q.

    Zero unless q is in the open chronological future of q0; there, with
    (x, y, z) the group difference, m = x^2 - y^2 and b = beta(z / m),

        tau = sqrt(m) * b / sinh(b)      (= sqrt(m) at b = 0).

    Pairs that :func:`classify` calls null, within DEFAULT_SLACK * S of the
    boundary, get tau = 0.
    """
    d = group_difference(q0, q)
    if not cone_state(d.x, d.y, d.z)[0]:
        return 0.0
    return _twist_and_separation(d)[1]


def _twist_and_separation(d: GroupPoint):
    """(b, tau) of a chronological group difference d: m = x^2 - y^2,
    b = beta(z / m) and tau = sqrt(m) * b / sinh(b), or sqrt(m) at b = 0."""
    m = (d.x - d.y) * (d.x + d.y)
    b = beta(d.z / m)
    if b == 0.0:
        return b, math.sqrt(m)
    return b, math.sqrt(m) * b / math.sinh(b)


def tau_array(a, b):
    """(tau, causal) over the broadcast pairs (a, b) of :func:`classify_array`.

    tau is zero off the chronological mask and given by the formula of
    :func:`tau` on it; only chronological entries reach ``beta_array``.
    """
    import numpy as np

    x, y, z = _differences(a, b)
    chronological, causal = cone_state(x, y, z)
    x, y, z = x[chronological], y[chronological], z[chronological]
    m = (x - y) * (x + y)
    bt = beta_array(z / m)
    t = np.sqrt(m)
    twisted = bt != 0.0
    t[twisted] = t[twisted] * bt[twisted] / np.sinh(bt[twisted])
    out = np.zeros(chronological.shape)
    out[chronological] = t
    return out, causal


def minkowski_tau(u: PlanarPoint, v: PlanarPoint) -> float:
    """Time separation in the Minkowski plane with cone {dx >= |dy|}."""
    dx = v.x - u.x
    dy = v.y - u.y
    if dx < abs(dy):
        return 0.0
    return math.sqrt((dx - dy) * (dx + dy))


def causal_diamond_bbox(q0: GroupPoint, q1: GroupPoint):
    """Axis-aligned box containing the causal diamond J+(q0) n J-(q1).

    Returned in coordinates translated so q0 sits at the identity:
    ((0, x1), (-x1, x1), (-x1^2/4, x1^2/4)) with x1 the first coordinate of
    the group difference.  Requires q1 chronologically after q0.
    """
    if classify(q0, q1) is not CausalRelation.CHRONOLOGICAL:
        raise NotChronological(f"{q1!r} is not chronologically after {q0!r}")
    x1 = group_difference(q0, q1).x
    zmax = 0.25 * x1 * x1
    return ((0.0, x1), (-x1, x1), (-zmax, zmax))


def tau_partition_length(points) -> float:
    """Sum of tau over consecutive pairs of a causal chain.

    Raises NotCausalChain when some consecutive pair is unrelated.  On exact
    geodesic samples the sum is independent of the partition; on generic
    causal curves it decreases as the partition refines, approaching the
    curve's length from above.
    """
    total = 0.0
    for k in range(len(points) - 1):
        a, b = points[k], points[k + 1]
        if classify(a, b) is CausalRelation.UNRELATED:
            raise NotCausalChain(f"points {k} and {k + 1} are causally unrelated")
        total += tau(a, b)
    return total
