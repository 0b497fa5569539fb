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
covers every pair of two atom families.  Both apply ``cone_state`` to the
plain (x, y, z) of ``heisenberg._difference``, the one difference kernel,
on floats or on arrays, so their masks agree bit for bit; no GroupPoint is
built for the difference.  ``beta`` and ``beta_array`` run one
straight-line kernel, a fixed number of Newton steps from a closed-form
start, on floats or on arrays: the twist half writes its two steps out, the
null half loops over its four.  They still differ where numpy's cosh,
expm1 and log differ from the math module's in the last bit: by up to
2 ulp for |zeta| <= 0.2, where cosh does, and up to 4 ulp beyond, the
largest differences in 5.4 million seeded draws with numpy 2.4 on x86-64.

Only the array kernels import numpy, inside their bodies, so the scalar
layers (this module, ``heisenberg``, ``geodesics``) load without it.
"""

from __future__ import annotations

import enum
import math

from .errors import NotCausalChain, NotChronological, OutOfDomain
from .heisenberg import GroupPoint, _difference

DEFAULT_SLACK = 1e-12


class CausalRelation(enum.Enum):
    CHRONOLOGICAL = "Chronological"
    CAUSAL_NULL = "CausalNull"
    UNRELATED = "Unrelated"


# the members in definition order, bound once: classify looks up none per call
_CHRONOLOGICAL, _CAUSAL_NULL, _UNRELATED = CausalRelation


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
    chronological, causal = cone_state(*_difference(q0, q))
    if chronological:
        return _CHRONOLOGICAL
    if causal:
        return _CAUSAL_NULL
    return _UNRELATED


def _differences(a, b):
    """(x, y, z) differences of broadcast point arrays whose last axis is (x, y, z)."""
    import numpy as np

    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return _difference((a[..., 0], a[..., 1], a[..., 2]), (b[..., 0], b[..., 1], b[..., 2]))


def classify_array(a, b):
    """(chronological, causal) masks of the pairs (a, b).

    a and b are float arrays whose last axis holds (x, y, z); the leading
    axes broadcast, so ``classify_array(p[:, None], q[None, :])`` tests every
    pair of two families.  Entry by entry the masks are those of
    :func:`classify`.
    """
    return cone_state(*_differences(a, b))


# beta, the inverse of alpha, is a fixed number of Newton steps from a
# closed-form start: no bracket, no bisection and no stop rule.  Its two
# halves use only arithmetic that floats and numpy arrays share, with cosh,
# expm1 and log taken from ``lib`` (math or numpy), so beta and beta_array
# run the same code:
# - |zeta| <= _TWIST_CUT, where b <= 1.6: two steps on alpha(b) = |zeta| from
#   a least-squares fit of beta(zeta) / (6 zeta) on [0, 0.2] by a ratio of
#   quadratics in zeta^2, good to 2e-5;
# - |zeta| > _TWIST_CUT: alpha' falls like b e^(-2b), so b is taken from
#   eta = 1/4 - |zeta|, exact by Sterbenz's lemma: four steps on
#   log 2g(b) = log 2 eta, g = 1/4 - alpha, from (L + log(L - 1)) / 2, the
#   first-order root of 2b - log(2b - 1) = L = -log 2 eta.

_TWIST_CUT = 0.2


def _alpha_pair(t, lib):
    """(alpha(t), alpha'(t)) for 0 <= t <= 1.6, t a float or an array.

    alpha = t P / S^2 and alpha' = 1/2 - 2 alpha coth t = 1/2 - 2 P cosh(t) / S^3,
    with P = (sinh 2t - 2t) / (8 t^3) = sum 4^k t^2k / (2k + 3)! and
    S = sinh(t) / t = sum t^2k / (2k + 1)! summed as 13- and 11-term Taylor
    series, which hold to 1e-17 up to t = 1.6.  Nothing cancels or underflows
    near 0, and alpha is the same bits on floats and arrays.
    """
    u = t * t
    p = 1 / 6 + u * (1 / 30 + u * (1 / 315 + u * (1 / 5670 + u * (1 / 155925 + u * (1 / 6081075 + u * (
        2 / 638512875 + u * (1 / 21709437750 + u * (1 / 1856156927625 + u * (1 / 194896477400625 + u * (
            2 / 49308808782358125 + u * (1 / 3698160658676859375 + u * (2 / 1298054391195577640625))))))))))))
    s = 1.0 + u * (1 / 6 + u * (1 / 120 + u * (1 / 5040 + u * (1 / 362880 + u * (1 / 39916800 + u * (
        1 / 6227020800 + u * (1 / 1307674368000 + u * (1 / 355687428096000 + u * (
            1 / 121645100408832000 + u * (1 / 51090942171709440000))))))))))
    ps2 = p / (s * s)
    return t * ps2, 0.5 - 2.0 * ps2 / s * lib.cosh(t)


def _log_2g_pair(t, lib):
    """(log 2g(t), its derivative) for t > 0, a float or an array, g = 1/4 - alpha.

    With e = expm1(-2t), g = (2t + e)(1 + e) / (2 e^2) and 1 + e = exp(-2t),
    so log 2g = log((2t + e) / e^2) - 2t, which overflows at no t.
    """
    e = lib.expm1(-2.0 * t)
    s = 2.0 * t + e
    return lib.log(s / (e * e)) - 2.0 * t, 2.0 * (2.0 + e) / e - 2.0 * e / s


def alpha(t: float) -> float:
    """(sinh(2t) - 2t) / (8 sinh(t)^2), extended by alpha(0) = 0.

    Odd and strictly increasing with range (-1/4, 1/4).  The series of
    ``_alpha_pair`` up to |t| = 1.6, 1/4 - g beyond, and the limit +-1/4 at
    t = +-inf, where log 2g would be inf - inf.  nan stays nan.
    """
    a = abs(t)
    if a == math.inf:
        return math.copysign(0.25, t)
    v = _alpha_pair(a, math)[0] if a <= 1.6 else 0.25 - 0.5 * math.exp(_log_2g_pair(a, math)[0])
    return v if t >= 0.0 else -v


def _beta_twist(z, lib):
    """beta(z) for 0 <= z <= _TWIST_CUT: two Newton steps on alpha(b) = z, written out."""
    v = z * z
    b = 6.0 * z * (1.0 + v * (-14.8304 + 30.1624 * v)) / (1.0 + v * (-19.6296 + 79.7965 * v))
    a, da = _alpha_pair(b, lib)
    b = b - (a - z) / da
    a, da = _alpha_pair(b, lib)
    return b - (a - z) / da


def _beta_null(eta, lib):
    """beta(1/4 - eta) for 0 < eta < 1/4 - _TWIST_CUT: four Newton steps on
    log 2g(b) = log 2 eta."""
    big_l = -lib.log(2.0 * eta)
    b = 0.5 * (big_l + lib.log(big_l - 1.0))
    for _ in range(4):
        h, dh = _log_2g_pair(b, lib)
        b = b - (h + big_l) / dh
    return b


def beta(zeta: float) -> float:
    """Inverse of alpha on (-1/4, 1/4), within 2e-15 relative of the true root.

    Raises OutOfDomain for |zeta| >= 1/4.
    """
    a = abs(zeta)
    if not a < 0.25:
        raise OutOfDomain(f"beta requires |zeta| < 1/4, got {zeta!r}")
    b = _beta_twist(a, math) if a <= _TWIST_CUT else _beta_null(0.25 - a, math)
    return b if zeta >= 0.0 else -b


def beta_array(zeta) -> np.ndarray:
    """:func:`beta` on every entry of an array, by the same two halves."""
    import numpy as np

    zeta = np.asarray(zeta, float)
    a = np.abs(zeta)
    if not np.all(a < 0.25):
        raise OutOfDomain("beta requires |zeta| < 1/4 on every entry")
    b = np.empty(zeta.shape)
    twist = a <= _TWIST_CUT
    if twist.any():  # an empty half costs as much as a small one
        b[twist] = _beta_twist(a[twist], np)
    if not twist.all():
        b[~twist] = _beta_null(0.25 - a[~twist], np)
    return np.copysign(b, zeta)


def tau(q0: GroupPoint, q: GroupPoint) -> float:
    """Time separation between q0 and q.

    Zero unless q is in the open chronological future of q0; there, with
    (x, y, z) the group difference, m = x^2 - y^2 and b = beta(z / m),

        tau = sqrt(m) * b / sinh(b)      (= sqrt(m) at b = 0).

    Pairs that :func:`classify` calls null, within DEFAULT_SLACK * S of the
    boundary, get tau = 0.
    """
    x, y, z = _difference(q0, q)
    if not cone_state(x, y, z)[0]:
        return 0.0
    return _twist_and_separation(x, y, z)[1]


def _twist_and_separation(x: float, y: float, z: float):
    """(b, tau) of a chronological group difference (x, y, z): m = x^2 - y^2,
    b = beta(z / m) and tau = sqrt(m) * b / sinh(b), or sqrt(m) at b = 0."""
    m = (x - y) * (x + y)
    b = beta(z / m)
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
    at = np.flatnonzero(chronological)
    x, y, z = x.take(at), y.take(at), z.take(at)
    m = (x - y) * (x + y)
    bt = beta_array(z / m)
    t = np.sqrt(m)
    np.divide(t * bt, np.sinh(bt), out=t, where=bt != 0.0)
    out = np.zeros(chronological.shape)
    out.put(at, t)
    return out, causal


def minkowski_tau(u, v) -> float:
    """Time separation in the Minkowski plane with cone {dx >= |dy|}, between
    any two points with .x and .y, such as GroupPoints; z is not read."""
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
    x1 = _difference(q0, q1)[0]
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
        x, y, z = _difference(points[k], points[k + 1])
        chronological, causal = cone_state(x, y, z)
        if chronological:
            total += _twist_and_separation(x, y, z)[1]
        elif not causal:
            raise NotCausalChain(f"points {k} and {k + 1} are causally unrelated")
    return total
