"""Hamiltonian geodesic flow, exponential and logarithm maps.

The geodesic Hamiltonian system in left-invariant frame components
(hX, hY, hZ) of the momentum covector reads

    hX' = -hY hZ,   hY' = -hX hZ,   hZ' = 0,
    gamma' = -hX X + hY Y,

so hZ = w0 is conserved along with the energy E = (hX^2 - hY^2)/2.
Timelike future-directed covectors form the open cone hX < -|hY|.

From the identity with initial frame components (u0, v0, w0) and s = w0 t
the flow integrates in closed form:

    hX(t) = u0 cosh s - v0 sinh s
    hY(t) = v0 cosh s - u0 sinh s
    x(t)  = t (v0 f2(s) - u0 f1(s))
    y(t)  = t (v0 f1(s) - u0 f2(s))
    z(t)  = (u0^2 - v0^2) w0 t^3 f3(s) / 2

with f1 = sinh(s)/s, f2 = (cosh(s)-1)/s, f3 = (sinh(s)-s)/s^3 continued by
their limits at s = 0 (straight lines when w0 = 0).  For a general base
point the trajectory is the left translate of the identity trajectory and
the frame components are unchanged: that is the left-invariance that makes
the frame representation the right one to flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .causality import _twist_and_separation, cone_state
from .errors import NotChronological, OutOfDomain
from .heisenberg import (
    FrameCovector,
    GroupPoint,
    group_difference,
    is_future_timelike,
    mul,
)

# Below this |s| the f-helpers switch to 3-term series; the closed forms
# cancel catastrophically while the truncation error is ~s^6.
_SERIES_CUT = 1e-4


def _f1(s: float) -> float:
    if abs(s) < _SERIES_CUT:
        s2 = s * s
        return 1.0 + s2 / 6.0 + s2 * s2 / 120.0
    return math.sinh(s) / s


def _f2(s: float) -> float:
    if abs(s) < _SERIES_CUT:
        s2 = s * s
        return s * (0.5 + s2 / 24.0 + s2 * s2 / 720.0)
    return (math.cosh(s) - 1.0) / s


def _f3(s: float) -> float:
    if abs(s) < _SERIES_CUT:
        s2 = s * s
        return 1.0 / 6.0 + s2 / 120.0 + s2 * s2 / 5040.0
    return (math.sinh(s) - s) / (s * s * s)


class HamiltonianState(NamedTuple):
    """Snapshot of the geodesic flow: position and momentum covector based there."""

    point: GroupPoint
    cov: FrameCovector


def flow(q0: GroupPoint, cov0: FrameCovector, t: float) -> HamiltonianState:
    """Integrate the geodesic flow for time t from (q0, cov0).

    Exact closed form, no stepping.  Satisfies the scaling identities
    flow(q, a*cov, t).point == flow(q, cov, a*t).point and exact conservation
    of hZ and of the energy up to roundoff.  Raises OutOfDomain when
    |hZ t| is past what cosh can represent (about 710), or when any output
    coordinate is not a finite float.
    """
    u0, v0, w0 = cov0
    s = w0 * t
    try:
        ch = math.cosh(s)
        sh = math.sinh(s)
    except OverflowError:
        raise OutOfDomain(f"|hZ t| = {abs(s):.6g} overflows cosh") from None
    x = t * (v0 * _f2(s) - u0 * _f1(s))
    y = t * (v0 * _f1(s) - u0 * _f2(s))
    z = 0.5 * (u0 * u0 - v0 * v0) * w0 * t * t * t * _f3(s)
    q = mul(q0, GroupPoint(x, y, z))
    cov = FrameCovector(u0 * ch - v0 * sh, v0 * ch - u0 * sh, w0)
    # one cheap test: x*0 is 0 for every finite x and nan for inf and nan
    if q.x * 0.0 + q.y * 0.0 + q.z * 0.0 + cov.hX * 0.0 + cov.hY * 0.0 + w0 * 0.0 != 0.0:
        raise OutOfDomain(f"flow from {q0!r} with {cov0!r} for t = {t!r} is not finite")
    return HamiltonianState(q, cov)


def exp_map(q0: GroupPoint, cov0: FrameCovector) -> GroupPoint:
    """Time-1 geodesic exponential of the covector cov0 based at q0."""
    return flow(q0, cov0, 1.0).point


def log_map(q0: GroupPoint, q: GroupPoint) -> FrameCovector:
    """Initial covector of the timelike geodesic from q0 reaching q at time 1.

    Inverts the closed-form flow: with (x, y, z) the group difference,
    m = x^2 - y^2, the half-twist b solves alpha(b) = z/m, the time
    separation is T = sqrt(m) b/sinh(b), and

        log = (-T cosh(psi), T sinh(psi), 2 b),   psi = artanh(y/x) - b.

    Exact inverse of exp_map on the chronological future; the energy of the
    result is T^2/2.  Raises NotChronological outside the open cone.
    """
    d = group_difference(q0, q)
    if not cone_state(d.x, d.y, d.z)[0]:
        raise NotChronological(f"{q!r} is not chronologically after {q0!r}")
    b, t_sep = _twist_and_separation(d)
    psi = math.atanh(d.y / d.x) - b
    return FrameCovector(-t_sep * math.cosh(psi), t_sep * math.sinh(psi), 2.0 * b)


@dataclass(frozen=True)
class GeodesicArc:
    """A normal geodesic segment: base point, initial covector, duration."""

    base: GroupPoint
    cov0: FrameCovector
    duration: float

    def __post_init__(self):
        if not self.duration >= 0.0:
            raise ValueError(f"duration must be >= 0, got {self.duration!r}")
        if not is_future_timelike(self.cov0):
            raise ValueError("initial covector must be future-directed timelike")

    def point(self, t: float) -> GroupPoint:
        return flow(self.base, self.cov0, t).point


def geodesic_trace(arc: GeodesicArc, n_samples: int):
    """Sample points (t_k, point) along the arc at uniform times."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    h = arc.duration / (n_samples - 1)
    return [(k * h, arc.point(k * h)) for k in range(n_samples)]


__all__ = [
    "HamiltonianState",
    "GeodesicArc",
    "flow",
    "exp_map",
    "log_map",
    "geodesic_trace",
]
