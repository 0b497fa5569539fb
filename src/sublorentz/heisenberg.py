"""Heisenberg group arithmetic in exponential coordinates.

Points are triples (x, y, z) multiplying by the polarized law

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + (x*y' - x'*y)/2),

with identity (0, 0, 0) and inverse -(x, y, z).  The left-invariant frame is

    X = d/dx - (y/2) d/dz,   Y = d/dy + (x/2) d/dz,   Z = d/dz.

Covectors travel as frame components (hX, hY, hZ), pairings with X, Y, Z,
with an explicit base point at API boundaries.  They are the left-invariant
picture: what the Hamiltonian geodesic flow conserves and transports.  At a
base point (x, y, z) the coordinate components (du, dv, dw), pairings with
d/dx, d/dy, d/dz, give hX = du - (y/2) dw, hY = dv + (x/2) dw, hZ = dw.

The per-pair kernels build their records with ``_new`` and skip NamedTuple's
Python-level ``__new__``; outside input goes through the checked constructors.
"""

from __future__ import annotations

from typing import NamedTuple


class GroupPoint(NamedTuple):
    x: float
    y: float
    z: float


class FrameCovector(NamedTuple):
    """Covector in left-invariant frame components at some stated base point."""

    hX: float
    hY: float
    hZ: float


IDENTITY = GroupPoint(0.0, 0.0, 0.0)
# _new(cls, fields) builds a cls record, as cls._make does minus its length check
_new = tuple.__new__


def mul(a: GroupPoint, b: GroupPoint) -> GroupPoint:
    """Group product a * b; either operand may be any (x, y, z) triple."""
    ax, ay, az = a
    bx, by, bz = b
    return _new(GroupPoint, (ax + bx, ay + by, az + bz + 0.5 * (ax * by - bx * ay)))


def _difference(a, b):
    """a^{-1} * b as a plain (x, y, z) tuple, bit for bit (-a) * b with the
    negations folded into the subtractions.  a and b are any (x, y, z)
    triples of floats, or of numpy arrays that broadcast together."""
    ax, ay, az = a
    bx, by, bz = b
    return bx - ax, by - ay, (bz - az) + 0.5 * (ay * bx - ax * by)


def group_difference(a: GroupPoint, b: GroupPoint) -> GroupPoint:
    """a^{-1} * b: the position of b as seen from a after left translation.

    The GroupPoint of ``_difference``, the one difference kernel, so the
    coordinates may also be broadcasting numpy arrays.
    """
    return _new(GroupPoint, _difference(a, b))


def energy(cov: FrameCovector) -> float:
    """Geodesic energy E = (hX^2 - hY^2)/2 of a frame covector.

    Positive on timelike covectors, zero on null ones.  Constant along the
    geodesic flow.
    """
    return 0.5 * (cov.hX * cov.hX - cov.hY * cov.hY)


def is_future_timelike(cov: FrameCovector) -> bool:
    """True when the covector lies in the open future cone hX < -|hY|."""
    return cov.hX < -abs(cov.hY)


def sup_distance(a: GroupPoint, b: GroupPoint) -> float:
    """Coordinate sup-norm distance, used for roundtrip diagnostics."""
    return max(abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z))
