"""Heisenberg group arithmetic in exponential coordinates.

Points are triples (x, y, z) multiplying by the polarized law

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + (x*y' - x'*y)/2),

with identity (0, 0, 0) and inverse -(x, y, z).  The left-invariant frame is

    X = d/dx - (y/2) d/dz,   Y = d/dy + (x/2) d/dz,   Z = d/dz.

Covectors are represented two ways and always travel with an explicit base
point at API boundaries:

* coordinate components (du, dv, dw): pairings with d/dx, d/dy, d/dz;
* frame components (hX, hY, hZ): pairings with X, Y, Z at the base point.

Frame components are the left-invariant picture; they are what the
Hamiltonian geodesic flow conserves and transports.  At the identity the two
representations coincide.

The per-pair kernels build their records with ``_new`` and skip NamedTuple's
Python-level ``__new__``; outside input goes through the checked constructors.
"""

from __future__ import annotations

from typing import NamedTuple


class GroupPoint(NamedTuple):
    x: float
    y: float
    z: float


class CoordCovector(NamedTuple):
    """Covector in coordinate components at some stated base point."""

    du: float
    dv: float
    dw: float


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


def coord_to_frame(base: GroupPoint, cov: CoordCovector) -> FrameCovector:
    """Convert coordinate components to frame components at ``base``.

    Pairing du dx + dv dy + dw dz with the frame fields gives
    hX = du - (y/2) dw, hY = dv + (x/2) dw, hZ = dw.
    """
    return FrameCovector(
        cov.du - 0.5 * base.y * cov.dw,
        cov.dv + 0.5 * base.x * cov.dw,
        cov.dw,
    )


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
