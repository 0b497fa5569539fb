"""Measure files, plan/trajectory export, and seeded instance generators.

The measure format is line-oriented text with an explicit schema version,
so fixtures diff cleanly:

    sublorentz-measure v1
    atom 0 0 0 0.5
    atom 0.2 0 0 0.5

Floats serialize at 17 significant digits, which roundtrips doubles exactly.
Blank lines and lines starting with '#' are ignored.
"""

from __future__ import annotations

import math

import numpy as np

from .causality import causal_diamond_bbox, classify_array
from .errors import GenerationFailure, ParseError, WeightError
from .heisenberg import IDENTITY, GroupPoint, group_difference, mul
from .transport import CostMatrix, DiscreteMeasure, TransportPlan

HEADER = "sublorentz-measure v1"
WEIGHT_SUM_TOL = 1e-6
DIAMOND_BLOCK = 1 << 14  # rows per draw in sample_diamond


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_lines(path, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_measure(measure: DiscreteMeasure, path) -> None:
    pairs = zip(measure.atoms, measure.weights)
    rows = (f"atom {_fmt(a.x)} {_fmt(a.y)} {_fmt(a.z)} {_fmt(float(w))}" for a, w in pairs)
    _write_lines(path, [HEADER, *rows])


def load_measure(path) -> DiscreteMeasure:
    """Parse a measure file; weights off by at most 1e-6 are renormalized."""
    atoms = []
    weights = []
    seen_header = False
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not seen_header:
                if line != HEADER:
                    raise ParseError(f"line {lineno}: expected header {HEADER!r}, got {line!r}")
                seen_header = True
                continue
            fields = line.split()
            if fields[0] != "atom":
                raise ParseError(f"line {lineno}: expected 'atom', got {fields[0]!r}")
            if len(fields) != 5:
                raise ParseError(f"line {lineno}: expected 4 numbers after 'atom', got {len(fields) - 1}")
            try:
                x, y, z, w = (float(f) for f in fields[1:])
            except ValueError as err:
                raise ParseError(f"line {lineno}: {err}") from None
            if not all(math.isfinite(v) for v in (x, y, z, w)):
                raise ParseError(f"line {lineno}: non-finite value")
            atoms.append(GroupPoint(x, y, z))
            weights.append(w)
    if not seen_header:
        raise ParseError("empty file: missing header")
    if not atoms:
        raise ParseError("no atoms: file has a header but no atom records")
    w = np.array(weights, dtype=float)
    if np.any(w < 0.0):
        bad = int(np.argmax(w < 0.0))
        raise WeightError(f"atom {bad}: negative weight {w[bad]!r}")
    with np.errstate(over="ignore"):  # an overflowing sum is reported below as inf
        total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
    return DiscreteMeasure(tuple(atoms), w / total)


def save_plan(plan: TransportPlan, cost: CostMatrix, path) -> None:
    """Plan CSV: one row per support pair; cost column is the row's
    contribution mass * c[i,j], so the column sums to the plan value."""
    lines = ["i,j,mass,cost"]
    for i, j in plan.support():
        mass = float(plan.masses[i, j])
        lines.append(f"{i},{j},{_fmt(mass)},{_fmt(mass * float(cost.values[i, j]))}")
    _write_lines(path, lines)


def save_trajectory(rows, path) -> None:
    """Trajectory CSV with columns t,x,y,z; rows are (t, GroupPoint)."""
    lines = (f"{_fmt(t)},{_fmt(pt.x)},{_fmt(pt.y)},{_fmt(pt.z)}" for t, pt in rows)
    _write_lines(path, ["t,x,y,z", *lines])


def sample_diamond(q0: GroupPoint, q1: GroupPoint, n: int, rng, max_tries: int = 4_000_000):
    """n points strictly inside the causal diamond between q0 and q1.

    Vectorized rejection sampling from the diamond's bounding box; the accept
    test is classify_array, so returned points are strictly chronological
    after q0 and strictly before q1.  Acceptance rates hover around a percent
    for elongated diamonds, hence the generous try budget.  rng is a numpy
    Generator or a seed; max_tries counts raw box draws, made in chunks of 150
    per missing point (at least 4096).  A chunk is drawn and tested in blocks
    of DIAMOND_BLOCK rows, so the working memory is about 1.3 MiB for any n;
    once n points are in, the rest of the chunk is drawn and dropped.  Points
    and end state are those of one uniform call per chunk, for any
    BitGenerator: uniform and random both take one double per value.
    """
    if not hasattr(rng, "uniform"):
        rng = np.random.default_rng(rng)
    box = causal_diamond_bbox(q0, q1)
    apex = np.array(group_difference(q0, q1))
    lo = np.array([box[0][0], box[1][0], box[2][0]])
    hi = np.array([box[0][1], box[1][1], box[2][1]])
    out = []
    tries = 0
    while len(out) < n and tries < max_tries:
        chunk = int(min(max(4096, 150 * (n - len(out))), max_tries - tries))
        tries += chunk
        for start in range(0, chunk, DIAMOND_BLOCK):
            rows = min(DIAMOND_BLOCK, chunk - start)
            if len(out) == n:  # keep the stream: draw what one uniform call would
                rng.random(3 * rows)
                continue
            draws = rng.uniform(lo, hi, size=(rows, 3))
            keep = classify_array(IDENTITY, draws)[0] & classify_array(draws, apex)[0]
            # Python floats: the scalar kernels run faster on them
            out.extend(mul(q0, GroupPoint(*row)) for row in draws[keep][: n - len(out)].tolist())
    if len(out) < n:
        raise GenerationFailure(f"diamond sampling got {len(out)}/{n} points")
    return tuple(out)


def sample_chronological_pair(n: int, m: int, seed: int, weights: str = "uniform"):
    """Seeded instance pair (mu, nu) with every (x, y) strictly chronological.

    mu lives in the diamond from the identity to (2,0,0), nu in the diamond
    from (2,0,0) to (4,0,0); transitivity of the open causal order then makes
    the whole rectangle chronological, which is verified exhaustively before
    returning.  weights is "uniform" or "random".
    """
    rng = np.random.default_rng(seed)
    a = GroupPoint(2.0, 0.0, 0.0)
    b = GroupPoint(4.0, 0.0, 0.0)
    mu_atoms = sample_diamond(GroupPoint(0.0, 0.0, 0.0), a, n, rng)
    nu_atoms = sample_diamond(a, b, m, rng)
    chronological = classify_array(np.array(mu_atoms)[:, None], np.array(nu_atoms)[None, :])[0]
    if not chronological.all():
        i, j = np.argwhere(~chronological)[0]
        raise GenerationFailure(f"rectangle pair ({mu_atoms[i]!r}, {nu_atoms[j]!r}) not chronological")
    if weights == "uniform":
        wa, wb = np.ones(n), np.ones(m)
    elif weights == "random":
        wa, wb = rng.random(n) + 0.1, rng.random(m) + 0.1
    else:
        raise ValueError(f"unknown weights mode {weights!r}")
    return DiscreteMeasure(mu_atoms, wa / wa.sum()), DiscreteMeasure(nu_atoms, wb / wb.sum())

