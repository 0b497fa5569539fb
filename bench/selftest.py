"""Self-test of the benchmark: its oracles against closed forms, and short
runs of every workload on a second seed.

    python3 bench/selftest.py

Exits 0 when every check passes.  The oracles are what the benchmark trusts
to judge the library, so they are held to values known in closed form
rather than to the library itself.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles as O

HERE = Path(__file__).resolve().parent
SECOND_SEED = 2


def test_planar_tau():
    """tau = sqrt(x^2 - y^2) on the z = 0 slice (Minkowski plane)."""
    rng = np.random.default_rng(11)
    x = 10.0 ** rng.uniform(-3, 3, 2000)
    y = rng.uniform(-0.999, 0.999, x.size) * x
    d = np.column_stack([x, y, np.zeros_like(x)])
    got = O.tau_diff(d)
    want = np.sqrt((x - y) * (x + y))
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_tau_is_sqrt_2e_on_exp_images():
    """tau(p, exp_p(xi)) = sqrt(2 E(xi)) for timelike xi, at many scales."""
    rng = np.random.default_rng(12)
    n = 2000
    scale = 10.0 ** rng.uniform(-3, 3, n)
    u = -rng.uniform(0.2, 2.0, n)
    v = rng.uniform(-0.95, 0.95, n) * np.abs(u)
    w = rng.uniform(-1.5, 1.5, n)
    xi = np.column_stack([scale * u, scale * v, w])
    p = np.column_stack([scale * rng.uniform(-1, 1, n), scale * rng.uniform(-1, 1, n),
                         scale * scale * rng.uniform(-0.5, 0.5, n)])
    got = O.tau(p, O.exp_map(p, xi))
    want = np.sqrt(2.0 * O.energy(xi))
    assert np.max(np.abs(got - want) / want) <= 1e-10


def test_alpha_beta_inverse():
    zeta = np.concatenate([-np.logspace(-12, np.log10(0.2499), 50), np.logspace(-12, np.log10(0.2499), 50)])
    assert np.max(np.abs(O.alpha(O.beta(zeta)) - zeta) / np.abs(zeta)) <= 1e-12
    # alpha(t) -> 1/4 as t -> infinity, and the series branch meets the closed form
    assert abs(float(O.alpha(40.0)) - 0.25) <= 1e-15
    below = float(O.alpha(np.nextafter(0.05, 0.0)))
    assert abs(below - float(O.alpha(0.05))) <= 1e-13 * below


def test_null_boundary_is_feasible_not_chronological():
    chron, feasible, near = O.causal_state(np.array([[2.0, 1.0, 0.75], [2.0, 2.0, 0.0], [2.0, 1.0, 0.8]]))
    assert not chron.any()
    assert feasible.tolist() == [True, True, False]
    assert near[:2].all() and not near[2]


def test_certificate_on_a_known_optimum():
    """2x2 LP whose optimum is the anti-diagonal, with explicit duals."""
    c = np.array([[1.0, 3.0], [2.0, 1.0]])
    a = b = np.array([0.5, 0.5])
    feasible = np.ones((2, 2), bool)
    near = np.zeros((2, 2), bool)
    best = np.array([[0.0, 0.5], [0.5, 0.0]])
    phi, psi = np.array([0.0, -1.0]), np.array([1.0, 3.0])
    assert O.plan_certificate(best, phi, psi, 2.5, c, feasible, near, a, b) <= 1e-15
    worse = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert O.plan_certificate(worse, phi, psi, 1.0, c, feasible, near, a, b) >= 1.0
    forbidden = feasible.copy()
    forbidden[0, 1] = False
    assert O.plan_certificate(best, phi, psi, 2.5, c, forbidden, near, a, b) >= 0.5
    if O.highs_value(c, feasible, a, b) is not None:
        assert abs(O.highs_value(c, feasible, a, b) - 2.5) <= 1e-12


def test_cycle_count():
    assert O.monotonicity_cycles(12) == 133364
    assert O.monotonicity_cycles(2) == 1


def test_second_seed_runs_cleanly():
    """Every workload, briefly, on a seed the benchmark was not tuned on."""
    for workload in ("geometry", "transport", "cli"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SECOND_SEED),
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], proc.stderr
        assert result["attempted"] > 0
        for name, metric in result["metrics"].items():
            assert math.isfinite(metric["value"]) and metric["value"] > 0, name


def main():
    failures = 0
    for name, fn in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            fn()
        except AssertionError as err:
            failures += 1
            print(f"FAIL  {name}  {err}")
        else:
            print(f"PASS  {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
