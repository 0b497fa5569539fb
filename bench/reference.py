"""One-off reference figures that are too slow or too coarse for a workload.

    python3 bench/reference.py

Re-measures the current-state table of ROADMAP.md (kernel calls, cost
matrices, the LP, strengthen_duals, CLI commands on 30x30 inputs and the
tier-1 suite) and times scipy's HiGHS on the same LPs when scipy imports.
Prints one line per figure; the numbers in bench/README.md come from it.
"""

from __future__ import annotations

import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as O  # noqa: E402
from sublorentz import causality, geodesics, measures_io, simplex, transport  # noqa: E402
from sublorentz.heisenberg import GroupPoint  # noqa: E402


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def report(what, seconds):
    unit, scale = ("us", 1e6) if seconds < 1e-3 else ("ms", 1e3) if seconds < 1.0 else ("s", 1.0)
    print(f"{what:45s} {seconds * scale:10.3f} {unit}", flush=True)


def main():
    params = transport.CostParams(0.5)
    a, b = GroupPoint(0.0, 0.0, 0.0), GroupPoint(2.0, 1.0, 0.3)
    cov = geodesics.log_map(a, b)
    n_calls = 20000
    report("tau, one call", best_of(lambda: [causality.tau(a, b) for _ in range(n_calls)], 5) / n_calls)
    report("log_map, one call", best_of(lambda: [geodesics.log_map(a, b) for _ in range(n_calls)], 5) / n_calls)
    report("exp_map, one call", best_of(lambda: [geodesics.exp_map(a, cov) for _ in range(n_calls)], 5) / n_calls)

    pairs = {n: measures_io.sample_chronological_pair(n, n, seed=1, weights="random") for n in (20, 40, 80, 200)}
    costs = {}
    for n in (40, 80, 200):
        mu, nu = pairs[n]
        report(f"cost_matrix {n}x{n}", best_of(lambda: transport.cost_matrix(mu, nu, params), 1 if n == 200 else 3))
        costs[n] = transport.cost_matrix(mu, nu, params)
    costs[20] = transport.cost_matrix(*pairs[20], params)
    for n in (20, 40, 80):
        mu, nu = pairs[n]
        cm = costs[n]
        report(f"solve_max_transport {n}x{n}", best_of(
            lambda: simplex.solve_max_transport(cm.values, cm.feasible, mu.weights, nu.weights), 1))
    for n in (40, 80, 200):
        mu, nu = pairs[n]
        cm = costs[n]
        if importlib.util.find_spec("scipy") is None:
            print("HiGHS reference skipped: scipy does not import")
            break
        report(f"HiGHS {n}x{n}", best_of(
            lambda: O.highs_value(cm.values, cm.feasible, mu.weights, nu.weights), 3))
    for n in (40, 80):
        mu, nu = pairs[n]
        plan, _ = transport.solve_kantorovich(mu, nu, params)
        report(f"strengthen_duals {n}x{n}", best_of(lambda: transport.strengthen_duals(plan, costs[n]), 1))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        mu, nu = measures_io.sample_chronological_pair(30, 30, seed=1, weights="random")
        paths = [os.path.join(tmp, f) for f in ("mu.txt", "nu.txt")]
        measures_io.save_measure(mu, paths[0])
        measures_io.save_measure(nu, paths[1])
        commands = {
            "solve": ["solve", "--mu", paths[0], "--nu", paths[1]],
            "brenier": ["brenier", "--mu", paths[0], "--nu", paths[1], "--out", os.path.join(tmp, "b")],
            "verify": ["verify"],
            "tau": ["tau", "--from", "0,0,0", "--to", "2,1,0"],
        }
        for name, argv in commands.items():
            report(f"CLI {name} (30x30 inputs)", best_of(lambda: subprocess.run(
                [sys.executable, "-m", "sublorentz.cli", *argv], env=env, check=True,
                capture_output=True, timeout=300), 3))

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    report(f"tier-1 suite ({proc.stdout.strip().splitlines()[-1]})", time.perf_counter() - t0)


if __name__ == "__main__":
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    main()
