"""Benchmark of the sublorentz library: geometry, transport and cli workloads.

    python3 bench/run.py --workload geometry --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics of the workload; with ``--trace 1`` it
holds the per-layer metrics of a traced run of the same inputs.  Earlier
lines record the environment and any notes.  ``--workload all`` runs every
workload, each in its own process.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
MIN_ROUNDS = 3  # operation times are medians over at least this many rounds


def environment(args):
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.util.find_spec("scipy") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def timed_import():
    """Seconds to import the library and numpy, which nothing imported yet,
    at reference machine speed."""
    before = speed.slowness()
    t0 = time.perf_counter()
    import sublorentz  # noqa: F401

    seconds = time.perf_counter() - t0
    return seconds / (0.5 * (before + speed.slowness()))


def timed_setup(workload, seed, import_s):
    """Import time plus the median of SETUP_REPEATS input generations, at
    reference machine speed."""
    gens = []
    for _ in range(SETUP_REPEATS):
        before = speed.slowness(1)
        t0 = time.perf_counter()
        inputs = workload.generate(seed)
        seconds = time.perf_counter() - t0
        gens.append(seconds / (0.5 * (before + speed.slowness(1))))
    return inputs, import_s + statistics.median(gens)


def run_untraced(workload, args, import_s):
    import numpy as np

    from workloads import Recorder

    inputs, setup_s = timed_setup(workload, args.seed, import_s)
    rec = Recorder(workload.probe_every)
    start = time.perf_counter()
    while True:
        workload.run_round(inputs, rec)
        rec.end_round()
        if time.perf_counter() - start >= args.seconds and len(rec.rounds) > MIN_ROUNDS:
            break
    # read before the final checks, which may import scipy
    rss = peak_rss_mb(children=workload.name == "cli")
    workload.final_checks(inputs, rec)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (rec.ops_per_s(), "1/s"),
        "op_s.p50": (rec.op_s_p50(), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    rec.notes.append(
        f"at the machine's own speed: ops_per_s {rec.ops_per_s(normalized=False):.6g}, "
        f"op_s.p50 {rec.op_s_p50(normalized=False):.6g} s; median slowness "
        f"{float(np.median(rec.probe_s)):.3f} (speed.py)"
    )
    return rec, metrics


def cli_startup_s():
    """Median wall time of a bare ``import sublorentz.cli`` process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    startups = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sublorentz.cli"], env=env, check=True, timeout=60)
        startups.append(time.perf_counter() - t0)
    return statistics.median(startups)


def run_traced(workload, args):
    from spans import TRACED, Tracer
    from workloads import CLI_LABELS, Recorder

    rec = Recorder()
    overheads, passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.trace_round(workload.generate(args.seed), rec)
        untraced = time.perf_counter() - t0

        tracer = Tracer()
        workload.tracer = tracer
        tracer.install()
        try:
            t0 = time.perf_counter()
            inputs = workload.generate(args.seed)
            workload.trace_round(inputs, rec)
            traced = time.perf_counter() - t0
        finally:
            tracer.uninstall()
            workload.tracer = None
        overheads.append(traced - untraced)
        passes.append(tracer)
        if time.perf_counter() - start >= args.seconds:
            break
    workload.final_checks(inputs, rec)

    metrics = {}
    for mod, fn in TRACED:
        name = f"{mod}.{fn}"
        metrics[f"{name}.calls"] = (statistics.median(t.calls[name] for t in passes), "count")
        metrics[f"{name}.self_s"] = (statistics.median(t.self_s[name] for t in passes), "s")
    for key in ("transport.cost_matrix.pairs", "transport.check_cyclical_monotonicity.cycles_checked",
                "brenier.transport_map_from_duals.mapped", "brenier.transport_map_from_duals.skipped"):
        metrics[key] = (statistics.median(t.counts[key] for t in passes), "count")
    # CLI commands as separate processes, untraced
    walls = workload.run_round(inputs, rec) if workload.name == "cli" else {}
    for label in CLI_LABELS:
        metrics[f"cli.{label}.wall_s"] = (walls.get(label, 0.0), "s")
    metrics["cli.startup_s"] = (cli_startup_s(), "s")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    out = ROOT / ".bench_build" / f"spans-{workload.name}-seed{args.seed}.npz"
    passes[-1].write(out)
    rec.notes.append(f"spans written to {out.relative_to(ROOT)}")
    return rec, metrics


def run_all(args):
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("geometry", "transport", "cli"):
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"{name}: {line}")
        for key, m in result["metrics"].items():
            print(f"{name:10s} {key:55s} {m['value']:.6g} {m['unit']}")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["geometry", "transport", "cli", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sublorentz" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'sublorentz'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    print("env " + json.dumps(environment(args)))
    # One CPU for this process and the commands it starts, so that the speed
    # probes run where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_s = timed_import()
    from workloads import WORKLOADS

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = build / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](str(ROOT), str(workdir))
        if args.trace:
            rec, metrics = run_traced(workload, args)
        else:
            rec, metrics = run_untraced(workload, args, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in dict.fromkeys(rec.notes):
        print(f"note: {note}")
    for err in rec.errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not rec.errors,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
