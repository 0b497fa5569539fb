"""The benchmark's three workloads.

Each workload generates its inputs from a seed (``generate``), runs one
round of operations against the library while timing each operation
(``run_round``), and checks the outputs against the independent oracles in
``oracles.py``.  A round is always the same list of operations, so the share
of failed operations is the same in every run.  The library is only ever
called through its module attributes, so the span tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

import oracles as O
import speed

P = 0.5  # cost exponent of every LP in the benchmark
REL = 1e-9  # relative tolerance of the oracle comparisons

# Cost-matrix entries this close to the null boundary (|F| within this share
# of x^2 + y^2 + 4|z|) are left out of the value comparison: the library's
# beta stops on an absolute residual, so its tau loses relative accuracy
# there (about 1e-11 at 1e-4, 5e-8 at 1e-6).  Feasibility is still compared
# down to oracles.NULL_MARGIN.
VALUE_MARGIN = 1e-4


class Recorder:
    """Operation timings by round, attempted/failed counts and failed checks.

    Every round runs the same operations in the same order, so operation k
    of one round repeats operation k of every other.  With ``probe_every``
    set, the machine's slowness (``speed.py``) is probed between operations
    at least that many seconds apart; each operation's time is divided by
    the slowness interpolated between the probes around it, then taken as
    its median over the rounds.
    """

    def __init__(self, probe_every=None):
        self.rounds = [array("d")]  # seconds of each operation, per round
        self.stamps = [array("d")]  # perf_counter at the middle of each operation
        self.counts = array("q")  # operations behind each timing, from round one
        self.probe_at = array("d")
        self.probe_s = array("d")
        self.probe_every = probe_every
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.notes = []
        if probe_every is not None:
            self._probe(time.perf_counter())

    def _probe(self, now):
        self.probe_at.append(now)
        self.probe_s.append(speed.slowness())

    def op(self, seconds, n=1, failed=False):
        now = time.perf_counter()
        if len(self.rounds) == 1:
            self.counts.append(n)
        self.rounds[-1].append(seconds)
        self.stamps[-1].append(now - 0.5 * seconds)
        self.attempted += n
        self.failed += n if failed else 0
        if self.probe_every is not None and now - self.probe_at[-1] >= self.probe_every:
            self._probe(now)

    def end_round(self):
        self.rounds.append(array("d"))
        self.stamps.append(array("d"))

    def check(self, ok, what):
        if not ok and len(self.errors) < 20:
            self.errors.append(what)

    def _per_op(self, normalized):
        """Seconds of one operation and operation counts, per timing."""
        keep = [k for k, r in enumerate(self.rounds) if len(r)]
        seconds = np.array([self.rounds[k] for k in keep])
        if normalized:
            stamps = np.array([self.stamps[k] for k in keep])
            seconds = seconds / np.interp(stamps, self.probe_at, self.probe_s)
        counts = np.array(self.counts, dtype=float)
        return np.median(seconds, axis=0) / counts, counts

    def ops_per_s(self, normalized=True):
        seconds, counts = self._per_op(normalized)
        return float(counts.sum() / np.dot(seconds, counts))

    def op_s_p50(self, normalized=True):
        """Median over operations of the time of one operation (the mean of
        the middle two when their number is even)."""
        seconds, counts = self._per_op(normalized)
        order = np.argsort(seconds, kind="stable")
        cum = np.cumsum(counts[order])
        middle = 0.5 * (cum[-1] + 1.0)
        ranks = [math.floor(middle), math.ceil(middle)]
        return float(np.mean(seconds[order][np.searchsorted(cum, ranks)]))


def _rel_err(got, want):
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    return np.abs(got - want) / np.maximum(np.abs(want), 1e-300)


def _points(arr):
    from sublorentz.heisenberg import GroupPoint

    return [GroupPoint(*map(float, row)) for row in np.atleast_2d(arr)]


def _measure(atoms, weights):
    from sublorentz import transport

    return transport.DiscreteMeasure(tuple(_points(atoms)), np.asarray(weights, float))


def _timelike_covectors(rng, n, scale, max_ratio=0.95, max_twist=1.5):
    """Future timelike frame covectors (L u, L v, w) with |v| < max_ratio |u|."""
    u = -rng.uniform(0.2, 2.0, n)
    v = rng.uniform(-max_ratio, max_ratio, n) * np.abs(u)
    w = rng.uniform(-max_twist, max_twist, n)
    return np.column_stack([scale * u, scale * v, w])


def diamond_points(rng, apex_x, n):
    """n points strictly inside the causal diamond from the identity to
    (apex_x, 0, 0), by rejection from its bounding box."""
    out = np.empty((0, 3))
    apex = np.array([apex_x, 0.0, 0.0])
    zmax = 0.25 * apex_x * apex_x
    while len(out) < n:
        draws = rng.uniform([0.0, -apex_x, -zmax], [apex_x, apex_x, zmax], size=(4096, 3))
        inside = O.causal_state(draws)[0] & O.causal_state(O.difference(draws, apex))[0]
        out = np.concatenate([out, draws[inside]])
    return out[:n]


def chronological_rectangle(rng, n, m):
    """(mu, nu) atom arrays with every pair strictly chronological: mu in the
    diamond e -> (2,0,0), nu in the diamond (2,0,0) -> (4,0,0)."""
    mu = diamond_points(rng, 2.0, n)
    nu = O.mul(np.array([2.0, 0.0, 0.0]), diamond_points(rng, 2.0, m))
    return mu, nu


def translated_cluster(rng, n, twisted, spread=0.7):
    """n cluster atoms and nu = mu * q0 with q0 planar or twisted; about
    40-75% of the arcs are causal and the optimal plans are permutations."""
    x0 = rng.uniform(1.2, 2.0)
    y0 = rng.uniform(-0.3, 0.3) * x0
    z0 = 0.0
    if twisted:
        z0 = rng.uniform(0.2, 0.6) * 0.25 * (x0 * x0 - y0 * y0) * rng.choice([-1.0, 1.0])
    q0 = np.array([x0, y0, z0])
    mu = np.column_stack(
        [
            rng.uniform(-spread, spread, n),
            rng.uniform(-spread, spread, n),
            rng.uniform(-0.5 * spread * spread, 0.5 * spread * spread, n),
        ]
    )
    return mu, O.mul(mu, q0), q0


def translation_value(q0):
    """Gain of the identity coupling between mu and mu * q0."""
    return float(O.gain(O.tau(np.zeros(3), q0), P))


class Workload:
    name = ""
    probe_every = 0.5  # seconds between speed probes in untraced runs

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.tracer = None

    @contextlib.contextmanager
    def untraced(self):
        """Checks that call the library should not show up as its work."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def trace_round(self, inputs, rec):
        """The round the traced run replays in this process."""
        self.run_round(inputs, rec)

    def final_checks(self, inputs, rec):
        """Checks run once after the timed loop (may import scipy)."""


# --------------------------------------------------------------------------
# geometry: scalar kernels on seeded chains, cost matrices on clouds, and the
# symmetry slice.


@dataclass
class GeometryInputs:
    a: list
    b: list
    xi: np.ndarray  # generating covector of (a, b), NaN row when unknown
    pa: np.ndarray
    pb: np.ndarray
    scale: np.ndarray  # length scale of each pair
    clouds: list  # (mu measure, nu measure, mu array, nu array)
    sym_pairs: list  # (a, b, [((a', b'), expected tau(a', b') / tau(a, b))])
    oracle: dict = field(default_factory=dict)


# Fixed pairs for the symmetry slice (not seeded).  Each has a cone form F
# with 1 < |F| < 100 at unit scale.
SYM_PAIRS = [
    ((0.0, 0.0, 0.0), (2.0, 1.0, 0.3)),
    ((0.5, -0.3, 0.2), (3.0, -1.2, 0.9)),  # second entry is the difference
    ((-1.0, 0.5, -0.25), (4.0, 2.5, -1.5)),
]
DILATIONS = list(range(-8, 7))  # lambda = 10^k
# Axis-aligned translations: a diagonal translation of size s puts products
# of size s^2 into z, so the rounded inputs themselves fix the group
# difference only to about 1e-16 s^2.
TRANSLATIONS = [
    g for s in (1e2, 1e4, 1e6) for g in ((s, 0.0, 0.0), (0.0, -s, 0.0), (0.0, 0.0, s))
]


class Geometry(Workload):
    name = "geometry"
    chains = 4500
    cloud = 150
    clouds = 2

    def generate(self, seed):
        rng = np.random.default_rng([seed, 1])
        n = self.chains
        scale = 10.0 ** rng.uniform(-3.0, 3.0, n)
        a = np.column_stack(
            [
                scale * rng.uniform(-1, 1, n),
                scale * rng.uniform(-1, 1, n),
                scale * scale * rng.uniform(-0.5, 0.5, n),
            ]
        )
        xi1 = _timelike_covectors(rng, n, scale)
        xi2 = _timelike_covectors(rng, n, scale)
        b = O.exp_map(a, xi1)
        c = O.exp_map(b, xi2)
        # pairs per chain: (a, b), (b, c), (a, c)
        pa = np.stack([a, b, a], axis=1).reshape(-1, 3)
        pb = np.stack([b, c, c], axis=1).reshape(-1, 3)
        xi = np.stack([xi1, xi2, np.full_like(xi1, np.nan)], axis=1).reshape(-1, 3)
        clouds = []
        for _ in range(self.clouds):
            mu = rng.uniform([-1.0, -1.0, -0.5], [1.0, 1.0, 0.5], size=(self.cloud, 3))
            nu = rng.uniform([1.0, -1.0, -0.5], [3.0, 1.0, 0.5], size=(self.cloud, 3))
            w = np.full(self.cloud, 1.0 / self.cloud)
            clouds.append((_measure(mu, w), _measure(nu, w), mu, nu))
        sym = []
        for base, second in SYM_PAIRS:
            p0 = np.array(base)
            p1 = np.array(second) if base == (0.0, 0.0, 0.0) else O.mul(p0, np.array(second))
            checks = [(_points(O.dilate(p0, 10.0**k)) + _points(O.dilate(p1, 10.0**k)), 10.0**k)
                      for k in DILATIONS]
            checks += [(_points(O.mul(np.array(g), p0)) + _points(O.mul(np.array(g), p1)), 1.0)
                       for g in TRANSLATIONS]
            sym.append((p0, p1, checks))
        return GeometryInputs(_points(pa), _points(pb), xi, pa, pb, np.repeat(scale, 3), clouds, sym)

    def run_round(self, inp, rec):
        from sublorentz import causality, geodesics, transport

        classify, tau = causality.classify, causality.tau
        log_map, exp_map, flow = geodesics.log_map, geodesics.exp_map, geodesics.flow
        chron = causality.CausalRelation.CHRONOLOGICAL
        clock = time.perf_counter

        # scalar kernels, one operation per pair
        out = []
        for a, b in zip(inp.a, inp.b):
            t0 = clock()
            rel = classify(a, b)
            t = tau(a, b)
            lam = log_map(a, b)
            back = exp_map(a, lam)
            mid = flow(a, lam, 0.5).point
            rec.op(clock() - t0)
            out.append((rel is chron, t, *lam, *back, *mid))
        self._check_scalars(inp, np.array(out), rec)

        # cost matrices, n*m operations per call
        params = transport.CostParams(P)
        for k, (mu, nu, _, _) in enumerate(inp.clouds):
            t0 = clock()
            cm = transport.cost_matrix(mu, nu, params)
            rec.op(clock() - t0, cm.values.size)
            self._check_cost(inp, k, cm, rec)

        # symmetry slice: one operation per tau evaluation
        for p0, p1, checks in inp.sym_pairs:
            base = tau(*_points(p0), *_points(p1))
            rec.check(_rel_err(base, O.tau(p0, p1)) <= REL, f"tau{tuple(p0)}->{tuple(p1)} vs oracle")
            for (a, b), factor in checks:
                t0 = clock()
                value = tau(a, b)
                dt = clock() - t0
                bad = not abs(value - factor * base) <= REL * factor * base
                rec.op(dt, failed=bad)
                if bad and len(rec.notes) < 64:
                    rec.notes.append(f"symmetry: tau({a}, {b}) = {value!r}, want {factor * base!r}")

    def _check_scalars(self, inp, out, rec):
        if "tau" not in inp.oracle:
            inp.oracle["tau"] = O.tau(inp.pa, inp.pb)
        t_or = inp.oracle["tau"]
        L = inp.scale
        rec.check(out[:, 0].all(), "classify: generated chronological pair not Chronological")
        t = out[:, 1]
        rec.check((_rel_err(t, t_or) <= REL).all(), "tau vs bisection oracle")
        lam, back, mid = out[:, 2:5], out[:, 5:8], out[:, 8:11]
        known = ~np.isnan(inp.xi[:, 0])
        sqrt2e = np.sqrt(2.0 * O.energy(inp.xi[known]))
        rec.check((_rel_err(t[known], sqrt2e) <= REL).all(), "tau(p, exp_p xi) = sqrt(2E(xi))")
        norm = np.max(np.abs(inp.xi[known, :2]), axis=1)
        err_uv = np.max(np.abs(lam[known, :2] - inp.xi[known, :2]), axis=1) / norm
        err_w = np.abs(lam[known, 2] - inp.xi[known, 2]) / np.maximum(1.0, np.abs(inp.xi[known, 2]))
        rec.check((np.maximum(err_uv, err_w) <= REL).all(), "log(exp(xi)) = xi")
        d = O.difference(inp.pb, back)
        roundtrip = np.maximum(np.abs(d[:, :2]).max(axis=1) / L, np.abs(d[:, 2]) / (L * L))
        rec.check((roundtrip <= REL).all(), "exp(log(q)) = q")
        legs = O.tau(inp.pa, mid) + O.tau(mid, inp.pb)
        rec.check((_rel_err(legs, t_or) <= REL).all(), "midpoint on maximizing geodesic")
        rec.check((_rel_err(O.tau(inp.pa, mid), 0.5 * t_or) <= REL).all(), "midpoint at half time")
        ab, bc, ac = t.reshape(-1, 3).T
        rec.check((ac >= (ab + bc) * (1.0 - REL)).all(), "reverse triangle inequality")

    def _check_cost(self, inp, k, cm, rec):
        key = f"cost{k}"
        if key not in inp.oracle:
            _, _, mu, nu = inp.clouds[k]
            c, feasible, near = O.cost(mu, nu, P)
            band = O.null_distance(O.difference(mu[:, None, :], nu[None, :, :])) <= VALUE_MARGIN
            inp.oracle[key] = (c, feasible, near, band)
        c, feasible, near, band = inp.oracle[key]
        rec.check(np.array_equal(cm.feasible[~near], feasible[~near]), "cost_matrix feasibility")
        ok = _rel_err(cm.values, c) <= REL
        rec.check(ok[~band].all(), "cost_matrix values vs bisection oracle")


# --------------------------------------------------------------------------
# transport: solve_kantorovich on a fixed mix of LP instances.

# The mix of one round: (kind, n, m, count).  Sizes grow to 40x40, the largest
# that solves in about 2 s; most instances sit near 20x20 so that the median
# operation time is a median over many similar instances.
MIX = [
    ("rectangle", 8, 12, 1),
    ("rectangle", 16, 12, 1),
    ("rectangle", 20, 20, 24),
    ("rectangle", 20, 24, 16),
    ("planar", 20, 20, 20),
    ("twisted", 20, 20, 20),
    ("rectangle", 32, 28, 1),
    ("planar", 36, 36, 1),
    ("twisted", 36, 36, 1),
    ("rectangle", 40, 40, 1),
]


@dataclass
class Instance:
    kind: str
    mu: object
    nu: object
    mu_atoms: np.ndarray
    nu_atoms: np.ndarray
    q0: object = None
    value: float = None  # the first round's value; later rounds must repeat it
    cost: object = None  # the library's cost matrix, for the checks


class Transport(Workload):
    name = "transport"

    def generate(self, seed):
        from sublorentz import measures_io

        rng = np.random.default_rng([seed, 2])
        out = []
        for kind, n, m, count in MIX:
            for _ in range(count):
                if kind == "rectangle":
                    mu, nu = measures_io.sample_chronological_pair(
                        n, m, seed=int(rng.integers(1 << 31)), weights="random"
                    )
                    out.append(Instance(kind, mu, nu, np.array(mu.atoms), np.array(nu.atoms)))
                else:
                    mu, nu, q0 = translated_cluster(rng, n, kind == "twisted")
                    w = np.full(n, 1.0 / n)
                    out.append(Instance(kind, _measure(mu, w), _measure(nu, w), mu, nu, q0))
        return out

    def run_round(self, instances, rec):
        from sublorentz import transport

        params = transport.CostParams(P)
        for inst in instances:
            t0 = time.perf_counter()
            plan, duals = transport.solve_kantorovich(inst.mu, inst.nu, params)
            rec.op(time.perf_counter() - t0)
            self._check(inst, plan, duals, rec)

    def _program_cost(self, inst):
        from sublorentz import transport

        if inst.cost is None:
            with self.untraced():
                inst.cost = transport.cost_matrix(inst.mu, inst.nu, transport.CostParams(P))
        return inst.cost

    def _check(self, inst, plan, duals, rec):
        what = f"{inst.kind} {len(inst.mu)}x{len(inst.nu)}"
        if inst.value is not None:
            rec.check(plan.value == inst.value, f"{what}: value changed between rounds")
            return
        inst.value = plan.value
        cm = self._program_cost(inst)
        _, feasible, near = O.cost(inst.mu_atoms, inst.nu_atoms, P)
        # The certificate prices arcs with the library's own gains, which the
        # geometry workload checks; feasibility comes from the oracle.
        worst = O.plan_certificate(
            plan.masses, duals.phi, duals.psi, plan.value, cm.values, feasible, near,
            inst.mu.weights, inst.nu.weights,
        )
        rec.check(worst <= REL, f"{what}: primal-dual certificate off by {worst:.3e}")
        scale = max(1.0, abs(plan.value))
        if inst.q0 is not None:
            closed = translation_value(inst.q0)
            if inst.kind == "planar":
                rec.check(abs(plan.value - closed) <= REL * scale, f"{what}: value != gain(tau(e, q0))")
            else:
                rec.check(plan.value >= closed - REL * scale, f"{what}: value < gain(tau(e, q0))")

    def final_checks(self, instances, rec):
        for inst in instances:
            cm = self._program_cost(inst)
            ref = O.highs_value(cm.values, cm.feasible, inst.mu.weights, inst.nu.weights)
            if ref is None:
                rec.notes.append("HiGHS comparison skipped: scipy does not import")
                return
            rec.check(
                abs(inst.value - ref) <= REL * max(1.0, abs(ref)),
                f"{inst.kind} {len(inst.mu)}x{len(inst.nu)}: value {inst.value!r} vs HiGHS {ref!r}",
            )


# --------------------------------------------------------------------------
# cli: a fixed session of sublorentz commands on seeded measure files.


def write_measure(path, atoms, weights):
    """The documented measure file format, written independently."""
    lines = ["sublorentz-measure v1"]
    lines += [f"atom {x!r} {y!r} {z!r} {float(w)!r}" for (x, y, z), w in zip(atoms.tolist(), weights)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_measure(path):
    atoms, weights = [], []
    with open(path) as fh:
        for line in fh:
            fields = line.split()
            if fields and fields[0] == "atom":
                atoms.append([float(v) for v in fields[1:4]])
                weights.append(float(fields[4]))
    return np.array(atoms).reshape(-1, 3), np.array(weights)


def parse_pairs(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out.setdefault(key, value.strip())
    return out


def _triple(p):
    return ",".join(repr(float(v)) for v in p)


@dataclass
class CliInputs:
    files: dict
    arrays: dict
    tau_pair: tuple
    log_pair: tuple
    q0: np.ndarray
    steps: list
    solve_value: float = None


INTERP_T = (0.25, 0.5, 0.75)
CLI_LABELS = ("tau", "logmap", "solve", "solve-small", "brenier", "interpolate", "right-translation", "verify")


class Cli(Workload):
    name = "cli"
    probe_every = 0.0  # around every command: the commands run seconds apart

    def generate(self, seed):
        rng = np.random.default_rng([seed, 3])
        d = self.workdir
        arrays = {}
        files = {}

        def put(key, atoms, weights):
            path = os.path.join(d, f"{key}.txt")
            write_measure(path, atoms, weights)
            arrays[key] = (atoms, np.asarray(weights, float))
            files[key] = path

        mu, nu = chronological_rectangle(rng, 24, 24)
        wa = rng.random(24) + 0.1
        wb = rng.random(24) + 0.1
        put("rect_mu", mu, wa / wa.sum())
        put("rect_nu", nu, wb / wb.sum())
        mu, nu = chronological_rectangle(rng, 16, 16)
        put("uni_mu", mu, np.full(16, 1.0 / 16))
        put("uni_nu", nu, np.full(16, 1.0 / 16))
        mu, nu, q0 = translated_cluster(rng, 12, twisted=False)
        put("clu_mu", mu, np.full(12, 1.0 / 12))
        put("clu_nu", nu, np.full(12, 1.0 / 12))
        a = rng.uniform(-1, 1, 3)
        tau_pair = (a, O.mul(a, np.array([2.0, 0.0, 0.0]) + rng.uniform(-0.3, 0.3, 3)))
        xi = _timelike_covectors(rng, 1, 1.0)[0]
        log_pair = (a, O.exp_map(a, xi), xi)
        pre = os.path.join(d, "out")
        steps = [
            ("tau", ["tau", f"--from={_triple(tau_pair[0])}", f"--to={_triple(tau_pair[1])}", "--digits", "17"]),
            ("logmap", ["logmap", f"--from={_triple(log_pair[0])}", f"--to={_triple(log_pair[1])}", "--digits", "17"]),
            ("solve", ["solve", "--mu", files["rect_mu"], "--nu", files["rect_nu"], "--digits", "17"]),
            ("solve-small", ["solve", "--mu", files["clu_mu"], "--nu", files["clu_nu"], "--digits", "17"]),
            ("brenier", ["brenier", "--mu", files["uni_mu"], "--nu", files["uni_nu"],
                         "--t", ",".join(map(str, INTERP_T)), "--out", pre + "_brenier"]),
            ("interpolate", ["interpolate", "--mu", files["uni_mu"], "--nu", files["uni_nu"],
                             "--t", "0.5", "--out", pre + "_interp"]),
            ("right-translation", ["right-translation", "--mu", files["clu_mu"], f"--q0={_triple(q0)}",
                                   "--digits", "17"]),
            ("verify", ["verify"]),
        ]
        assert tuple(label for label, _ in steps) == CLI_LABELS
        return CliInputs(files, arrays, tau_pair, log_pair, q0, steps)

    # -- running the session --------------------------------------------------

    def run_round(self, inp, rec):
        """The session as separate processes, as a user runs it."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        walls = {}
        for label, argv in inp.steps:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "sublorentz.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120, cwd=self.root,
            )
            wall = time.perf_counter() - t0
            rec.op(wall)
            walls[label] = wall
            rec.check(proc.returncode == 0, f"cli {label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            self._check_step(inp, label, proc.stdout, rec)
        return walls

    def trace_round(self, inp, rec):
        """The same session in this process through sublorentz.cli.main."""
        from sublorentz import cli

        for label, argv in inp.steps:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            rec.op(time.perf_counter() - t0)
            rec.check(code == 0, f"cli {label} in process: exit {code}")
            self._check_step(inp, label, buf.getvalue(), rec)

    # -- output checks ----------------------------------------------------------

    def _check_step(self, inp, label, stdout, rec):
        out = parse_pairs(stdout)
        try:
            getattr(self, "_check_" + label.replace("-", "_"))(inp, out, stdout, rec)
        except (KeyError, ValueError, OSError, IndexError) as err:
            rec.check(False, f"cli {label}: unreadable output ({type(err).__name__}: {err})")

    def _check_tau(self, inp, out, stdout, rec):
        want = float(O.tau(*inp.tau_pair))
        rec.check(_rel_err(float(out["tau"]), want) <= REL, "cli tau vs oracle")
        rec.check(out["relation"] == "Chronological", "cli tau relation")

    def _check_logmap(self, inp, out, stdout, rec):
        xi = inp.log_pair[2]
        got = np.array([float(out["hX"]), float(out["hY"]), float(out["hZ"])])
        rec.check(np.abs(got - xi).max() <= REL * np.abs(xi).max(), "cli logmap covector")
        rec.check(_rel_err(float(out["tau"]), math.sqrt(2.0 * O.energy(xi))) <= REL, "cli logmap tau")

    def _check_solve(self, inp, out, stdout, rec):
        value = float(out["value"])
        if inp.solve_value is None:
            inp.solve_value = value
        rec.check(value == inp.solve_value, "cli solve value changed between rounds")
        rec.check(abs(float(out["duality_gap"])) <= REL, "cli solve duality gap")
        rec.check(float(out["monotonicity_worst_violation"]) <= REL, "cli solve monotonicity")

    def _check_solve_small(self, inp, out, stdout, rec):
        want = translation_value(inp.q0)
        rec.check(abs(float(out["value"]) - want) <= REL * want, "cli solve-small value vs gain(tau(e, q0))")
        rec.check(out["monotonicity_exhaustive"] == "True", "cli solve-small exhaustive branch")
        rec.check(int(out["monotonicity_cycles_checked"]) == O.monotonicity_cycles(12),
                  "cli solve-small cycle count")

    def _check_brenier(self, inp, out, stdout, rec):
        mu, _ = inp.arrays["uni_mu"]
        nu, _ = inp.arrays["uni_nu"]
        skipped = {int(line.split()[1]) for line in stdout.splitlines() if line.startswith("skipped ")}
        mapped = [i for i in range(len(mu)) if i not in skipped]
        images, _ = read_measure(self._prefix(inp, "brenier") + "_mapped.txt")
        rec.check(len(images) == len(mapped), "cli brenier mapped count")
        dist = np.abs(images[:, None, :] - nu[None, :, :]).max(axis=2)
        hit = dist.argmin(axis=1)
        rec.check((dist.min(axis=1) <= 1e-6).all(), "cli brenier images on nu atoms")
        rec.check(len(set(hit.tolist())) == len(hit), "cli brenier images distinct")
        src = mu[mapped]
        whole = O.tau(src, images)
        for t in INTERP_T:
            pts, _ = read_measure(self._prefix(inp, "brenier") + f"_t{t:g}.txt")
            legs = O.tau(src, pts) + O.tau(pts, images)
            rec.check((_rel_err(legs, whole) <= REL).all(), f"cli brenier t={t} on geodesic")

    def _check_interpolate(self, inp, out, stdout, rec):
        mu, _ = inp.arrays["uni_mu"]
        nu, _ = inp.arrays["uni_nu"]
        pts, w = read_measure(self._prefix(inp, "interp") + "_t0.5.txt")
        rec.check(len(pts) == len(mu) and np.allclose(w, 1.0 / len(mu), rtol=0, atol=1e-15),
                  "cli interpolate: one atom of mass 1/n per source")
        whole = O.tau(mu[:, None, :], nu[None, :, :])
        legs = O.tau(mu[:, None, :], pts[:, None, :]) + O.tau(pts[:, None, :], nu[None, :, :])
        on_geodesic = (_rel_err(legs, whole) <= REL) & (whole > 0.0)
        half = _rel_err(O.tau(mu, pts)[:, None], 0.5 * whole) <= REL
        rec.check((on_geodesic & half).any(axis=1).all(), "cli interpolate midpoints on geodesics")

    def _check_right_translation(self, inp, out, stdout, rec):
        want = translation_value(inp.q0)
        rec.check(out["verdict"] == "Optimal" and out["predicate"] == "True" and out["agrees"] == "True",
                  "cli right-translation verdict")
        rec.check(_rel_err(float(out["map_value"]), want) <= REL, "cli right-translation map value")
        rec.check(_rel_err(float(out["lp_value"]), want) <= REL, "cli right-translation lp value")

    def _check_verify(self, inp, out, stdout, rec):
        rec.check(stdout.strip().splitlines()[-1] == "overall PASS", "cli verify overall PASS")

    def _prefix(self, inp, name):
        return os.path.join(self.workdir, f"out_{name}")

    def final_checks(self, inp, rec):
        from sublorentz import transport

        mu, wa = inp.arrays["rect_mu"]
        nu, wb = inp.arrays["rect_nu"]
        cm = transport.cost_matrix(_measure(mu, wa), _measure(nu, wb), transport.CostParams(P))
        ref = O.highs_value(cm.values, cm.feasible, wa, wb)
        if ref is None:
            rec.notes.append("HiGHS comparison skipped: scipy does not import")
            return
        rec.check(abs(inp.solve_value - ref) <= REL * max(1.0, ref),
                  f"cli solve value {inp.solve_value!r} vs HiGHS {ref!r}")


WORKLOADS = {w.name: w for w in (Geometry, Transport, Cli)}
