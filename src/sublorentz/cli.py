"""Batch command-line frontend.

Subcommands, with the shared flags each one reads besides its own inputs:

    tau, logmap          --digits
    geodesic             --out --svg --digits
    solve                --p --out --svg --digits
    brenier              --p --out --svg
    interpolate          --p --out
    right-translation    --p --tol --out --digits
    verify               --seed

A flag that a subcommand does not read is an argument error.  One command
per process; all randomness is seeded; numeric output uses 9 significant
digits unless --digits overrides.

Exit codes: 0 success, 1 failed verification, 2 argument or file parse
error, 3 I/O error, 4 causally infeasible input.

Start-up is most of a short command's time, so this module imports only the
numpy-free scalar layers (heisenberg, causality, geodesics, errors).  Each
command imports the rest it runs in its own body: transport, measures_io,
brenier, minkowski and numpy where it needs them, svg only under --svg.
``tau``, ``logmap`` and ``geodesic`` without --out or --svg never import
numpy; keep it so.  The process freezes its heap before it exits, so the
interpreter's last collections skip what it imported (6-28 ms a command).
"""

from __future__ import annotations

import argparse
import gc
import math
import re
import sys

from .causality import classify, tau
from .errors import (
    NoCausalCoupling,
    ParseError,
    SubLorentzError,
    WeightError,
)
from .geodesics import GeodesicArc, geodesic_trace, log_map
from .heisenberg import FrameCovector, GroupPoint, energy, is_future_timelike, mul

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4


def _triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a numeric triple: {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"not a finite triple: {text!r}")
    return values


def _checked(convert, ok, what: str):
    """argparse type: convert the text, then require ok(value)."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    parse.__name__ = convert.__name__
    return parse


def _float_list(text: str):
    try:
        values = [float(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return values


_cost_exponent = _checked(float, lambda p: 0.0 < p < 1.0, "in (0, 1)")
_unit_times = _checked(_float_list, lambda ts: all(0.0 <= t <= 1.0 for t in ts), "a list of times in [0, 1]")
_digits = _checked(int, lambda d: d >= 1, "at least 1")
_seed = _checked(int, lambda s: s >= 0, "a non-negative integer")
_samples = _checked(int, lambda n: n >= 2, "at least 2")
_duration = _checked(float, lambda t: t >= 0.0, "a duration >= 0")
_gap_tol = _checked(float, lambda t: 0.0 <= t < math.inf, "a finite tolerance >= 0")
_future_covector = _checked(
    _triple, lambda c: is_future_timelike(FrameCovector(*c)), "future-directed timelike"
)


def _fmt(args, v: float) -> str:
    return f"{v:.{args.digits}g}"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts leading-negative triples like -1,0,1.

    Stock argparse only treats bare negative numbers as values; widen the
    matcher so comma lists starting with a negative number pass too.  The
    --cov=-1,0,1 spelling works either way.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(,.*)?$"
        )


# The flags several subcommands share; each subcommand adds the ones it reads.
_FLAGS = {
    "--p": dict(type=_cost_exponent, default=0.5, help="cost exponent in (0,1)"),
    "--seed": dict(type=_seed, default=0, help="seed of the self-check suites"),
    "--tol": dict(type=_gap_tol, default=1e-8, help="optimality gap tolerance, relative to the gains' binade"),
    "--out": dict(default=None, help="output path or prefix"),
    "--svg": dict(default=None, help="write an SVG plot to this path"),
    "--digits": dict(type=_digits, default=9, help="significant digits in printed numbers"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sublorentz",
        description="Sub-Lorentzian geometry and causal optimal transport on the Heisenberg group.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def command(name, func, flags, summary):
        p = sub.add_parser(name, help=summary)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p_tau = command("tau", cmd_tau, "--digits", "time separation and causal relation")
    p_tau.add_argument("--from", dest="src", type=_triple, required=True, metavar="X,Y,Z")
    p_tau.add_argument("--to", dest="dst", type=_triple, required=True, metavar="X,Y,Z")

    p_geo = command("geodesic", cmd_geodesic, "--out --svg --digits", "sample a geodesic arc to CSV/SVG")
    p_geo.add_argument("--from", dest="src", type=_triple, default=(0.0, 0.0, 0.0), metavar="X,Y,Z")
    p_geo.add_argument("--cov", type=_future_covector, required=True, metavar="HX,HY,HZ",
                       help="initial covector in frame components")
    p_geo.add_argument("--t", type=_duration, default=1.0, help="duration")
    p_geo.add_argument("--n", type=_samples, default=100, help="number of sample rows")

    p_log = command("logmap", cmd_logmap, "--digits", "covector reaching a chronological target")
    p_log.add_argument("--from", dest="src", type=_triple, required=True, metavar="X,Y,Z")
    p_log.add_argument("--to", dest="dst", type=_triple, required=True, metavar="X,Y,Z")

    p_solve = command("solve", cmd_solve, "--p --out --svg --digits", "solve the causal transport LP")
    p_solve.add_argument("--mu", required=True, help="source measure file")
    p_solve.add_argument("--nu", required=True, help="target measure file")

    p_bren = command("brenier", cmd_brenier, "--p --out --svg",
                     "transport map from dual potentials, with interpolants")
    p_bren.add_argument("--mu", required=True)
    p_bren.add_argument("--nu", required=True)
    p_bren.add_argument("--t", type=_unit_times, default=[],
                        help="comma-separated interpolation times in [0,1]")

    p_interp = command("interpolate", cmd_interpolate, "--p --out",
                       "displacement interpolation of the optimal plan")
    p_interp.add_argument("--mu", required=True)
    p_interp.add_argument("--nu", required=True)
    p_interp.add_argument("--t", type=_unit_times, required=True,
                          help="comma-separated interpolation times in [0,1]")

    p_rt = command("right-translation", cmd_right_translation, "--p --tol --out --digits",
                   "test q -> q*q0 for transport optimality")
    p_rt.add_argument("--mu", required=True)
    p_rt.add_argument("--q0", type=_triple, required=True, metavar="X,Y,Z")

    command("verify", cmd_verify, "--seed", "run the self-check suites")
    return parser


def cmd_tau(args) -> int:
    a, b = GroupPoint(*args.src), GroupPoint(*args.dst)
    print(f"tau {_fmt(args, tau(a, b))}")
    print(f"relation {classify(a, b).value}")
    return EXIT_OK


def cmd_geodesic(args) -> int:
    arc = GeodesicArc(GroupPoint(*args.src), FrameCovector(*args.cov), args.t)
    rows = geodesic_trace(arc, args.n)
    if args.out:
        from .measures_io import save_trajectory

        save_trajectory(rows, args.out)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print("t,x,y,z")
        for t, p in rows:
            print(f"{_fmt(args, t)},{_fmt(args, p.x)},{_fmt(args, p.y)},{_fmt(args, p.z)}")
    if args.svg:
        from . import svg

        svg.write_trace_svg(args.svg, rows)
        print(f"wrote {args.svg}")
    return EXIT_OK


def cmd_logmap(args) -> int:
    a, b = GroupPoint(*args.src), GroupPoint(*args.dst)
    cov = log_map(a, b)
    print(f"hX {_fmt(args, cov.hX)}")
    print(f"hY {_fmt(args, cov.hY)}")
    print(f"hZ {_fmt(args, cov.hZ)}")
    e = energy(cov)
    print(f"energy {_fmt(args, e)}")
    print(f"tau {_fmt(args, (2.0 * e) ** 0.5)}")
    return EXIT_OK


def _load_pair(args):
    from .measures_io import load_measure

    return load_measure(args.mu), load_measure(args.nu)


def cmd_solve(args) -> int:
    from .transport import CostParams, check_cyclical_monotonicity, cost_matrix, duality_gap, solve_cost_matrix

    mu, nu = _load_pair(args)
    params = CostParams(args.p)
    cm = cost_matrix(mu, nu, params)
    plan, duals = solve_cost_matrix(cm, mu.weights, nu.weights)
    gap = duality_gap(plan, duals, mu, nu, cm)
    report = check_cyclical_monotonicity(plan, cm, max_cycle=6)
    print(f"value {_fmt(args, plan.value)}")
    print(f"ell_p {_fmt(args, (args.p * plan.value) ** (1.0 / args.p))}")
    print(f"duality_gap {_fmt(args, gap)}")
    print(f"monotonicity_worst_violation {_fmt(args, report.worst_violation)}")
    print(f"monotonicity_cycles_checked {report.cycles_checked}")
    print(f"monotonicity_exhaustive {report.exhaustive}")
    if args.out:
        from .measures_io import save_plan

        save_plan(plan, cm, args.out)
        print(f"wrote {args.out}")
    if args.svg:
        from . import svg

        svg.write_plan_svg(
            args.svg, mu, nu, [(i, j, float(plan.masses[i, j])) for i, j in plan.support()]
        )
        print(f"wrote {args.svg}")
    return EXIT_OK


def cmd_brenier(args) -> int:
    import numpy as np

    from .brenier import interpolate, potential_from_duals, transport_map_from_duals
    from .measures_io import save_measure
    from .transport import CostParams, DiscreteMeasure, cost_matrix, solve_cost_matrix, strengthen_duals

    mu, nu = _load_pair(args)
    params = CostParams(args.p)
    cm = cost_matrix(mu, nu, params)
    plan, _ = solve_cost_matrix(cm, mu.weights, nu.weights)
    duals = strengthen_duals(plan, cm)
    pot = potential_from_duals(duals, nu, params)
    result = transport_map_from_duals(mu, pot, cm)
    print(f"mapped {len(result.mapped)} of {len(mu.atoms)} atoms")
    for idx, reason in result.skipped:
        print(f"skipped {idx} {reason}")
    prefix = args.out or "brenier"
    w = np.array([mu.weights[i] for i in result.mapped], dtype=float)
    if not w.sum() > 0.0:
        raise NoCausalCoupling("no atom of positive weight admitted a transport map sample")
    w = w / w.sum()
    mapped_path = f"{prefix}_mapped.txt"
    images = DiscreteMeasure([s.image for s in result.samples], w)
    save_measure(images, mapped_path)
    print(f"wrote {mapped_path}")
    for t in args.t:
        pts = [interpolate(s, t) for s in result.samples]
        path = f"{prefix}_t{t:g}.txt"
        save_measure(DiscreteMeasure(pts, w), path)
        print(f"wrote {path}")
    if args.svg:
        from . import svg

        sources = DiscreteMeasure([s.source for s in result.samples], w)
        svg.write_plan_svg(
            args.svg,
            sources,
            images,
            [(k, k, float(w[k])) for k in range(len(result.samples))],
            title="Brenier map",
        )
        print(f"wrote {args.svg}")
    return EXIT_OK


def cmd_interpolate(args) -> int:
    import numpy as np

    from .measures_io import save_measure
    from .transport import CostParams, DiscreteMeasure, solve_kantorovich

    mu, nu = _load_pair(args)
    params = CostParams(args.p)
    plan, _ = solve_kantorovich(mu, nu, params)
    support = plan.support()
    arcs = []
    for i, j in support:
        x, y = mu.atoms[i], nu.atoms[j]
        cov = log_map(x, y)
        arcs.append((float(plan.masses[i, j]), GeodesicArc(x, cov, 1.0)))
    prefix = args.out or "interpolate"
    total = sum(m for m, _ in arcs)
    for t in args.t:
        atoms = [arc.point(t) for _, arc in arcs]
        weights = np.array([m / total for m, _ in arcs])
        path = f"{prefix}_t{t:g}.txt"
        save_measure(DiscreteMeasure(atoms, weights), path)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_right_translation(args) -> int:
    from .measures_io import load_measure, save_measure
    from .minkowski import right_translation_verdict
    from .transport import CostParams, DiscreteMeasure

    mu = load_measure(args.mu)
    params = CostParams(args.p)
    verdict = right_translation_verdict(mu, GroupPoint(*args.q0), params, gap_tol=args.tol)
    print(f"verdict {'Optimal' if verdict.optimal else 'NotOptimal'}")
    print(f"predicate {verdict.predicate}")
    print(f"agrees {verdict.agrees}")
    print(f"map_value {_fmt(args, verdict.map_value)}")
    print(f"lp_value {_fmt(args, verdict.lp_value)}")
    print(f"gap {_fmt(args, verdict.gap)}")
    if args.out:
        nu = DiscreteMeasure([mul(a, GroupPoint(*args.q0)) for a in mu.atoms], mu.weights)
        save_measure(nu, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suites

    results = run_suites(args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
        failures += 0 if r.passed else 1
    print(f"overall {'PASS' if failures == 0 else f'FAIL ({failures} suites)'}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, WeightError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except SubLorentzError as err:
        # remaining library errors are domain infeasibilities, not syntax
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE


def run():
    """Process entry point: main() on sys.argv, then exit with its code."""
    code = main()
    gc.freeze()  # the shutdown collections then skip every live object
    sys.exit(code)


if __name__ == "__main__":
    run()
