"""End-to-end CLI behaviour: output lines, files written, exit codes."""

import argparse
import gc
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sublorentz.cli import build_parser, main
from sublorentz.heisenberg import GroupPoint, mul
from sublorentz.measures_io import HEADER, load_measure, sample_chronological_pair, save_measure
from sublorentz.transport import DiscreteMeasure


@pytest.fixture
def fixture_files(tmp_path):
    mu = tmp_path / "mu.txt"
    nu = tmp_path / "nu.txt"
    mu.write_text(f"{HEADER}\natom 0 0 0 0.5\natom 0.2 0 0 0.5\n")
    nu.write_text(f"{HEADER}\natom 2 0 0 0.5\natom 3 0 0 0.5\n")
    return mu, nu


def test_tau_chronological(capsys):
    assert main(["tau", "--from", "0,0,0", "--to", "2,1,0"]) == 0
    out = capsys.readouterr().out
    assert "tau 1.73205081" in out
    assert "relation Chronological" in out


def test_tau_unrelated(capsys):
    assert main(["tau", "--from", "0,0,0", "--to", "-2,1,0"]) == 0
    out = capsys.readouterr().out
    assert "tau 0" in out
    assert "relation Unrelated" in out


def test_tau_digits_flag(capsys):
    assert main(["tau", "--from", "0,0,0", "--to", "2,1,0", "--digits", "12"]) == 0
    assert "tau 1.73205080757" in capsys.readouterr().out


def _argparse_exit_code(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    return err.value.code


def test_malformed_triple_exits_2():
    assert _argparse_exit_code(["tau", "--from", "0,0", "--to", "2,1,0"]) == 2
    assert _argparse_exit_code(["tau", "--from", "0,0,oops", "--to", "2,1,0"]) == 2


def test_out_of_range_arguments_exit_2(fixture_files, tmp_path):
    mu, nu = str(fixture_files[0]), str(fixture_files[1])
    prefix = str(tmp_path / "out")
    for argv in (
        ["solve", "--mu", mu, "--nu", nu, "--p", "1.5"],
        ["solve", "--mu", mu, "--nu", nu, "--p", "0"],
        ["brenier", "--mu", mu, "--nu", nu, "--t", "0.5,1.5", "--out", prefix],
        ["interpolate", "--mu", mu, "--nu", nu, "--t", "1.5", "--out", prefix],
        ["interpolate", "--mu", mu, "--nu", nu, "--t", "-0.1", "--out", prefix],
        ["interpolate", "--mu", mu, "--nu", nu, "--t", "", "--out", prefix],
        ["interpolate", "--mu", mu, "--nu", nu, "--t", ",", "--out", prefix],
        ["brenier", "--mu", mu, "--nu", nu, "--t", "", "--out", prefix],
        ["brenier", "--mu", mu, "--nu", nu, "--t", ",", "--out", prefix],
        ["geodesic", "--cov", "-1,0,1", "--n", "1"],
        ["geodesic", "--cov", "-1,0,1", "--t", "-1"],
        ["geodesic", "--cov", "1,0,0"],
        ["tau", "--from", "0,0,0", "--to", "2,1,0", "--digits", "0"],
        ["right-translation", "--mu", mu, "--q0", "1.5,0.2,0", "--tol", "nan"],
        ["right-translation", "--mu", mu, "--q0", "1.5,0.2,0", "--tol", "-1"],
        ["right-translation", "--mu", mu, "--q0", "1.5,0.2,0", "--tol", "inf"],
    ):
        assert _argparse_exit_code(argv) == 2, argv
    # nothing was written before the rejection
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mu.txt", "nu.txt"]
    # the ends of each range are accepted
    assert main(["interpolate", "--mu", mu, "--nu", nu, "--t", "0,1", "--out", prefix]) == 0
    assert main(["tau", "--from", "0,0,0", "--to", "2,1,0", "--digits", "1"]) == 0
    assert main(["right-translation", "--mu", mu, "--q0", "1.5,0.2,0", "--tol", "0"]) == 0


# Every option string each subcommand accepts, its own inputs included.
ACCEPTED_OPTIONS = {
    "tau": "--from --to --digits",
    "logmap": "--from --to --digits",
    "geodesic": "--from --cov --t --n --out --svg --digits",
    "solve": "--mu --nu --p --out --svg --digits",
    "brenier": "--mu --nu --t --p --out --svg",
    "interpolate": "--mu --nu --t --p --out",
    "right-translation": "--mu --q0 --p --tol --out --digits",
    "verify": "--seed",
}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert accepted == {name: set(opts.split()) for name, opts in ACCEPTED_OPTIONS.items()}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "0.3"],
        ["interpolate", "--mu", "mu.txt", "--nu", "nu.txt", "--t", "0.5", "--svg", "f.svg"],
        ["brenier", "--mu", "mu.txt", "--nu", "nu.txt", "--digits", "3"],
        ["tau", "--from", "0,0,0", "--to", "2,1,0", "--seed", "1"],
        ["solve", "--mu", "mu.txt", "--nu", "nu.txt", "--seed", "1"],
        ["logmap", "--from", "0,0,0", "--to", "2,1,0", "--out", "f"],
        ["geodesic", "--cov", "-1,0,1", "--tol", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_unread_flag_exits_2_and_writes_nothing(argv, fixture_files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _argparse_exit_code(argv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mu.txt", "nu.txt"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exits_2(argv, fixture_files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _argparse_exit_code(argv) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "--from=nan,0,0", "--to", "2,0,0"],
        ["tau", "--from", "0,0,0", "--to=inf,0,0"],
        ["logmap", "--from", "0,0,0", "--to=2,-inf,0"],
        ["geodesic", "--from=0,nan,0", "--cov", "-1,0,1"],
        ["geodesic", "--cov=-1,0,nan"],
        ["right-translation", "--mu", "mu.txt", "--q0=inf,0,0"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_finite_triple_exits_2(argv, fixture_files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _argparse_exit_code(argv) == 2


def test_geodesic_past_cosh_range_exits_4_without_traceback(capsys):
    # the second covector keeps |hZ t| small, but hX^2 overflows: z would
    # print inf, and nan at t = 0
    for cov in ("-1,0,800", "-1e200,0,1"):
        assert main(["geodesic", f"--cov={cov}", "--t", "1", "--n", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: OutOfDomain:")
        assert "Traceback" not in captured.err


def test_negative_triples_parse():
    assert main(["tau", "--from", "-1,0,0", "--to", "1,0,0"]) == 0
    assert main(["geodesic", "--cov", "-1,0,1", "--t", "1", "--n", "2"]) == 0


def test_geodesic_stdout_and_frozen_endpoint(capsys):
    assert main(["geodesic", "--cov", "-1,0,1", "--t", "1", "--n", "3",
                 "--digits", "17"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 4
    t, x, y, z = (float(v) for v in lines[-1].split(","))
    assert t == 1.0
    assert x == pytest.approx(math.sinh(1.0), abs=1e-14)
    assert y == pytest.approx(math.cosh(1.0) - 1.0, abs=1e-14)
    assert z == pytest.approx((math.sinh(1.0) - 1.0) / 2.0, abs=1e-14)


def test_geodesic_writes_csv_and_svg(tmp_path, capsys):
    csv = tmp_path / "arc.csv"
    svg = tmp_path / "arc.svg"
    code = main(["geodesic", "--cov", "-1.2,0.3,0.5", "--t", "2", "--n", "17",
                 "--out", str(csv), "--svg", str(svg)])
    assert code == 0
    rows = csv.read_text().splitlines()
    assert rows[0] == "t,x,y,z" and len(rows) == 18
    assert svg.read_text().startswith("<svg")


def test_logmap_frozen_example(capsys):
    assert main(["logmap", "--from", "0,0,0", "--to", "2,1,0"]) == 0
    out = capsys.readouterr().out
    assert "hX -2" in out
    assert "hY 1" in out
    assert "hZ 0" in out
    assert "energy 1.5" in out
    assert "tau 1.73205081" in out


def test_logmap_infeasible_target_exits_4(capsys):
    assert main(["logmap", "--from", "0,0,0", "--to", "-2,0,0"]) == 4
    assert "error" in capsys.readouterr().err


def test_solve_fixture(fixture_files, tmp_path, capsys):
    mu, nu = fixture_files
    plan = tmp_path / "plan.csv"
    code = main(["solve", "--mu", str(mu), "--nu", str(nu), "--out", str(plan)])
    assert code == 0
    out = capsys.readouterr().out
    assert "value 3.08753362" in out
    assert "ell_p 2.38321596" in out
    assert "monotonicity_worst_violation 0" in out
    lines = plan.read_text().splitlines()
    assert lines[0] == "i,j,mass,cost"
    cost_total = sum(float(r.split(",")[3]) for r in lines[1:])
    assert cost_total == pytest.approx(3.087533615441246, abs=1e-9)


def _monotonicity_lines(mu, nu, tmp_path, capsys):
    save_measure(mu, tmp_path / "mu.txt")
    save_measure(nu, tmp_path / "nu.txt")
    argv = ["solve", "--mu", str(tmp_path / "mu.txt"), "--nu", str(tmp_path / "nu.txt"), "--digits", "17"]
    assert main(argv) == 0
    return [line for line in capsys.readouterr().out.splitlines() if line.startswith("monotonicity_")]


def test_solve_monotonicity_lines_exhaustive_on_12_pairs(tmp_path, capsys):
    # a translated cluster: the optimal plan is a permutation with 12 pairs
    rng = np.random.default_rng(12)
    atoms = [GroupPoint(*a) for a in rng.uniform([-0.7, -0.7, -0.25], [0.7, 0.7, 0.25], size=(12, 3))]
    q0 = GroupPoint(1.6, 0.1, 0.0)
    w = np.full(12, 1.0 / 12)
    mu, nu = DiscreteMeasure(atoms, w), DiscreteMeasure([mul(a, q0) for a in atoms], w)
    assert _monotonicity_lines(mu, nu, tmp_path, capsys) == [
        "monotonicity_worst_violation 0",
        "monotonicity_cycles_checked 133364",
        "monotonicity_exhaustive True",
    ]


def test_solve_monotonicity_lines_exact_beyond_12_pairs(tmp_path, capsys):
    # 15 support pairs: the audit decides every cycle at once from potentials
    # and scores none one by one
    mu, nu = sample_chronological_pair(8, 8, seed=5, weights="random")
    assert _monotonicity_lines(mu, nu, tmp_path, capsys) == [
        "monotonicity_worst_violation 0",
        "monotonicity_cycles_checked 0",
        "monotonicity_exhaustive True",
    ]


def test_solve_infeasible_exits_4(tmp_path, fixture_files, capsys):
    mu, _ = fixture_files
    nu_bad = tmp_path / "space.txt"
    nu_bad.write_text(f"{HEADER}\natom -5 0 0 1\n")
    assert main(["solve", "--mu", str(mu), "--nu", str(nu_bad)]) == 4
    assert "NoCausalCoupling" in capsys.readouterr().err


def test_solve_missing_file_exits_3(fixture_files, tmp_path, capsys):
    mu, _ = fixture_files
    assert main(["solve", "--mu", str(mu), "--nu", str(tmp_path / "nope.txt")]) == 3


def test_solve_bad_header_exits_2(fixture_files, tmp_path, capsys):
    mu, _ = fixture_files
    bad = tmp_path / "bad.txt"
    bad.write_text("not-a-measure\natom 2 0 0 1\n")
    assert main(["solve", "--mu", str(mu), "--nu", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "solve --mu BAD --nu NU",
    "brenier --mu BAD --nu NU --t 0,1 --out OUT",
    "interpolate --mu BAD --nu NU --t 0,1 --out OUT",
    "right-translation --mu BAD --q0 1.5,0.2,0",
])
def test_measure_file_not_utf8_exits_2(command, fixture_files, tmp_path, capsys):
    # a byte that is not UTF-8 is a parse error: one line, no traceback
    bad = tmp_path / "bad.txt"
    bad.write_bytes(HEADER.encode() + b"\natom 0 0 0 1\xff\n")
    paths = {"BAD": str(bad), "NU": str(fixture_files[1]), "OUT": str(tmp_path / "out")}
    assert main([paths.get(word, word) for word in command.split()]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: not UTF-8 text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "mu.txt", "nu.txt"]


@pytest.mark.parametrize("record, message", [
    ("atom 2 0 0 zero", "line 2: could not convert string to float: 'zero'"),
    ("atom 2 0 0 0.6", "weights sum to 0.6, expected 1 within 1e-06"),
])
def test_measure_errors_name_the_file(record, message, fixture_files, tmp_path, capsys):
    # a parse or weight error names the file it is in: one line, exit 2
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{HEADER}\n{record}\n")
    assert main(["solve", "--mu", str(fixture_files[0]), "--nu", str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


def test_solve_writes_svg(fixture_files, tmp_path):
    mu, nu = fixture_files
    svg = tmp_path / "plan.svg"
    assert main(["solve", "--mu", str(mu), "--nu", str(nu), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "<line" in text


def test_brenier_fixture_maps_to_targets(fixture_files, tmp_path, capsys):
    mu, nu = fixture_files
    prefix = tmp_path / "bren"
    code = main(["brenier", "--mu", str(mu), "--nu", str(nu),
                 "--t", "0,0.5", "--out", str(prefix)])
    assert code == 0
    out = capsys.readouterr().out
    assert "mapped 2 of 2 atoms" in out
    mapped = load_measure(f"{prefix}_mapped.txt")
    assert mapped.atoms[0].x == pytest.approx(2.0, abs=1e-9)
    assert mapped.atoms[1].x == pytest.approx(3.0, abs=1e-9)
    start = load_measure(f"{prefix}_t0.txt")
    assert start.atoms[0].x == pytest.approx(0.0, abs=1e-12)
    assert start.atoms[1].x == pytest.approx(0.2, abs=1e-12)
    mid = load_measure(f"{prefix}_t0.5.txt")
    assert 0.0 < mid.atoms[0].x < 2.0


def test_brenier_with_only_weightless_atoms_mapped_exits_4(tmp_path, capsys):
    mu = tmp_path / "mu.txt"
    nu = tmp_path / "nu.txt"
    mu.write_text(f"{HEADER}\natom 0 0 0 0\natom 0.1 0 0 1\n")
    nu.write_text(f"{HEADER}\natom 2 0 0 0.5\natom 3 0 0 0.5\n")
    prefix = tmp_path / "bren"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["brenier", "--mu", str(mu), "--nu", str(nu), "--out", str(prefix)])
    assert code == 4
    captured = capsys.readouterr()
    assert "mapped 1 of 2 atoms" in captured.out
    assert "NoCausalCoupling" in captured.err
    assert not (tmp_path / "bren_mapped.txt").exists()


def test_brenier_on_a_dilated_pair_exits_0(tmp_path, capsys):
    # under delta_lam the potentials grow like lam^p: the support's own
    # equalities must not come back as a cycle that admits no duals
    lam = 1e10
    paths = []
    for name, measure in zip("mn", sample_chronological_pair(12, 12, seed=3, weights="random")):
        atoms = [GroupPoint(lam * q.x, lam * q.y, lam * lam * q.z) for q in measure.atoms]
        paths.append(tmp_path / f"{name}.txt")
        save_measure(DiscreteMeasure(atoms, measure.weights), paths[-1])
    argv = ["brenier", "--mu", str(paths[0]), "--nu", str(paths[1]), "--out", str(tmp_path / "bren")]
    assert main(argv) == 0, capsys.readouterr().err


def test_interpolate_quarter_point(fixture_files, tmp_path):
    mu, nu = fixture_files
    prefix = tmp_path / "disp"
    code = main(["interpolate", "--mu", str(mu), "--nu", str(nu),
                 "--t", "0.25", "--out", str(prefix)])
    assert code == 0
    quarter = load_measure(f"{prefix}_t0.25.txt")
    xs = sorted(a.x for a in quarter.atoms)
    assert xs[0] == pytest.approx(0.5, abs=1e-9)
    assert xs[1] == pytest.approx(0.9, abs=1e-9)


def test_interpolate_writes_brenier_interpolate_points(tmp_path):
    # each support pair (x, y) rides MapSample(x, y, log_map(x, y)), and the
    # file at t holds brenier.interpolate's points for those rides bit for
    # bit; at dyadic t, where t * log_map(x, y) is exact, they are also the
    # bits of the flow for time t along log_map(x, y)
    from sublorentz.brenier import MapSample, interpolate
    from sublorentz.geodesics import GeodesicArc, log_map
    from sublorentz.transport import CostParams, solve_kantorovich

    files = [str(tmp_path / name) for name in ("mu.txt", "nu.txt")]
    for measure, path in zip(sample_chronological_pair(12, 12, seed=3, weights="random"), files):
        save_measure(measure, path)
    prefix = str(tmp_path / "disp")
    assert main(["interpolate", "--mu", files[0], "--nu", files[1], "--t", "0.25,0.5,0.75", "--out", prefix]) == 0
    mu, nu = map(load_measure, files)  # as the command reads them, renormalized
    plan, _ = solve_kantorovich(mu, nu, CostParams(0.5))
    pairs = [(mu.atoms[i], nu.atoms[j]) for i, j in plan.support()]
    rides = [MapSample(x, y, log_map(x, y)) for x, y in pairs]
    masses = np.array([plan.masses[i, j] for i, j in plan.support()])
    for t in (0.25, 0.5, 0.75):
        assert load_measure(f"{prefix}_t{t:g}.txt").atoms == tuple(interpolate(r, t) for r in rides)
    flowed = tmp_path / "flowed.txt"
    save_measure(DiscreteMeasure([GeodesicArc(x, log_map(x, y), 1.0).point(0.5) for x, y in pairs],
                                 masses / sum(masses.tolist())), str(flowed))
    assert Path(f"{prefix}_t0.5.txt").read_bytes() == flowed.read_bytes()


def test_right_translation_verdicts(fixture_files, tmp_path, capsys):
    mu, _ = fixture_files
    assert main(["right-translation", "--mu", str(mu), "--q0", "2,0.5,0"]) == 0
    out = capsys.readouterr().out
    assert "verdict Optimal" in out
    assert "predicate True" in out
    assert "agrees True" in out
    # spacelike shift: no causal coupling at all
    assert main(["right-translation", "--mu", str(mu), "--q0", "1,0.5,0.3"]) == 4


def test_right_translation_writes_translated_measure(fixture_files, tmp_path):
    mu, _ = fixture_files
    out = tmp_path / "translated.txt"
    code = main(["right-translation", "--mu", str(mu), "--q0", "2,0,0",
                 "--out", str(out)])
    assert code == 0
    moved = load_measure(out)
    assert moved.atoms[0].x == pytest.approx(2.0)
    assert moved.atoms[1].x == pytest.approx(2.2)


def test_unknown_subcommand_exits_2():
    assert _argparse_exit_code(["frobnicate"]) == 2


def test_missing_required_argument_exits_2():
    assert _argparse_exit_code(["tau", "--from", "0,0,0"]) == 2


# verify's whole output at seeds 0 and 3: every suite's margin is frozen, so
# a change that moves any float the suites compute fails here.
VERIFY_SEED_0 = """\
PASS  exp-log-roundtrip           sup deviation 1.509e-12 over 2000 points
PASS  flow-vs-ode                 sup deviation 3.991e-15 over 60 flows
PASS  tau-consistency             sup deviation 1.332e-15; planar fixture 0.000e+00
PASS  reverse-triangle            worst violation 0.000e+00 over 2000 chains
PASS  planar-bound                worst excess 0.000e+00 over 2000 pairs
PASS  lp-duality                  gap 8.882e-16; monotonicity violation 3.553e-15; brute-force diff 0.000e+00
PASS  brenier-roundtrip           map-vs-plan 4.996e-15; forward/backward 1.377e-14
PASS  displacement-interpolation  pointwise 1.221e-15; measure-level 2.220e-16
PASS  right-translation           disagreements 0.000e+00 of 20 instances
PASS  monge-ampere                residual 5.724e-12; |det - 1| 7.164e-12
PASS  minkowski-lift              planar-vs-native value diff 0.000e+00
PASS  partition-length            largest refinement rise 1.998e-15; finest-partition length error 2.442e-15
overall PASS
"""

VERIFY_SEED_3 = """\
PASS  exp-log-roundtrip           sup deviation 4.940e-13 over 2000 points
PASS  flow-vs-ode                 sup deviation 6.027e-14 over 60 flows
PASS  tau-consistency             sup deviation 1.110e-15; planar fixture 0.000e+00
PASS  reverse-triangle            worst violation 0.000e+00 over 2000 chains
PASS  planar-bound                worst excess 0.000e+00 over 2000 pairs
PASS  lp-duality                  gap 8.882e-16; monotonicity violation 1.776e-15; brute-force diff 0.000e+00
PASS  brenier-roundtrip           map-vs-plan 4.552e-15; forward/backward 3.220e-15
PASS  displacement-interpolation  pointwise 1.110e-15; measure-level 1.110e-16
PASS  right-translation           disagreements 0.000e+00 of 20 instances
PASS  monge-ampere                residual 7.553e-12; |det - 1| 8.551e-12
PASS  minkowski-lift              planar-vs-native value diff 0.000e+00
PASS  partition-length            largest refinement rise 6.661e-16; finest-partition length error 9.992e-16
overall PASS
"""


def test_verify_runs_all_suites(capsys):
    assert main(["verify"]) == 0
    assert capsys.readouterr() == (VERIFY_SEED_0, "")


def test_verify_seed_3_flow_margin(capsys):
    assert main(["verify", "--seed", "3"]) == 0
    assert capsys.readouterr() == (VERIFY_SEED_3, "")


# The process entry (python -m sublorentz.cli, and the console script) adds
# nothing to main(argv) but gc.freeze() and sys.exit: a process prints, exits
# and writes what main() does in this one.  Paths are relative to the working
# directory of each side, so no temporary path appears in either output.
PROCESS_CASES = {
    "solve-out": ["solve", "--mu", "mu.txt", "--nu", "nu.txt", "--out", "plan.csv"],
    "brenier-out": ["brenier", "--mu", "mu.txt", "--nu", "nu.txt", "--out", "b", "--t", "0.25,0.5"],
    "argument-error": ["tau", "--from", "0,0", "--to", "2,1,0"],
    "file-parse-error": ["solve", "--mu", "mu.txt", "--nu", "bad.txt"],
    "infeasible": ["solve", "--mu", "mu.txt", "--nu", "space.txt"],
}


def _write_inputs(directory):
    for measure, name in zip(sample_chronological_pair(6, 6, seed=1, weights="random"), ("mu.txt", "nu.txt")):
        save_measure(measure, str(directory / name))
    (directory / "bad.txt").write_text("not-a-measure\natom 2 0 0 1\n")
    (directory / "space.txt").write_text(f"{HEADER}\natom -5 0 0 1\n")
    return {p.name for p in directory.iterdir()}


def _outputs(directory, inputs):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name not in inputs}


@pytest.mark.parametrize("case", sorted(PROCESS_CASES))
def test_process_matches_in_process_main(case, tmp_path, monkeypatch, capsys):
    argv = PROCESS_CASES[case]
    here, there = tmp_path / "in_process", tmp_path / "process"
    here.mkdir()
    there.mkdir()
    inputs = _write_inputs(here)
    _write_inputs(there)

    monkeypatch.chdir(here)
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        code = main(list(argv))
    except SystemExit as exit_:
        code = exit_.code
    # main() itself leaves the collector as it found it
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    out, err = capsys.readouterr()

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sublorentz.cli", *argv],
                          cwd=there, env=env, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    assert _outputs(there, inputs) == _outputs(here, inputs)
    assert code == {"solve-out": 0, "brenier-out": 0, "infeasible": 4}.get(case, 2)
    if code == 0:
        assert _outputs(here, inputs)


def test_brenier_writes_svg(fixture_files, tmp_path, capsys):
    mu, nu = fixture_files
    svg = tmp_path / "map.svg"
    assert main(["brenier", "--mu", str(mu), "--nu", str(nu), "--out", str(tmp_path / "b"), "--svg", str(svg)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {svg}"
    text = svg.read_text()
    assert text.startswith("<svg") and "Brenier map" in text and "<line" in text


# sha256 of each SVG the CLI writes on the fixture files, so a refactor of
# svg.py keeps every byte
SVG_DIGESTS = {
    "solve": "4bfd499e49e40cc1baed9196bfe592c11a27a084993275dd820f1083f8e122c3",
    "brenier": "54be9848f743f75248bf78242a9022c659cd26ca7c952a1eadf0898ab780e361",
    "geodesic": "0a3cd1ae209dd855aaede9e1554acb1f459f5de4b055ff019824b5bc9f62e48f",
}


@pytest.mark.parametrize("command", SVG_DIGESTS)
def test_svg_bytes_are_frozen(command, fixture_files, tmp_path, capsys):
    mu, nu = (str(f) for f in fixture_files)
    svg = tmp_path / "plot.svg"
    argv = {
        "solve": ["solve", "--mu", mu, "--nu", nu],
        "brenier": ["brenier", "--mu", mu, "--nu", nu, "--out", str(tmp_path / "b")],
        "geodesic": ["geodesic", "--cov", "-1.2,0.3,0.5", "--t", "2", "--n", "17"],
    }[command]
    assert main([*argv, "--svg", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == SVG_DIGESTS[command]


def test_non_numeric_time_exits_2(fixture_files, capsys):
    mu, nu = fixture_files
    assert _argparse_exit_code(["brenier", "--mu", str(mu), "--nu", str(nu), "--t", "0.5,x"]) == 2
    assert "not a comma-separated float list: '0.5,x'" in capsys.readouterr().err


# A reader that closes the pipe early (`| true`, `| head -1`) ends the process
# with 141, as SIGPIPE ends a C tool, and nothing on stderr.  Unbuffered, the
# failing write comes during the command; buffered, tau's output fails only at
# the final flush.  tau's pipe is closed before the process starts; the
# geodesic writes about 0.8 MB, far past the pipe's capacity.
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv, head", [
    (["tau", "--from", "0,0,0", "--to", "1,0,0"], []),
    (["geodesic", "--cov=-1,0,1", "--n", "20000"], [b"t,x,y,z\n"]),
], ids=["tau", "geodesic"])
def test_closed_stdout_exits_141_without_a_message(argv, head, unbuffered):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "sublorentz.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    lines = [proc.stdout.readline() for _ in head]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), lines, err) == (141, head, b"")


def test_failed_out_write_exits_3(fixture_files, tmp_path, capsys):
    mu, nu = fixture_files
    out = tmp_path / "missing-dir" / "plan.csv"
    assert main(["solve", "--mu", str(mu), "--nu", str(nu), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
