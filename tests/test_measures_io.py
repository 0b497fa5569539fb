"""Measure file format, CSV writers and samplers."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sublorentz.causality import CausalRelation, classify
from sublorentz.errors import GenerationFailure, ParseError, WeightError
from sublorentz.heisenberg import GroupPoint, mul
from sublorentz.measures_io import (
    DIAMOND_BLOCK,
    HEADER,
    load_measure,
    sample_chronological_pair,
    sample_diamond,
    save_measure,
    save_plan,
    save_trajectory,
)
from sublorentz.transport import (
    CostParams,
    DiscreteMeasure,
    cost_matrix,
    solve_kantorovich,
)

P = CostParams(0.5)


def test_roundtrip_preserves_awkward_floats(tmp_path):
    atoms = (
        GroupPoint(0.30000000000000004, -1e-17, math.pi),
        GroupPoint(1.0, 2.0, -3.0),
    )
    mu = DiscreteMeasure(atoms, np.array([0.125, 0.875]))
    path = tmp_path / "m.txt"
    save_measure(mu, path)
    back = load_measure(path)
    assert back.atoms == atoms
    assert np.array_equal(back.weights, mu.weights)
    text = path.read_text()
    assert text.splitlines()[0] == HEADER
    assert text.count("atom ") == 2


def test_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(
        f"{HEADER}\n\n# a comment\natom 0 0 0 0.5\n# another\natom 1 0 0 0.5\n"
    )
    mu = load_measure(path)
    assert len(mu.atoms) == 2


def test_load_renormalizes_small_drift(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(f"{HEADER}\natom 0 0 0 0.5000001\natom 1 0 0 0.5\n")
    mu = load_measure(path)
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_load_rejects_large_weight_drift(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(f"{HEADER}\natom 0 0 0 0.6\natom 1 0 0 0.5\n")
    with pytest.raises(WeightError):
        load_measure(path)


def test_load_rejects_overflowing_weight_sum_without_warning(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(f"{HEADER}\natom 0 0 0 1e308\natom 1 0 0 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WeightError, match="weights sum to inf"):
            load_measure(path)


def test_load_rejects_negative_weight(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(f"{HEADER}\natom 0 0 0 1.5\natom 1 0 0 -0.5\n")
    with pytest.raises(WeightError):
        load_measure(path)


@pytest.mark.parametrize(
    "body, needle",
    [
        ("wrong-header\natom 0 0 0 1\n", "line 1"),
        (f"{HEADER}\npoint 0 0 0 1\n", "line 2"),
        (f"{HEADER}\natom 0 0 1\n", "line 2"),
        (f"{HEADER}\natom 0 0 zero 1\n", "line 2"),
        (f"{HEADER}\natom 0 0 inf 1\n", "line 2"),
        ("", "empty"),
        (f"{HEADER}\n# nothing else\n", "no atoms"),
    ],
)
def test_parse_errors_carry_context(tmp_path, body, needle):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ParseError) as err:
        load_measure(path)
    assert needle in str(err.value)


def test_save_plan_cost_column_sums_to_value(tmp_path):
    mu = DiscreteMeasure(
        (GroupPoint(0, 0, 0), GroupPoint(0.2, 0, 0)), np.array([0.5, 0.5])
    )
    nu = DiscreteMeasure(
        (GroupPoint(2, 0, 0), GroupPoint(3, 0, 0)), np.array([0.5, 0.5])
    )
    plan, _ = solve_kantorovich(mu, nu, P)
    cm = cost_matrix(mu, nu, P)
    path = tmp_path / "plan.csv"
    save_plan(plan, cm, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,mass,cost"
    total_mass = total_cost = 0.0
    for row in lines[1:]:
        i, j, mass, cost = row.split(",")
        total_mass += float(mass)
        total_cost += float(cost)
    assert total_mass == pytest.approx(1.0, abs=1e-12)
    assert total_cost == pytest.approx(plan.value, abs=1e-12)


def test_save_trajectory(tmp_path):
    rows = [(0.0, GroupPoint(0, 0, 0)), (0.5, GroupPoint(0.1, 0.2, 0.3))]
    path = tmp_path / "tr.csv"
    save_trajectory(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert lines[2].startswith("0.5,")
    assert len(lines) == 3


def test_sample_diamond_lands_inside():
    q0 = GroupPoint(0.1, -0.1, 0.05)
    q1 = GroupPoint(2.1, -0.1, 0.05 + 0.1)
    pts = sample_diamond(q0, q1, 40, rng=3)
    assert len(pts) == 40
    for d in pts:
        assert classify(q0, d) is CausalRelation.CHRONOLOGICAL
        assert classify(d, q1) is CausalRelation.CHRONOLOGICAL


def test_samplers_return_python_float_coordinates():
    q0 = GroupPoint(0.1, -0.1, 0.05)
    mu, nu = sample_chronological_pair(4, 6, seed=8)
    for pt in sample_diamond(q0, GroupPoint(2.1, -0.1, 0.15), 5, rng=3) + mu.atoms + nu.atoms:
        assert all(type(v) is float for v in pt), pt


def test_sample_diamond_gives_up_gracefully():
    q0 = GroupPoint(0, 0, 0)
    q1 = GroupPoint(2, 0, 0)
    with pytest.raises(GenerationFailure):
        sample_diamond(q0, q1, 50, rng=0, max_tries=3)


def test_sample_chronological_pair_rectangle():
    mu, nu = sample_chronological_pair(4, 6, seed=8, weights="random")
    assert len(mu.atoms) == 4 and len(nu.atoms) == 6
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert nu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert (mu.weights > 0).all() and (nu.weights > 0).all()
    for a in mu.atoms:
        for b in nu.atoms:
            assert classify(a, b) is CausalRelation.CHRONOLOGICAL


# sample_diamond draws each chunk in blocks of DIAMOND_BLOCK rows.  The digests
# and next draws below were recorded when a chunk was one Generator.uniform
# call, so they pin the stream and the end state across the blocks.
EXP_LOG_BASE = GroupPoint(0.3, -0.2, 0.1)
EXP_LOG_APEX = mul(EXP_LOG_BASE, GroupPoint(2.0, 0.0, 0.0))  # verify's exp-log-roundtrip diamond
STREAM_CASES = {  # (bit generator, n, max_tries): (sha256 of the points, next random())
    # n <= 27: one chunk of 4,096 rows, a single block
    ("PCG64", 27, 4_000_000): ("c1683074c147d65b99bd78cef390e0064a6fe979889a36ba5818e972d53ea126", 0.5891960563953879),
    ("MT19937", 27, 4_000_000): ("00edd8c7869a2844f000a483207f8a80b07807cafa0190112a01eb30eee7c047", 0.2639305489236675),
    # verify's call: a chunk of 300,000 rows in 19 blocks, the last 8 or 9 drawn and dropped
    ("PCG64", 2000, 4_000_000): ("3da18292deb75ca319557caa270be38bdf18fa0121e6ddc4c02a361ee7545262", 0.7837865077911345),
    ("MT19937", 2000, 4_000_000): ("fa5cfda0accf1881f8e2d9fcdccd5d198365fd1dc0082ba25cc22e7471b48f1b", 0.01910397425901733),
    # the budget cuts the chunk to exactly three blocks; n is reached in the second
    ("PCG64", 300, 3 * DIAMOND_BLOCK): ("2fc798c754a97a46b14a17fde96c0c3ea34c413606fcd63ba7a170cc2f3896e6", 0.06766884359365066),
    ("MT19937", 300, 3 * DIAMOND_BLOCK): ("9106b8b87fb74f98d13e82e052435a32db27bd1b8f1a216666d53e0b0c6ca793", 0.15413804636617068),
}


def _digest(points) -> str:
    return hashlib.sha256(np.array(points, dtype=float).tobytes()).hexdigest()


def _generator(bitgen: str, seed: int = 5):
    return np.random.Generator(getattr(np.random, bitgen)(seed))


@pytest.mark.parametrize("case", list(STREAM_CASES), ids=lambda c: f"{c[0]}-n{c[1]}-tries{c[2]}")
def test_sample_diamond_stream_and_end_state_are_frozen(case):
    bitgen, n, max_tries = case
    rng = _generator(bitgen)
    points = sample_diamond(EXP_LOG_BASE, EXP_LOG_APEX, n, rng, max_tries=max_tries)
    assert len(points) == n
    assert (_digest(points), rng.random()) == STREAM_CASES[case]


@pytest.mark.parametrize("bitgen, got", [("PCG64", 433), ("MT19937", 388)])
def test_sample_diamond_budget_spans_blocks(bitgen, got):
    max_tries = 2 * DIAMOND_BLOCK + 1000  # one chunk: two full blocks and a partial one
    rng = _generator(bitgen)
    with pytest.raises(GenerationFailure) as err:
        sample_diamond(EXP_LOG_BASE, EXP_LOG_APEX, 10_000, rng, max_tries=max_tries)
    assert str(err.value) == f"diamond sampling got {got}/10000 points"
    ref = _generator(bitgen)
    ref.random(3 * max_tries)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n, atoms, weights", [
    (6, "097285baf9b7de1dd9cc8e17001228c378ad4b1142ef1ee037e208b650416d1c",
     "0f6bc95fbdd79d6bb154c14ff38111c2a3f5c0c2d955e9b4c109f339c385ac87"),
    (24, "d9d2b58f620193d75f8ad84f5faf5e82ec9a4a774a81c44120f91388b18aabe9",
     "25151b65f0050fd76c8233c1a74e0a0d08ee09008f1c0796518a6cba357dd381"),
    (40, "d4d44151684ccda14f8d0c82225b62dbb61c0356d04d7ea15c2c64de5a343674",
     "452dfde821b4572122a075bbfb35cd575f1148cadba819a08660ac5dfc62ed90"),
])
def test_sample_chronological_pair_is_frozen(n, atoms, weights):
    mu, nu = sample_chronological_pair(n, n, seed=n, weights="random")
    assert _digest(mu.atoms + nu.atoms) == atoms
    assert _digest([mu.weights, nu.weights]) == weights


@pytest.mark.parametrize("n, shift", [
    (2000, GroupPoint(2.0, 0.0, 0.0)),  # verify's exp-log-roundtrip
    (10_000, GroupPoint(3.0, 0.4, 0.5)),  # acceptance criterion 1
])
def test_sample_diamond_memory_does_not_grow_with_the_chunk(n, shift):
    apex = mul(EXP_LOG_BASE, shift)
    sample_diamond(EXP_LOG_BASE, apex, 5, rng=1)  # warm up outside the trace
    tracemalloc.start()
    try:
        sample_diamond(EXP_LOG_BASE, apex, n, rng=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20  # one chunk in one array took 10.6 and 39.6 MiB


def test_sample_chronological_pair_rejects_an_unknown_weights_mode():
    with pytest.raises(ValueError, match="unknown weights mode 'dirichlet'"):
        sample_chronological_pair(2, 2, seed=1, weights="dirichlet")
