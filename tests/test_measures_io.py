"""Measure file format, CSV writers and samplers."""

import math
import warnings

import numpy as np
import pytest

from sublorentz.causality import CausalRelation, classify
from sublorentz.errors import GenerationFailure, ParseError, WeightError
from sublorentz.heisenberg import GroupPoint
from sublorentz.measures_io import (
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
