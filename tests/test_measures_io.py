"""Measure file format, CSV writers and samplers."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sublorentz.causality import CausalRelation, classify
from sublorentz.errors import GenerationFailure, ParseError, WeightError
from sublorentz import measures_io
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


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_load_reads_utf8_text_with_any_newline(tmp_path, newline):
    lines = [HEADER, "# \u03bc, the source", "atom 0 0 0 0.5", "atom 1 0 0 0.5", ""]
    path = tmp_path / "m.txt"
    path.write_bytes(newline.join(line.encode("utf-8") for line in lines))
    mu = load_measure(path)
    assert mu.atoms == (GroupPoint(0.0, 0.0, 0.0), GroupPoint(1.0, 0.0, 0.0))


def test_load_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(f"{HEADER}\natom 0 0 0 0.5\n# caf\xe9\natom 1 0 0 0.5\n".encode("latin-1"))
    with pytest.raises(ParseError) as err:
        load_measure(path)
    assert str(err.value) == f"{path}: not UTF-8 text"


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
    assert needle in str(err.value) and str(err.value).startswith(f"{path}: ")


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


def test_sample_chronological_pair_names_a_pair_off_the_rectangle(monkeypatch):
    # transitivity makes the rectangle check pass, so a classify_array that
    # drops one pair of the rectangle stands in for a fault in the sampler
    mu, nu = sample_chronological_pair(3, 4, seed=8)

    def dropping(a, b, classify_array=measures_io.classify_array):
        chronological, causal = classify_array(a, b)
        if chronological.ndim == 2:
            chronological[1, 2] = False
        return chronological, causal

    monkeypatch.setattr(measures_io, "classify_array", dropping)
    with pytest.raises(GenerationFailure) as err:
        sample_chronological_pair(3, 4, seed=8)
    assert str(err.value) == f"rectangle pair ({mu.atoms[1]!r}, {nu.atoms[2]!r}) not chronological"


# sample_diamond draws each chunk in blocks of DIAMOND_BLOCK rows of
# Generator.random, maps them onto the box in place and classifies them in
# passes of 150 rows per missing point.  The digests and next draws below were
# recorded when a chunk was one Generator.uniform call classified whole, so
# they pin the stream and the end state across the blocks and the passes.
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


# Small diamonds, the size of the transport inputs: n <= 27 draws one chunk of
# 4,096 rows, n = 40 one of 6,000.  Recorded when every block was one
# Generator.uniform call and classified whole.
E_TO_2 = (GroupPoint(0.0, 0.0, 0.0), GroupPoint(2.0, 0.0, 0.0))  # sample_chronological_pair's mu diamond
DIAMONDS = {"exp-log": (EXP_LOG_BASE, EXP_LOG_APEX), "e-to-2": E_TO_2}
SMALL_CASES = {  # (diamond, bit generator, n): (sha256 of the points, next random())
    ("exp-log", "PCG64", 1): ("36cccc9d69a465e76a544bbd5705fbc2e1211ee908df7b006fc2df2976d67f4b", 0.5891960563953879),
    ("exp-log", "PCG64", 2): ("4a878e4a04e59c6515805e30e94a739e3809605bdb3328bfd8cb8656e24aa924", 0.5891960563953879),
    ("exp-log", "PCG64", 8): ("1dd1ff9d23ced1e7073073534a6c9e7a1ee0ff5e53882aa80a923aac178d48a9", 0.5891960563953879),
    ("exp-log", "PCG64", 20): ("c13ff8567fb6108c4ff0cee7f7b51cb2d98573bce85173ff7a23fec4a36aa922", 0.5891960563953879),
    ("exp-log", "PCG64", 40): ("ac5584f653e9e8281dd33926c6b90b41824b3594e9ab416f50ed9e7a46e3d1a8", 0.2237662204529931),
    ("exp-log", "MT19937", 1): ("37a4590233aba0ce289ea90736c7a38eeb0f58945b73d4e4bf1c83f2004736ee", 0.2639305489236675),
    ("exp-log", "MT19937", 2): ("998097dca312e7f0a569ae9c6f3a741ad094caba62f3a83b78d35e66aab1ae05", 0.2639305489236675),
    ("exp-log", "MT19937", 8): ("c473a7945ab1495a5021f0e8eb1c1d5f24f3e5a6fdbd18295cb7077098e27eb9", 0.2639305489236675),
    ("exp-log", "MT19937", 20): ("957e2d0f2c0d8814c746f317cf2aaf545f045b89db7bdd597c1a76dcb1f2cd08", 0.2639305489236675),
    ("exp-log", "MT19937", 40): ("f7bdcee9efecac234a0cacba024a820c7d32c7664d986000b625a4904cf7cf55", 0.9022325431861561),
    ("exp-log", "Philox", 1): ("c929a87e7725dadd6d69abba60f62d918665be019e932caf3b4e770681cb38eb", 0.2126952515071805),
    ("exp-log", "Philox", 2): ("d7a68e7aac221cf2c77a11a87a140ffb8185b10ad631a69ae5a973148af48cda", 0.2126952515071805),
    ("exp-log", "Philox", 8): ("ad44204c53127d1bcaad65b4d32230825a035a06c5d96566b801399d1e7b3e4c", 0.2126952515071805),
    ("exp-log", "Philox", 20): ("318229e320f22508c12e171816dce13dd724eaaf11ee784adcda37955aaf26cc", 0.2126952515071805),
    ("exp-log", "Philox", 40): ("03958238194f7c8f80bfa0a2e81f8644596796ccda6423a0e6bf219eae86ce1e", 0.39100802749109576),
    ("exp-log", "SFC64", 1): ("b01f37c92d6835a17d9153309eed5e015b17b5231aa97c2060c6f55019adeb68", 0.7786337692635066),
    ("exp-log", "SFC64", 2): ("1e9513b470af68489c99824f1db1b30b9f2c756fdcb8e13d26b753858c00315b", 0.7786337692635066),
    ("exp-log", "SFC64", 8): ("f352a3bfccc1842893f8dff16a256c1b84acde4177f5c9b9414d4d5b6b3ea92a", 0.7786337692635066),
    ("exp-log", "SFC64", 20): ("e3fb3100fe21aa3e72307bad204a28c4dc7d3c325a136cb2b475b3c1cbcead0f", 0.7786337692635066),
    ("exp-log", "SFC64", 40): ("7524ba575b5f2ab48ee4492c70bec22cbe75c7912dd7d50531801a1098af82f4", 0.31484232856270156),
    ("e-to-2", "PCG64", 1): ("94688e69a7c5be5354ef199f6734506b633059c22dac4769ad04f431d912611b", 0.5891960563953879),
    ("e-to-2", "PCG64", 2): ("f301dac15f85bd8473a6ded596fe929c848a26aafbe2ea7ec8fb522cd81c70b4", 0.5891960563953879),
    ("e-to-2", "PCG64", 8): ("03c2e6ab1cf78265c874632dca3325f4d39294dc6a117403691dade8ec7c4d00", 0.5891960563953879),
    ("e-to-2", "PCG64", 20): ("512c3f3fa10780e0e95841e11cd4af08f868428bb3b0ffde77ec4d9945a1e824", 0.5891960563953879),
    ("e-to-2", "PCG64", 40): ("514666f280a11a74935474c21fa613f255241d8358b84848f376eeb94f622105", 0.2237662204529931),
    ("e-to-2", "MT19937", 1): ("e2fa942cb06ac65f81133044205db7694457e9f061299d2190cdd25a2d8d46d5", 0.2639305489236675),
    ("e-to-2", "MT19937", 2): ("ba9daca7f3c41ccba30f818d38c6646c3638e8bb900e83fb14537373b92d799b", 0.2639305489236675),
    ("e-to-2", "MT19937", 8): ("ddda6ed2c5112f32ea58dde991ebff0a70d7f2bf9b298196166e74df99e1c333", 0.2639305489236675),
    ("e-to-2", "MT19937", 20): ("643343e1ea19160e2852e9dac4b16bbf1b0da6da8ae102679abc0b4dda47bc41", 0.2639305489236675),
    ("e-to-2", "MT19937", 40): ("b7d0ca5b95af541a6a2d58c7d9202743c7799c77416c4952ebec2582b4835adf", 0.9022325431861561),
    ("e-to-2", "Philox", 1): ("42d74ecead30b33e9ebdb04c38925c9d25345110477cf07aa18cd6da340665c6", 0.2126952515071805),
    ("e-to-2", "Philox", 2): ("4def15616f3cfa5b4d513d983a842c01da9b3c2cb9c6530d11fd51fd90c26ac3", 0.2126952515071805),
    ("e-to-2", "Philox", 8): ("b6fbdfc5fe7532747ce4bfa8c1b0f315af4d50292f6f484b95f1f2b32f9822fe", 0.2126952515071805),
    ("e-to-2", "Philox", 20): ("d0f85304771d7d0634a5563091275046a7387f61d211444c5c3d21fbc3547c42", 0.2126952515071805),
    ("e-to-2", "Philox", 40): ("b762685ff895d92c5fa637b7025dd90779ba2a38699321f0e843229ea294fe60", 0.39100802749109576),
    ("e-to-2", "SFC64", 1): ("5129dacd4408c1fa60b1278463e721955494a9c2e8d47de51035ff1c266fe790", 0.7786337692635066),
    ("e-to-2", "SFC64", 2): ("22f5082de86ea093231bcce93820725d5c402c2b1fc5afb47a03247998dbdde9", 0.7786337692635066),
    ("e-to-2", "SFC64", 8): ("d2c7159a334b5b28ab681dbe7c28321076cb5a6bccaf9b47f785da204e9e511c", 0.7786337692635066),
    ("e-to-2", "SFC64", 20): ("aeba9c1619c540471ee6ea574ec04dd82205822037a1b51e94a42fac19c87372", 0.7786337692635066),
    ("e-to-2", "SFC64", 40): ("88dc14caa7682c5a0578453d5de2cf61e0b9dc70862c8273e815704df7ad47cb", 0.31484232856270156),
}


@pytest.mark.parametrize("case", list(SMALL_CASES), ids=lambda c: f"{c[0]}-{c[1]}-n{c[2]}")
def test_small_diamond_stream_and_end_state_are_frozen(case):
    diamond, bitgen, n = case
    rng = _generator(bitgen)
    points = sample_diamond(*DIAMONDS[diamond], n, rng)
    assert len(points) == n
    assert (_digest(points), rng.random()) == SMALL_CASES[case]


@pytest.mark.parametrize("n, m, weights, atoms, masses", [
    (1, 4, "uniform", "5aee4db57b6366e95e39ba2147abaa8f805c11cd0a9411766c4c25b2e931e931",
     "74d69470a93fe2506b58b9cafb4507d5fbf85c3ddd3ca4f94f5f00bb5ff8b3cc"),
    (1, 4, "random", "5aee4db57b6366e95e39ba2147abaa8f805c11cd0a9411766c4c25b2e931e931",
     "687b6e612c0bcb7c2aecac672ebdf5e8c9ff597596668f5d98a0bd9c421f2e7f"),
    (7, 3, "uniform", "64b6facadc5a1c528af988bccf7746a5a644aea52aad51659739a6cdd6ea11f3",
     "8dfe21a1dd8c0b2b26ad6708832ccdbf0b15aaf0bd091e3831fb94a9e4fa18f8"),
    (7, 3, "random", "64b6facadc5a1c528af988bccf7746a5a644aea52aad51659739a6cdd6ea11f3",
     "b6fb98ca2445daa5265692424a1e62db9bbc52538c7111bc00b1773a32d65044"),
    (20, 33, "uniform", "fcfe5c1349f48a5e223c18ac2ddade62e32c04ec0c85f6051fe7942e2d1a11ec",
     "cc177abb94b1c26f2c75aec45f0b8ee2a38923feca2225a7ac7be61389aa51bb"),
    (20, 33, "random", "fcfe5c1349f48a5e223c18ac2ddade62e32c04ec0c85f6051fe7942e2d1a11ec",
     "19b2b7fecaa7ee7054c4d7326f3ab7459a787012f8b66403d7a64bf754311372"),
])
def test_unequal_chronological_pair_is_frozen(n, m, weights, atoms, masses):
    mu, nu = sample_chronological_pair(n, m, seed=10 * n + m, weights=weights)
    assert (len(mu), len(nu)) == (n, m)
    assert _digest(mu.atoms + nu.atoms) == atoms
    assert _digest(np.concatenate([mu.weights, nu.weights])) == masses


@pytest.mark.parametrize("bitgen", ["PCG64", "MT19937", "Philox", "SFC64"])
@pytest.mark.parametrize("lo, hi, size", [
    (np.array([0.0, -2.0, -1.0]), np.array([2.0, 2.0, 1.0]), (1000, 3)),  # sample_diamond's box
    (np.array([0.1, -0.3, -0.02]), np.array([1.7, 0.25, 1e-3]), (7, 3)),
    (-0.9, 0.9, 1000),
    (0.2, 2.0, (10, 4)),
])
def test_uniform_is_an_affine_map_of_random(bitgen, lo, hi, size):
    # sample_diamond maps rng.random in place instead of calling uniform; both
    # must give the same doubles and leave the generator in the same state
    want = _generator(bitgen).uniform(lo, hi, size)
    ref = _generator(bitgen)
    ref.uniform(lo, hi, size)
    rng = _generator(bitgen)
    u = rng.random(size)
    assert (lo + (hi - lo) * u).tobytes() == want.tobytes()
    u *= np.subtract(hi, lo)
    u += lo
    assert u.tobytes() == want.tobytes()
    assert rng.random(5).tobytes() == ref.random(5).tobytes()


def test_sample_diamond_with_no_points_draws_nothing():
    rng = _generator("PCG64")
    assert sample_diamond(*E_TO_2, 0, rng) == ()
    assert rng.random() == _generator("PCG64").random()


def test_sample_diamond_rejects_a_negative_size():
    with pytest.raises(ValueError, match="n >= 0, got -3"):
        sample_diamond(*E_TO_2, -3, rng=1)


@pytest.mark.parametrize("n, m", [(0, 3), (3, 0), (-1, 2), (0, 0)])
def test_sample_chronological_pair_rejects_empty_sizes(n, m):
    with pytest.raises(ValueError, match=rf"n, m >= 1, got n={n}, m={m}"):
        sample_chronological_pair(n, m, seed=1)
