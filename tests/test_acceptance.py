"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime (run with `pytest tests/test_acceptance.py -v -s`).

Expected values marked as derived were computed by the independent
oracles in this repository (set-family recursion, dual LP with verified
certificates, exhaustive pair enumeration) and frozen here.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from banachlab.cli import main as cli_main
from banachlab.dual import dual_norm
from banachlab.embeddings import (
    prop73_embed,
    prop73_space,
    xpq_branch_vectors,
    xpq_space,
)
from banachlab.hamming import HammingSpace, hamming_distance
from banachlab.norms import (
    NormEngine,
    lp_norm,
    modified_norm,
    tsirelson_norm,
)
from banachlab.oracles import brute_force_tsirelson, norming_set_max
from banachlab.spaces import parse_space
from banachlab.vectors import SparseVec, inner_product
from banachlab.verifiers import estimate_cm, estimate_dm, hat_sampled_report, spreading_witness

F = Fraction
SEED = 20260808


@contextmanager
def criterion(number: int, budget_s: float, label: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s < {budget_s:.0f}s) - {label}")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def seeded_vectors(count, max_pos, max_size, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(1, min(max_size, max_pos))
        positions = rng.sample(range(1, max_pos + 1), size)
        out.append(
            SparseVec(
                {
                    (p,): F(rng.choice([v for v in range(-4, 5) if v]), rng.randint(1, 4))
                    for p in positions
                }
            )
        )
    return out


def ones(positions):
    return SparseVec({(p,): F(1) for p in positions})


def all_01_vectors(top):
    for r in range(1, top + 1):
        for subset in combinations(range(1, top + 1), r):
            yield ones(subset)


def test_criterion_1_oracle_equivalence():
    with criterion(1, 60, "interval DP = set-family oracle = norming-set max"):
        for vec in all_01_vectors(8):
            dp = tsirelson_norm(vec)
            assert dp == brute_force_tsirelson(vec)
            assert dp == norming_set_max(vec)
        for vec in seeded_vectors(200, max_pos=8, max_size=6, seed=SEED):
            dp = tsirelson_norm(vec)
            assert dp == brute_force_tsirelson(vec)
            assert dp == norming_set_max(vec)


def test_criterion_2_block_bounds():
    from banachlab.verifiers import verify_block_c0

    with criterion(2, 300, "block families: strict max exactly 2, relaxed at most 3"):
        strict = verify_block_c0(max_support=10, variant="strict")
        assert strict.max_ratio == 2
        assert strict.passed is True
        assert [sorted(b) for b in strict.witness["blocks"]] == [[2], [3]]
        relaxed = verify_block_c0(max_support=10, variant="relaxed")
        assert relaxed.max_ratio <= 3
        assert relaxed.passed is True


def test_criterion_3_plain_below_modified():
    with criterion(3, 300, "plain norm <= modified norm on all 0/1 vectors in [1,8]"):
        for vec in all_01_vectors(8):
            assert tsirelson_norm(vec) <= modified_norm(vec)


def test_criterion_4_domination_and_diameter():
    with criterion(4, 120, "metric domination and the diameter formula"):
        generators = ["l1", "lp(2)", "c0", "T", "T*"]
        points = list(combinations(range(1, 7), 3))
        for name in generators:
            hs = HammingSpace(3, parse_space(name))
            for i, a in enumerate(points):
                for b in points[i + 1:]:
                    d = hs.distance(a, b)
                    h = hamming_distance(a, b)
                    if isinstance(d, float):
                        assert d <= h + 1e-9
                    else:
                        assert d <= h
                        if name == "l1":
                            assert d == h
        for name in generators:
            for k in range(1, 5):
                hs = HammingSpace(k, parse_space(name))
                assert hs.diameter_brute(8) == hs.diameter()


def test_criterion_5_metric_axioms():
    with criterion(5, 120, "exact metric axioms on all triples of [5]^3"):
        points = [tuple(c) for c in combinations(range(1, 6), 3)]
        for name in ("l1", "T", "T*"):
            hs = HammingSpace(3, parse_space(name))
            dist = {(a, b): hs.distance(a, b) for a in points for b in points}
            for a in points:
                for b in points:
                    assert dist[(a, b)] == dist[(b, a)]
                    assert (dist[(a, b)] == 0) == (a == b)
                    for c in points:
                        assert dist[(a, c)] <= dist[(a, b)] + dist[(b, c)]


def test_criterion_6_snowflake_bounds():
    with criterion(6, 120, "coordinatewise embedding: snowflake bounds on [8]^k"):
        for p in (F(1), F(2)):
            for k in (1, 2, 3):
                engine = NormEngine(prop73_space(p, k))
                points = list(combinations(range(1, 9), k))
                for i, a in enumerate(points):
                    for b in points[i + 1:]:
                        delta = prop73_embed(p, k, a) - prop73_embed(p, k, b)
                        value = engine.norm(delta)
                        h = hamming_distance(a, b)
                        if p == 1:
                            assert F(h) <= value <= F(2 * h)
                        else:
                            root = float(h) ** 0.5
                            assert root - 1e-9 <= float(value) <= 2 * root + 1e-9


def test_criterion_7_branch_isometry():
    with criterion(7, 60, "tree branches isometric to lq^k"):
        rng = random.Random(SEED)
        for q in (F(1), F(2), None):
            engine_cache = {}
            for _ in range(100):
                k = rng.randint(1, 3)
                branch = tuple(sorted(rng.sample(range(1, 8), k)))
                vecs = xpq_branch_vectors(F(2), q, k, branch)
                if k not in engine_cache:
                    engine_cache[k] = NormEngine(xpq_space(F(2), q, k))
                engine = engine_cache[k]
                coeffs = [
                    F(rng.choice([v for v in range(-3, 4) if v]), rng.randint(1, 3))
                    for _ in range(k)
                ]
                total = SparseVec()
                for c, v in zip(coeffs, vecs):
                    total = total + c * v
                value = engine.norm(total)
                expected = lp_norm([abs(c) for c in coeffs], q)
                if q == 2:
                    assert abs(float(value) - float(expected)) < 1e-9
                else:
                    assert value == expected


def test_criterion_8_hat_lemma():
    with criterion(8, 300, "grid pigeonhole: selection, 1/k proximity, bound 2"):
        report = hat_sampled_report(k=2, samples=100, seed=SEED)
        assert report.passed is True
        assert report.max_ratio <= 2


def test_criterion_9_duality():
    with criterion(9, 120, "pairing inequality on 1000 pairs; dual norm of e1+e2"):
        rng = random.Random(SEED + 9)
        xs = seeded_vectors(1000, max_pos=12, max_size=6, seed=SEED + 1)
        ys = seeded_vectors(1000, max_pos=12, max_size=6, seed=SEED + 2)
        for x, y in zip(xs, ys):
            assert inner_product(x, y) <= dual_norm(x).value * tsirelson_norm(y)
        result = dual_norm(ones([1, 2]))
        assert result.value == 2
        assert inner_product(ones([1, 2]), result.witness) == 2
        assert tsirelson_norm(result.witness) <= 1


def test_criterion_10_constant_reports():
    with criterion(10, 300, "constant estimators: dm >= 2, cm >= 1, deterministic"):
        dm = estimate_dm(n=2, max_support=8)
        assert dm.max_ratio >= 2
        cm = estimate_cm(max_support=8, samples=100, seed=SEED)
        assert cm.max_ratio >= 1
        assert cm.passed == "reported"  # the exact lower half never failed
        assert estimate_dm(n=2, max_support=8).to_json() == dm.to_json()
        assert estimate_cm(max_support=8, samples=100, seed=SEED).to_json() == cm.to_json()


def test_criterion_11_spreading_consistency():
    with criterion(11, 120, "spreading witnesses within the constant 6"):
        space = parse_space("sum(T*,indexed(sum(lpn(1,#),repeat(T*))))")
        for k in (1, 2, 3):
            c_low, c_up = spreading_witness(space, "unit", k, shift=4)
            assert c_up / c_low <= 6


GOLDEN = [
    (["norm", "--space", "T", "--vec", "4:1,5:1,6:1,7:1", "--oracle"], 0),
    (["norm", "--space", "T", "--vec", "1:1,2:1"], 0),
    (["norm", "--space", "M", "--vec", "2:1,3:1"], 0),
    (["norm", "--space", "S(log2)", "--vec", "1:1,2:1,3:1,4:1"], 0),
    (["norm", "--space", "sum(lpn(1,2),repeat(T*))", "--vec", "1.2:1,2.3:1"], 0),
    (["dual-norm", "--space", "T", "--vec", "1:1,2:1", "--witness"], 0),
    (["metric", "--space", "l1", "--k", "3", "--a", "1,3,5", "--b", "2,3,7",
      "--kind", "d_e"], 0),
    (["metric", "--k", "2", "--a", "1,2", "--b", "1,3", "--kind", "johnson"], 0),
    (["metric", "--k", "2", "--a", "1,2", "--b", "3,4", "--kind", "hamming"], 0),
    (["diameter", "--space", "T", "--k", "3", "--check", "8"], 0),
    (["diameter", "--space", "c0", "--k", "4"], 0),
    (["parse", "--space", " sum( T* , indexed( sum(lpn(1,#), repeat(T*)) ) )"], 0),
    (["distortion", "--embedding", "prop73:p=1,k=2", "--metric", "hamming",
      "--n", "5"], 0),
    (["distortion", "--embedding", "xpq:p=2,q=1,k=2", "--metric", "johnson",
      "--n", "5"], 0),
    (["verify", "block-c0", "--max-support", "6", "--variant", "strict"], 0),
    (["verify", "dm", "--n", "2", "--max-support", "6"], 0),
    (["verify", "cm", "--max-support", "6", "--samples", "20"], 0),
    (["verify", "l2", "--k", "2", "--cuts", "2,4,8", "--samples", "5"], 0),
    (["verify", "hat", "--k", "2", "--samples", "10"], 0),
    (["verify", "spreading", "--k", "2"], 0),
]


def test_criterion_12_cli_determinism(capsys, monkeypatch):
    with criterion(12, 60, "20 golden invocations byte-identical, exit contract"):
        outputs = []
        for argv, expected in GOLDEN:
            code1 = cli_main(list(argv))
            out1 = capsys.readouterr().out
            code2 = cli_main(list(argv))
            out2 = capsys.readouterr().out
            assert code1 == code2 == expected, argv
            assert out1 == out2, argv
            assert out1
            outputs.append(out1)
        # exit-code contract: usage error and cap refusal
        assert cli_main(["norm", "--space", "lp(1/2)", "--vec", "1:1"]) == 2
        capsys.readouterr()
        monkeypatch.setenv("BANACHLAB_CAPS", "dual=3")
        assert cli_main(["dual-norm", "--vec", "1:1,2:1,3:1,4:1"]) == 3
        capsys.readouterr()
        monkeypatch.delenv("BANACHLAB_CAPS")
        # frozen golden values for the first invocations
        assert outputs[0] == "2 (= 2/1)\n"
        assert outputs[1] == "1 (= 1/1)\n"
        assert outputs[2] == "1 (= 1/1)\n"
        assert outputs[5] == "2 (= 2/1)\nwitness: 1:1,2:1\n"
        assert outputs[6] == "2\n"
        assert json.loads(outputs[14])["max_ratio"] == "2/1"
