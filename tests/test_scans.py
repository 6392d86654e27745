"""The shared scans of the verifiers and embeddings: pinned reports,
the pruned walk over disjoint families and its count, the sign-sum
maximum, the union classes of the block scan, the class-pooled 0/1
dual LPs and the order-type classes of pairs, each against the
straightforward route it replaced."""

import gc
import random
import weakref
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb

import pytest

from banachlab import dual, verifiers
from banachlab.caps import Caps
from banachlab.classes import canonical_positions, clipped_class, packed_member, pair_classes, subset_classes
from banachlab.dual import dual01_pool, dual_norm
from banachlab.embeddings import max_sign_sum
from banachlab.errors import CapExceeded, InputError
from banachlab.norms import Functional, NormEngine, chunkings, nonempty_subsets
from banachlab.oracles import max_sign_sum_reference
from banachlab.simplex import SimplexError, StandardFormSimplex
from banachlab.spaces import parse_space, space_depth
from banachlab.vectors import SparseVec, unit
from banachlab.verifiers import (
    _blocks,
    _max_disjoint_ratio,
    _stirling2,
    c0_sampled_report,
    estimate_dm,
    hat_sampled_report,
    spreading_report,
    tt_space,
    verify_block_c0,
    verify_lemma_l2,
)

F = Fraction

# JSON reports of the verifiers before the scans were shared, generated
# by running the version with one loop per verifier (commit 683ade4)
REPORT_PINS = [
    ('block_c0', (1, 'strict'),
     '{"bound_claimed":"2","lemma":"block-c0-strict","max_ratio":"1/1","params":{"max_support":1,"variant":"strict"},"pass":true,"samples":1,"seed":null,"witness":{"blocks":[[1]]}}'),
    ('block_c0', (1, 'relaxed'),
     '{"bound_claimed":"3","lemma":"block-c0-relaxed","max_ratio":"1/1","params":{"max_support":1,"variant":"relaxed"},"pass":true,"samples":1,"seed":null,"witness":{"blocks":[[1]]}}'),
    ('block_c0', (2, 'strict'),
     '{"bound_claimed":"2","lemma":"block-c0-strict","max_ratio":"1/1","params":{"max_support":2,"variant":"strict"},"pass":true,"samples":3,"seed":null,"witness":{"blocks":[[1]]}}'),
    ('block_c0', (2, 'relaxed'),
     '{"bound_claimed":"3","lemma":"block-c0-relaxed","max_ratio":"2/1","params":{"max_support":2,"variant":"relaxed"},"pass":true,"samples":4,"seed":null,"witness":{"blocks":[[1],[2]]}}'),
    ('block_c0', (3, 'strict'),
     '{"bound_claimed":"2","lemma":"block-c0-strict","max_ratio":"2/1","params":{"max_support":3,"variant":"strict"},"pass":true,"samples":8,"seed":null,"witness":{"blocks":[[2],[3]]}}'),
    ('block_c0', (3, 'relaxed'),
     '{"bound_claimed":"3","lemma":"block-c0-relaxed","max_ratio":"2/1","params":{"max_support":3,"variant":"relaxed"},"pass":true,"samples":12,"seed":null,"witness":{"blocks":[[1],[2]]}}'),
    ('block_c0', (4, 'strict'),
     '{"bound_claimed":"2","lemma":"block-c0-strict","max_ratio":"2/1","params":{"max_support":4,"variant":"strict"},"pass":true,"samples":20,"seed":null,"witness":{"blocks":[[2],[3]]}}'),
    ('block_c0', (4, 'relaxed'),
     '{"bound_claimed":"3","lemma":"block-c0-relaxed","max_ratio":"3/1","params":{"max_support":4,"variant":"relaxed"},"pass":true,"samples":35,"seed":null,"witness":{"blocks":[[1],[3],[4]]}}'),
    ('block_c0', (5, 'strict'),
     '{"bound_claimed":"2","lemma":"block-c0-strict","max_ratio":"2/1","params":{"max_support":5,"variant":"strict"},"pass":true,"samples":49,"seed":null,"witness":{"blocks":[[2],[3]]}}'),
    ('block_c0', (5, 'relaxed'),
     '{"bound_claimed":"3","lemma":"block-c0-relaxed","max_ratio":"3/1","params":{"max_support":5,"variant":"relaxed"},"pass":true,"samples":99,"seed":null,"witness":{"blocks":[[1],[3],[4]]}}'),
    ('block_c0', (6, 'strict'),
     '{"bound_claimed":"2","lemma":"block-c0-strict","max_ratio":"2/1","params":{"max_support":6,"variant":"strict"},"pass":true,"samples":119,"seed":null,"witness":{"blocks":[[2],[3]]}}'),
    ('block_c0', (6, 'relaxed'),
     '{"bound_claimed":"3","lemma":"block-c0-relaxed","max_ratio":"3/1","params":{"max_support":6,"variant":"relaxed"},"pass":true,"samples":278,"seed":null,"witness":{"blocks":[[1],[3],[4]]}}'),
    ('block_c0', (7, 'strict'),
     '{"bound_claimed":"2","lemma":"block-c0-strict","max_ratio":"2/1","params":{"max_support":7,"variant":"strict"},"pass":true,"samples":288,"seed":null,"witness":{"blocks":[[2],[3]]}}'),
    ('block_c0', (7, 'relaxed'),
     '{"bound_claimed":"3","lemma":"block-c0-relaxed","max_ratio":"3/1","params":{"max_support":7,"variant":"relaxed"},"pass":true,"samples":776,"seed":null,"witness":{"blocks":[[1],[3],[4]]}}'),
    ('block_c0', (8, 'strict'),
     '{"bound_claimed":"2","lemma":"block-c0-strict","max_ratio":"2/1","params":{"max_support":8,"variant":"strict"},"pass":true,"samples":696,"seed":null,"witness":{"blocks":[[2],[3]]}}'),
    ('block_c0', (8, 'relaxed'),
     '{"bound_claimed":"3","lemma":"block-c0-relaxed","max_ratio":"3/1","params":{"max_support":8,"variant":"relaxed"},"pass":true,"samples":2159,"seed":null,"witness":{"blocks":[[1],[3],[4]]}}'),
    ('dm', (1, 3),
     '{"bound_claimed":"D_M (no numeric value known)","lemma":"dm","max_ratio":"1/1","params":{"max_support":3,"n":1},"pass":"reported","samples":7,"seed":null,"witness":{"parts":[[3]]}}'),
    ('dm', (1, 8),
     '{"bound_claimed":"D_M (no numeric value known)","lemma":"dm","max_ratio":"1/1","params":{"max_support":8,"n":1},"pass":"reported","samples":255,"seed":null,"witness":{"parts":[[8]]}}'),
    ('dm', (2, 4),
     '{"bound_claimed":"D_M (no numeric value known)","lemma":"dm","max_ratio":"2/1","params":{"max_support":4,"n":2},"pass":"reported","samples":6,"seed":null,"witness":{"parts":[[3],[4]]}}'),
    ('dm', (2, 8),
     '{"bound_claimed":"D_M (no numeric value known)","lemma":"dm","max_ratio":"2/1","params":{"max_support":8,"n":2},"pass":"reported","samples":966,"seed":null,"witness":{"parts":[[7],[8]]}}'),
    ('dm', (3, 5),
     '{"bound_claimed":"D_M (no numeric value known)","lemma":"dm","max_ratio":"2/1","params":{"max_support":5,"n":3},"pass":"reported","samples":1,"seed":null,"witness":{"parts":[[3],[4],[5]]}}'),
    ('dm', (3, 8),
     '{"bound_claimed":"D_M (no numeric value known)","lemma":"dm","max_ratio":"2/1","params":{"max_support":8,"n":3},"pass":"reported","samples":350,"seed":null,"witness":{"parts":[[6],[7],[8]]}}'),
    ('l2', (1, [1, 4], 8, 3),
     '{"bound_claimed":"3*D_M (no numeric value known)","lemma":"l2","max_ratio":"1/1","params":{"ceiling":12,"cuts":[1,4],"k":1},"pass":"reported","samples":8,"seed":3,"witness":{"signs":[1],"z":["4.2:1"]}}'),
    ('l2', (2, [2, 4, 8], 10, 4),
     '{"bound_claimed":"3*D_M (no numeric value known)","lemma":"l2","max_ratio":"2/1","params":{"ceiling":12,"cuts":[2,4,8],"k":2},"pass":"reported","samples":10,"seed":4,"witness":{"signs":[1,1],"z":["4.1:1/2,4.3:1/2","6.4:1"]}}'),
    ('l2', (3, [3, 4, 6, 9], 4, 5),
     '{"bound_claimed":"3*D_M (no numeric value known)","lemma":"l2","max_ratio":"3/1","params":{"ceiling":12,"cuts":[3,4,6,9],"k":3},"pass":"reported","samples":4,"seed":5,"witness":{"signs":[1,1,1],"z":["4.4:1","5.1:1","4.7:1"]}}'),
    ('hat', (1, 10, 1729),
     '{"bound_claimed":"2","lemma":"hat","max_ratio":"1/1","params":{"M":1,"k":1},"pass":true,"samples":10,"seed":1729,"witness":{"cell":[1],"indices":[1],"instance":1,"signs":[1]}}'),
    ('c0', (1, 10, 11),
     '{"bound_claimed":"3*D_M + 2 (no numeric value known)","lemma":"c0-subseq","max_ratio":"1/1","params":{"M":1,"k":1},"pass":"reported","samples":10,"seed":11,"witness":{"c_low":"1","c_up":"1","cell":[1],"indices":[1],"instance":0}}'),
    ('hat', (2, 10, 1729),
     '{"bound_claimed":"2","lemma":"hat","max_ratio":"62/35","params":{"M":8,"k":2},"pass":true,"samples":10,"seed":1729,"witness":{"cell":[2,1],"indices":[2,3],"instance":7,"signs":[1,1]}}'),
    ('c0', (2, 10, 11),
     '{"bound_claimed":"3*D_M + 2 (no numeric value known)","lemma":"c0-subseq","max_ratio":"2/1","params":{"M":8,"k":2},"pass":"reported","samples":10,"seed":11,"witness":{"c_low":"1","c_up":"2","cell":[2,1],"indices":[2,3],"instance":0}}'),
    ('hat', (3, 4, 1729),
     '{"bound_claimed":"2","lemma":"hat","max_ratio":"2/1","params":{"M":81,"k":3},"pass":true,"samples":4,"seed":1729,"witness":{"cell":[1,3,1],"indices":[3,4,6],"instance":1,"signs":[1,1,1]}}'),
    ('c0', (3, 4, 11),
     '{"bound_claimed":"3*D_M + 2 (no numeric value known)","lemma":"c0-subseq","max_ratio":"388/155","params":{"M":81,"k":3},"pass":"reported","samples":4,"seed":11,"witness":{"c_low":"1","c_up":"388/155","cell":[1,1,1],"indices":[1,2,3],"instance":2}}'),
    # instance 3 alone fails (c_up 25/11), so it is the witness, not the
    # passing instance 14 that attains max_ratio
    ('c0', (3, 20, 9),
     '{"bound_claimed":"3*D_M + 2 (no numeric value known)","lemma":"c0-subseq","max_ratio":"1014/437","params":{"M":81,"k":3},"pass":false,"samples":20,"seed":9,"witness":{"c_low":"1","c_up":"25/11","cell":[3,1,1],"indices":[1,2,5],"instance":3}}'),
    ('spreading', ('T', 'unit', 3, 4),
     '{"bound_claimed":"6 (consistency with the spreading-model constant)","lemma":"spreading","max_ratio":"3/2","params":{"blocks":"unit","k":3,"shift":4,"space":"T"},"pass":"reported","samples":4,"seed":null,"witness":{"c_low":"1","c_up":"3/2"}}'),
    ('spreading', ('T*', 'doubleton', 2, 3),
     '{"bound_claimed":"6 (consistency with the spreading-model constant)","lemma":"spreading","max_ratio":"1/1","params":{"blocks":"doubleton","k":2,"shift":3,"space":"T*"},"pass":"reported","samples":2,"seed":null,"witness":{"c_low":"1","c_up":"1"}}'),
    ('spreading', ('sum(T*,indexed(sum(lpn(1,#),repeat(T*))))', 'unit', 2, 4),
     '{"bound_claimed":"6 (consistency with the spreading-model constant)","lemma":"spreading","max_ratio":"2/1","params":{"blocks":"unit","k":2,"shift":4,"space":"sum(T*,indexed(sum(lpn(1,#),repeat(T*))))"},"pass":"reported","samples":2,"seed":null,"witness":{"c_low":"1","c_up":"2"}}'),
    ('spreading', ('sum(lp(2),repeat(T))', 'doubleton', 3, 2),
     '{"bound_claimed":"6 (consistency with the spreading-model constant)","lemma":"spreading","max_ratio":1.7320508075688774,"params":{"blocks":"doubleton","k":3,"shift":2,"space":"sum(lp(2),repeat(T))"},"pass":"reported","samples":4,"seed":null,"witness":{"c_low":"0.9999999999999999","c_up":"1.7320508075688772"}}'),
    ('spreading', ('sum(c0,repeat(M))', 'unit', 4, 2),
     '{"bound_claimed":"6 (consistency with the spreading-model constant)","lemma":"spreading","max_ratio":"1/1","params":{"blocks":"unit","k":4,"shift":2,"space":"sum(c0,repeat(M))"},"pass":"reported","samples":8,"seed":null,"witness":{"c_low":"1","c_up":"1"}}'),
    ('spreading', ('S(log2)', 'unit', 3, 1),
     '{"bound_claimed":"6 (consistency with the spreading-model constant)","lemma":"spreading","max_ratio":1.5,"params":{"blocks":"unit","k":3,"shift":1,"space":"S(log2)"},"pass":"reported","samples":4,"seed":null,"witness":{"c_low":"1.0","c_up":"1.5"}}'),
]


# reports at the largest default-cap supports, generated at commit
# 41b7114, before the 0/1 LPs were seeded from smaller subsets
FRONTIER_PINS = [
    ('block_c0', (9, 'strict'),
     '{"bound_claimed":"2","lemma":"block-c0-strict","max_ratio":"2/1","params":{"max_support":9,"variant":"strict"},"pass":true,"samples":1681,"seed":null,"witness":{"blocks":[[2],[3]]}}'),
    ('block_c0', (9, 'relaxed'),
     '{"bound_claimed":"3","lemma":"block-c0-relaxed","max_ratio":"3/1","params":{"max_support":9,"variant":"relaxed"},"pass":true,"samples":5991,"seed":null,"witness":{"blocks":[[1],[3],[4]]}}'),
    ('block_c0', (10, 'strict'),
     '{"bound_claimed":"2","lemma":"block-c0-strict","max_ratio":"2/1","params":{"max_support":10,"variant":"strict"},"pass":true,"samples":4059,"seed":null,"witness":{"blocks":[[2],[3]]}}'),
    ('block_c0', (10, 'relaxed'),
     '{"bound_claimed":"3","lemma":"block-c0-relaxed","max_ratio":"3/1","params":{"max_support":10,"variant":"relaxed"},"pass":true,"samples":16590,"seed":null,"witness":{"blocks":[[1],[3],[4]]}}'),
    ('dm', (2, 10),
     '{"bound_claimed":"D_M (no numeric value known)","lemma":"dm","max_ratio":"2/1","params":{"max_support":10,"n":2},"pass":"reported","samples":9330,"seed":null,"witness":{"parts":[[9],[10]]}}'),
    ('dm', (3, 10),
     '{"bound_claimed":"D_M (no numeric value known)","lemma":"dm","max_ratio":"2/1","params":{"max_support":10,"n":3},"pass":"reported","samples":7770,"seed":null,"witness":{"parts":[[8],[9],[10]]}}'),
]


def _report(kind, args):
    if kind == "block_c0":
        return verify_block_c0(*args)
    if kind == "dm":
        return estimate_dm(*args)
    if kind == "l2":
        k, cuts, samples, seed = args
        return verify_lemma_l2(k, cuts, samples=samples, seed=seed)
    if kind == "hat":
        return hat_sampled_report(*args)
    if kind == "c0":
        return c0_sampled_report(*args)
    space, blocks, k, shift = args
    return spreading_report(parse_space(space), blocks, k, shift, space_text=space)


@pytest.mark.parametrize(
    "kind, args, expected", REPORT_PINS, ids=[f"{p[0]}-{p[1]}" for p in REPORT_PINS]
)
def test_pinned_report(kind, args, expected):
    assert _report(kind, args).to_json() == expected


@pytest.mark.parametrize(
    "kind, args, expected", FRONTIER_PINS, ids=[f"{p[0]}-{p[1]}" for p in FRONTIER_PINS]
)
def test_pinned_report_at_the_frontier(kind, args, expected):
    assert _report(kind, args + (Caps(),)).to_json() == expected


@cache
def _cold01(subset):
    """||1_subset|| in the dual norm from a cold LP."""
    return dual_norm(SparseVec({(p,): F(1) for p in subset})).value


SUBSETS_10 = list(nonempty_subsets(tuple(range(1, 11))))


def test_pool_matches_cold_lp_on_every_subset():
    pooled = dual01_pool(Caps())
    for subset in SUBSETS_10:
        assert pooled(subset) == _cold01(subset), subset


@pytest.mark.parametrize("dual_cap", [12, 16])
def test_canonical_positions_represent_their_class(dual_cap):
    caps = Caps(dual=dual_cap)
    subsets = list(nonempty_subsets(tuple(range(1, 13))))
    for subset in subsets:
        rep = canonical_positions(subset, caps)
        m = len(subset)
        assert all(a < b for a, b in zip(rep, rep[1:])), subset
        assert [min(p, m - i) for i, p in enumerate(rep)] == [
            min(p, m - i) for i, p in enumerate(subset)
        ], subset
        assert rep[1:] == canonical_positions(subset[1:], caps), subset
        assert max(rep) <= 2 * dual_cap, subset
    with pytest.raises(CapExceeded):  # past the cap rep(S) need not increase
        canonical_positions(tuple(range(1, dual_cap + 2)), caps)
    # each class LP runs on its canonical set from the same start, so the
    # memo does not depend on the order of the queries
    memos = []
    for order in (subsets, subsets[::-1]):
        pooled = dual01_pool(caps)
        for subset in order:
            pooled(subset)
        memos.append({key: (r.value, r.certificate) for key, r in pooled.memo.items()})
    assert memos[0] == memos[1]


def _class_mismatches(clip):
    """Subsets of [1, 10] whose cold value differs from the cold value
    of the first subset with the same `clip` key."""
    first = {}
    return sum(first.setdefault(clip(s), _cold01(s)) != _cold01(s) for s in SUBSETS_10)


def test_cold_value_is_constant_on_each_class():
    assert _class_mismatches(lambda s: canonical_positions(s, Caps())) == 0


def _coarser(bound):
    """`canonical_positions` with the clip threshold m - i lowered to
    bound(m, i)."""
    def rep(subset, caps):
        m = len(subset)
        return tuple(
            p if p < bound(m, i) else 2 * caps.dual - (m - 1 - i) for i, p in enumerate(subset)
        )
    return rep


# clips one point too coarse: classes that merge sets of different norms
COARSER_CLIPS = {
    "m-i-1": _coarser(lambda m, i: m - i - 1),
    "m-1": _coarser(lambda m, i: m - 1),
}


@pytest.mark.parametrize("clip", COARSER_CLIPS.values(), ids=COARSER_CLIPS.keys())
def test_coarser_clips_break_class_constancy(clip, monkeypatch):
    assert _class_mismatches(lambda s: clip(s, Caps())) > 0
    monkeypatch.setattr(dual, "canonical_positions", clip)
    pooled = dual01_pool(Caps())
    assert any(pooled(subset) != _cold01(subset) for subset in SUBSETS_10)


def _all_block_families(max_support, variant):
    """The former block-c0 scan: every subset of [1, max_support] split
    every way into consecutive blocks, filtered by admissibility."""
    lead = 0 if variant == "strict" else 1
    for subset in nonempty_subsets(tuple(range(1, max_support + 1))):
        for n in range(1, len(subset) + 1):
            for parts in chunkings(subset, n):
                if n <= parts[min(lead, n - 1)][0]:
                    yield subset, parts


def _first_max(families, norm):
    """The max of norm(union) / max_j norm(part_j) over (union, parts)
    pairs, the parts of the first pair attaining it and the pair count."""
    best, witness, count = F(0), None, 0
    for union, parts in families:
        count += 1
        ratio = norm(union) / max(map(norm, parts))
        if ratio > best:
            best, witness = ratio, [tuple(part) for part in parts]
    return best, witness, count


@pytest.mark.parametrize("variant", ["strict", "relaxed"])
@pytest.mark.parametrize("max_support", [9, 10])
def test_block_c0_matches_the_plain_enumeration(max_support, variant):
    best, witness, count = _first_max(_all_block_families(max_support, variant), _cold01)
    report = verify_block_c0(max_support, variant, Caps())
    assert (report.samples, report.max_ratio) == (count, best)
    assert report.witness == {"blocks": [list(part) for part in witness]}


def test_union_clip_needs_its_slack(monkeypatch):
    # relaxed admissibility n <= u_k can bind up to n = |U| - k + 1, one
    # past the clip of the 0/1 classes, which merges unions it tells apart
    want = verify_block_c0(9, "relaxed", Caps())
    monkeypatch.setattr(verifiers, "subset_classes", lambda n, slack: subset_classes(n, 0))
    got = verify_block_c0(9, "relaxed", Caps())
    assert (got.samples, got.witness) != (want.samples, want.witness)


def test_union_classes_tile_the_subsets():
    # every subset in exactly one class, each class under its first
    # subset, against a walk over the subsets
    for slack, max_support in product((0, 1), range(1, 15)):
        walk = {}
        for union in nonempty_subsets(tuple(range(1, max_support + 1))):
            walk.setdefault(clipped_class(union, slack), [0, union])[0] += 1
        classes = subset_classes(max_support, slack)
        assert sum(size for size, _ in classes) == 2**max_support - 1
        assert [clipped_class(union, slack) for _, union in classes] == list(walk)
        assert [list(c) for c in classes] == list(walk.values())


@pytest.mark.parametrize("kind, a, b", [
    ("block", 9, "strict"), ("block", 9, "relaxed"), ("dm", 2, 9), ("dm", 3, 9),
], ids=["block-9-strict", "block-9-relaxed", "dm-2-9", "dm-3-9"])
def test_pool_matches_cold_lp_in_family_order(kind, a, b, monkeypatch):
    # each verifier's own order of queries is replayed, the order in
    # which its scan reaches each class LP
    pooled = dual01_pool(Caps())
    if kind == "block":
        scan = ((union, parts) for _, union in subset_classes(a, 1) for parts in _blocks(union, b))
        asked = [subset for union, parts in scan for subset in (union, *parts)]
    else:
        asked = []  # the subsets the walk of `estimate_dm` asks for, in order
        monkeypatch.setattr(
            verifiers, "dual01_pool", lambda caps: lambda subset: asked.append(subset) or pooled(subset)
        )
        estimate_dm(a, b, Caps())
        assert asked
    for subset in asked:
        assert pooled(subset) == _cold01(subset), subset


def _freed_by_refcounts(make, use):
    """Whether the object make() returns is freed, after use(object), by
    reference counting alone, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        obj = make()
        use(obj)
        alive = weakref.ref(obj)
        del obj
        return alive() is None
    finally:
        if enabled:
            gc.enable()


def test_pool_memo_dies_with_the_pool():
    # a self-recursive closure would hold the memo in a reference cycle,
    # alive after the verifier returns until a cyclic collection
    assert _freed_by_refcounts(lambda: dual01_pool(Caps()), lambda pooled: pooled(tuple(range(1, 7))))


def test_infeasible_warm_start_is_refused():
    # the basis (-e_1, e_2) has the basic solution (-1, 1) for x = e_1 + e_2
    start = (-Functional(unit((1,)), 0), Functional(unit((2,)), 0))
    with pytest.raises(SimplexError, match="starting basis is infeasible"):
        dual_norm(SparseVec({(1,): F(1), (2,): F(1)}), start=start)


def test_warm_starts_keep_the_pivots_down(monkeypatch):
    # the benchmark's block_c0 workload: its 92 class LPs take 612 pivots
    # started from the e_p basis; the warm starts trade pivots for rounds
    counts = {"_pivot": 0, "solve": 0}  # pivots and LP rounds

    def counting(name):
        method = getattr(StandardFormSimplex, name)

        def counted(*args):
            counts[name] += 1
            return method(*args)

        return counted

    for name in counts:
        monkeypatch.setattr(StandardFormSimplex, name, counting(name))
    verify_block_c0(9, "strict")
    verify_block_c0(9, "relaxed")
    assert counts["_pivot"] <= 106 and counts["solve"] <= 192


def _product_and_reject(positions, n):
    """The former dm loop: every label tuple in product order, keeping
    the restricted-growth ones that use all n labels."""
    for assignment in product(range(n + 1), repeat=len(positions)):
        seen = 0
        ok = True
        for label in assignment:
            if label == 0:
                continue
            if label > seen + 1:
                ok = False
                break
            seen = max(seen, label)
        if not ok or seen != n:
            continue
        parts = [
            tuple(p for p, label in zip(positions, assignment) if label == j)
            for j in range(1, n + 1)
        ]
        yield tuple(sorted(p for part in parts for p in part)), parts


def _weights(rng, positions, kind):
    """A seeded monotone set function on tuples of `positions`: the sum
    or the max of positive weights."""
    weight = {p: F(rng.randint(1, 9), rng.randint(1, 4)) for p in positions}
    total = sum if kind == "sum" else max
    return lambda subset: total(weight[p] for p in subset)


@pytest.mark.parametrize("kind", ["sum", "max"])  # max: every ratio 1, all ties
@pytest.mark.parametrize("n", [1, 2, 3])
def test_walk_matches_product_and_reject(n, kind):
    rng = random.Random(n)
    for m in range(0, 8):
        positions = tuple(range(n, n + m))
        for _ in range(4 if m > 5 else 8):
            norm = _weights(rng, positions, kind)
            best, witness, count = _first_max(_product_and_reject(positions, n), norm)
            assert _max_disjoint_ratio(positions, n, norm) == (best, witness), (m, n)
            assert _stirling2(m + 1, n + 1) == count, (m, n)


@pytest.mark.parametrize("n, max_support", [(1, 11), (2, 11), (3, 11), (4, 11)])
def test_estimate_dm_matches_product_and_reject(n, max_support):
    caps = Caps(dual=11)
    pooled = cache(dual01_pool(caps))
    positions = tuple(range(n, max_support + 1))
    best, witness, count = _first_max(_product_and_reject(positions, n), pooled)
    report = estimate_dm(n, max_support, caps)
    assert (report.max_ratio, report.samples) == (best, count)
    assert report.witness == {"parts": [list(part) for part in witness]}


def test_walk_keeps_no_reference_to_its_norm():
    # the walk's self-reference, left in place, would hold the pool in a
    # reference cycle
    assert _freed_by_refcounts(
        lambda: dual01_pool(Caps()), lambda pooled: _max_disjoint_ratio((2, 3, 4, 5, 6), 2, pooled)
    )


def _all_patterns(engine, vectors):
    """Every one of the 2^n sign patterns, first strict maximum kept."""
    best, witness = F(0), None
    for signs in product((1, -1), repeat=len(vectors)):
        total = SparseVec(depth=vectors[0].depth)
        for sign, vec in zip(signs, vectors):
            total = total + F(sign) * vec
        value = engine.norm(total)
        if value > best:
            best, witness = value, list(signs)
    return best, witness


@pytest.mark.parametrize("space", ["T", "T*", "l1", "c0", "S(log2)"])
def test_max_sign_sum_matches_all_patterns(space):
    # overlapping supports, so the sign patterns give different norms
    rng = random.Random(7)
    engine = NormEngine(parse_space(space))
    for _ in range(40):
        vectors = [
            SparseVec({
                (p,): F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
                for p in rng.sample(range(1, 9), rng.randint(1, 3))
            })
            for _ in range(rng.randint(1, 5))
        ]
        assert max_sign_sum_reference(engine, vectors) == _all_patterns(engine, vectors)


DISJOINT_SPACES = ["T", "T*", "l1", "c0", "S(log2)", "sum(T*,repeat(T*))", "sum(lp(2),repeat(T))"]


@pytest.mark.parametrize("space", DISJOINT_SPACES)
def test_max_sign_sum_of_disjoint_blocks_matches_every_pattern(space):
    # the last two spaces cover nested sums (tt_space()) and float norms
    space = parse_space(space)
    engine = NormEngine(space)
    depth = space_depth(space)
    paths = list(product(range(1, 4), repeat=2)) if depth == 2 else [(p,) for p in range(1, 9)]
    rng = random.Random(11)
    for _ in range(40):
        blocks = [{} for _ in range(rng.randint(1, 4))]  # some may stay empty
        for path in rng.sample(paths, rng.randint(1, 6)):
            blocks[rng.randrange(len(blocks))][path] = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
        vectors = [SparseVec(block, depth=depth) for block in blocks]
        got, want = max_sign_sum(engine, vectors), max_sign_sum_reference(engine, vectors)
        assert got == want and type(got[0]) is type(want[0])
    overlap = SparseVec({paths[0]: F(1)})
    with pytest.raises(InputError, match="pairwise disjoint"):
        max_sign_sum(engine, [overlap, SparseVec({paths[1]: F(1)}), overlap])


def test_max_sign_sum_all_zero_has_no_signs():
    engine = NormEngine(tt_space())
    assert max_sign_sum(engine, [SparseVec(depth=2)] * 3) == (0, None)


# -- order-type classes of pairs ------------------------------------------


DELANNOY = {1: 3, 2: 13, 3: 63, 4: 321, 5: 1683}  # OEIS A001850


def _packed_by_index(a, b):
    values = sorted(set(a) | set(b))
    return tuple(values.index(v) + 1 for v in a), tuple(values.index(v) + 1 for v in b)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pair_classes_match_grouping_every_pair(k):
    for n in range(k, 2 * k + 2):
        first = {}  # the first pair of each packed order type, in scan order
        for a, b in combinations(combinations(range(1, n + 1), k), 2):
            key = _packed_by_index(a, b)
            assert packed_member(a, b) == key
            first.setdefault(key, (a, b))
        got = list(pair_classes(k, n))
        assert got == list(first.values()) == list(first), n
        assert len(got) <= comb(comb(n, k), 2)
        if n >= 2 * k:
            assert len(got) == (DELANNOY[k] - 1) // 2


def test_pair_class_counts():
    # below n = 2k only the types of a and b disjoint (u = 2k) are
    # missing: half of the C(2k, k) ways to split [2k]
    counts = [sum(1 for _ in pair_classes(k, n)) for k, n in ((5, 10), (5, 9), (4, 4), (1, 1), (0, 4))]
    assert counts == [(DELANNOY[5] - 1) // 2, (DELANNOY[5] - 1) // 2 - comb(10, 5) // 2, 0, 0, 0]
    # the most the pair budget admits is 280,636 at (16, 19)
    assert sum(1 for _ in pair_classes(12, 15)) == 53131
