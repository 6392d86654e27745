"""Embedding constructions, distortion measurement, tree branches and
finite-linfty constants."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from banachlab.dual import dual_norm
from banachlab.embeddings import (
    ArrayEmbed,
    Prop73,
    XpqBranch,
    ambient_space,
    array_embed,
    distortion_pairs,
    distortion_report,
    ell_infty_equivalence,
    embed,
    measure_distortion,
    prop73_embed,
    prop73_space,
    xpq_branch_vectors,
    xpq_space,
)
from banachlab.errors import CapExceeded, InputError
from banachlab.hamming import hamming_distance
from banachlab.norms import NormEngine, lp_norm
from banachlab.oracles import brute_force_tsirelson, distortion_reference, distortion_report_reference
from banachlab.spaces import parse_space, register_gauge
from banachlab.vectors import SparseVec, parse_vector, unit

F = Fraction


class TestProp73Embedding:
    def test_k1_unit_vector(self):
        assert prop73_embed(F(1), 1, (3,)) == parse_vector("1.3:1")

    def test_p1_pair_distance_four(self):
        # inner differences are e_a - e_b with dual norm 2 (dual oracle),
        # and the l1 outer adds the two components
        assert dual_norm(unit(1) - unit(3)).value == 2
        assert dual_norm(unit(2) - unit(4)).value == 2
        engine = NormEngine(prop73_space(F(1), 2))
        delta = prop73_embed(F(1), 2, (1, 2)) - prop73_embed(F(1), 2, (3, 4))
        assert engine.norm(delta) == 4

    @pytest.mark.parametrize("p", [F(1), F(2)])
    def test_snowflake_bounds_on_pairs(self, p):
        engine = NormEngine(prop73_space(p, 2))
        points = list(combinations(range(1, 6), 2))
        for a in points:
            for b in points:
                if a == b:
                    continue
                value = engine.norm(prop73_embed(p, 2, a) - prop73_embed(p, 2, b))
                root = float(hamming_distance(a, b)) ** (1.0 / float(p))
                assert float(value) >= root - 1e-9
                assert float(value) <= 2 * root + 1e-9

    def test_p1_upper_bound_attained(self):
        engine = NormEngine(prop73_space(F(1), 3))
        points = list(combinations(range(1, 6), 3))
        for a in points:
            for b in points:
                value = engine.norm(prop73_embed(F(1), 3, a) - prop73_embed(F(1), 3, b))
                assert value == 2 * hamming_distance(a, b)


class TestArrayEmbedding:
    def test_formula_instantiation(self):
        array = {(1, j): unit(j) for j in range(1, 10)}
        assert array_embed(array, 1, (2,)) == unit(3)  # index k*2 + 1 = 3

    def test_equal_inputs_equal_outputs(self):
        array = {(i, j): unit(j) for i in (1, 2) for j in range(1, 20)}
        assert array_embed(array, 2, (1, 3)) == array_embed(array, 2, (1, 3))

    def test_missing_entry(self):
        with pytest.raises(InputError):
            array_embed({}, 1, (1,))

    def test_l1_unit_array_doubles_hamming(self):
        array = {(i, j): unit(j) for i in (1, 2) for j in range(1, 20)}
        engine = NormEngine(parse_space("l1"))
        for a in combinations(range(1, 6), 2):
            for b in combinations(range(1, 6), 2):
                delta = array_embed(array, 2, a) - array_embed(array, 2, b)
                assert engine.norm(delta) == 2 * hamming_distance(
                    tuple(a), tuple(b)
                )

    def test_two_lipschitz_for_normalized_arrays(self):
        # triangle inequality consequence, on random unit-vector arrays
        rng = random.Random(3)
        space = parse_space("T*")
        engine = NormEngine(space)
        array = {
            (i, j): unit(rng.randint(1, 9)) for i in (1, 2) for j in range(1, 20)
        }
        spec = ArrayEmbed(array, 2, space)
        for a in combinations(range(1, 6), 2):
            for b in combinations(range(1, 6), 2):
                delta = embed(spec, a) - embed(spec, b)
                assert engine.norm(delta) <= 2 * hamming_distance(a, b)

    def test_normalization_checked_on_construction(self):
        with pytest.raises(InputError):
            ArrayEmbed({(1, 3): 2 * unit(1)}, 1, parse_space("T*"))


class TestDistortion:
    def test_identity_like_embedding(self):
        array = {(i, j): unit(j) for i in (1, 2) for j in range(1, 20)}
        spec = ArrayEmbed(array, 2, parse_space("l1"))
        report = measure_distortion(spec, "hamming", 5)
        assert report.distortion == 1
        assert report.lower == 2 and report.upper == 2

    def test_prop73_hamming_at_most_two(self):
        report = measure_distortion(Prop73(F(1), 2), "hamming", 5)
        assert report.distortion <= 2
        assert report.pairs == 45

    def test_d_e_generator_as_metric(self):
        array = {(i, j): unit(j) for i in (1, 2) for j in range(1, 20)}
        spec = ArrayEmbed(array, 2, parse_space("l1"))
        report = measure_distortion(
            spec, "d_e", 5, metric_space=parse_space("l1")
        )
        assert report.distortion == 1

    def test_budget_refusal(self):
        with pytest.raises(CapExceeded):
            measure_distortion(Prop73(F(1), 3), "hamming", 30)

    def test_memory_does_not_grow_with_the_pair_count(self):
        # 17,955 pairs, each with its own f(a) - f(b); a memo of those
        # differences would hold several MB at this n
        tracemalloc.start()
        try:
            report = measure_distortion(Prop73(F(1), 2), "hamming", 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert report.to_dict() == {
            "lower": "2/1",
            "upper": "2/1",
            "distortion": "1/1",
            "argmin": [[1, 2], [1, 3]],
            "argmax": [[1, 2], [1, 3]],
            "pairs": 17955,
        }

    def test_xpq_memory_stays_below_a_memo_on_every_summand(self):
        # 3,486 pairs; the pair memo covers the summands that are not
        # nested sums (the lp ones up to one entry per part) and nested
        # parts that the other image lacks, and a memo on the nested sums
        # of the tree would keep a part difference per pair (about
        # 0.6 MiB at this n)
        spec = XpqBranch(F(2), F(1), 3)
        tracemalloc.start()
        try:
            report = measure_distortion(spec, "hamming", 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.4 * 2**20
        assert report.pairs == 3486 and report.distortion == 3

    def test_csv_stream_memory_grows_with_the_types(self):
        # the stream `--csv` writes, every one of the 3,486 pairs, keeps
        # one (d, value) per order type (31 here), not one per pair
        spec = XpqBranch(F(2), F(1), 3)
        tracemalloc.start()
        try:
            report = distortion_report(distortion_pairs(spec, "hamming", 9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.4 * 2**20
        assert report.to_dict() == measure_distortion(spec, "hamming", 9).to_dict()

    def test_report_shape(self):
        report = measure_distortion(Prop73(F(1), 1), "johnson", 4)
        data = report.to_dict()
        assert set(data) == {"lower", "upper", "distortion", "argmin", "argmax", "pairs"}


def _cancelling_array():
    """A 2-row array into sum(c0, repeat(T*)) whose images miss summands,
    and where x^(2)_{2m+2}, for even m, cancels the summand-1 part of
    x^(1)_{2m-1}, so the image of (m - 1, m) has no part in summand 1."""
    space = parse_space("sum(c0,repeat(T*))")
    inner = NormEngine(parse_space("T*"))

    def part(s, vec):
        vec = (1 / inner.norm(vec)) * vec
        return SparseVec({(s,) + p: c for p, c in vec.items()})

    u = {m: unit(m) + F(1, 2) * unit(m + 2) - F(1, 3) * unit(2 * m + 3) for m in range(1, 7)}
    x1 = {m: part(1, u[m]) if m % 2 else part(2, u[m]) + part(4, unit(m)) for m in range(1, 7)}
    array = {(1, 2 * m + 1): x1[m] for m in range(1, 7)}
    for m in range(1, 7):
        array[(2, 2 * m + 2)] = part(3, u[m]) - x1[m - 1] if m % 2 == 0 else part(2, u[m])
    return ArrayEmbed(array, 2, space)


def _gauge_array():
    """Unit vectors e_{i.m} of sum(lpn(1,2), indexed(S(pairgauge#))):
    summand 1 weighs families by 1 and summand 2 by log2(1 + l), so the
    same pair of parts has two different norms in the two summands."""
    register_gauge("pairgauge1", lambda l: 1.0)
    register_gauge("pairgauge2", lambda l: math.log2(1 + l))
    space = parse_space("sum(lpn(1,2),indexed(S(pairgauge#)))")
    array = {(i, 2 * m + i): unit((i, m)) for i in (1, 2) for m in range(1, 7)}
    return ArrayEmbed(array, 2, space)


def _nested_array():
    """A 2-row array into sum(lpn(1,2),repeat(sum(c0,repeat(T*)))) whose
    images nest two sums.  x^(2)_{2m+2}, for even m, cancels the inner
    summand 2 of x^(1)'s top part, so half the images lack it there."""
    space = parse_space("sum(lpn(1,2),repeat(sum(c0,repeat(T*))))")
    half = F(1, 2)
    array = {(1, 2 * m + 1): unit((1, 1, m)) + half * unit((1, 2, 1)) for m in range(1, 7)}
    for m in range(1, 7):
        cancel = half * unit((2, 1, m)) - half * unit((1, 2, 1))
        array[(2, 2 * m + 2)] = cancel if m % 2 == 0 else unit((2, 1, m))
    return ArrayEmbed(array, 2, space)


def _overlapping_array(n, seed=7):
    """A 2-row array into sum(l1,repeat(l1)) whose rows both write seeded
    rational entries into each summand, so that every image has its own
    parts and nearly every pair its own part norms and outer pattern."""
    space = parse_space("sum(l1,repeat(l1))")
    engine = NormEngine(space)
    rng = random.Random(seed)
    array = {}
    for m in range(1, n + 1):
        for i in (1, 2):
            vec = {(1, p): F(rng.randint(1, 9), rng.randint(1, 9)) for p in rng.sample(range(1, 12), 3)}
            vec[(2, i)] = F(rng.randint(1, 9), rng.randint(1, 9))
            vec = SparseVec(vec)
            array[(i, 2 * m + i)] = (1 / engine.norm(vec)) * vec
    return ArrayEmbed(array, 2, space)


PAIR_CASES = {
    "prop73-p1": lambda: Prop73(F(1), 2),
    "prop73-p2": lambda: Prop73(F(2), 2),
    "prop73-p3/2": lambda: Prop73(F(3, 2), 3),
    "xpq-p2-q1-k3": lambda: XpqBranch(F(2), F(1), 3),
    "xpq-p3-qinf-k2": lambda: XpqBranch(F(3), None, 2),
    "array-cancelling": _cancelling_array,
    "array-indexed-gauges": _gauge_array,
    # the outer T goes through its own engine, not straight to lp_norm
    "array-T-outer": lambda: ArrayEmbed(
        {(i, 2 * m + i): unit((i, m)) + F(i, 3) * unit((3, m + i)) for i in (1, 2) for m in range(1, 7)},
        2,
        parse_space("sum(T,repeat(T*))"),
    ),
    "array-nested-cancelling": _nested_array,
    "array-overlapping-l1": lambda: _overlapping_array(6),
    # float l2 sums of T* parts at the inner level, under an l1 outer
    "array-nested-l2": lambda: ArrayEmbed(
        {(i, 2 * m + i): unit((1, m + i - 1, i)) for i in (1, 2) for m in range(1, 7)},
        2,
        parse_space("sum(lpn(1,2),repeat(sum(lp(2),repeat(T*))))"),
    ),
    "array-depth1": lambda: ArrayEmbed(
        {(i, 2 * m + i): unit(m + i) for i in (1, 2) for m in range(1, 7)}, 2, parse_space("T*")
    ),
}


class TestPairNorms:
    """`distortion_pairs` splits each image into summand parts once; its
    value at every pair must be the norm of the built difference, with
    the same type, so float lp sums stay bit-identical."""

    @pytest.mark.parametrize("case", sorted(PAIR_CASES))
    def test_pair_path_matches_the_built_difference(self, case):
        spec = PAIR_CASES[case]()
        engine = NormEngine(ambient_space(spec))
        n = 6
        count = 0
        for a, b, _, value in distortion_pairs(spec, "hamming", n):
            want = engine.norm(embed(spec, a) - embed(spec, b))
            assert (value, type(value)) == (want, type(want)), (a, b)
            count += 1
        assert count == math.comb(math.comb(n, spec.k), 2)

    # (space, x, y): parts that cancel at an inner level, an inner
    # summand that one image lacks, and a top summand that one image
    # lacks, under lp, c0 and l1 outers
    NESTED = [
        ("sum(l1,repeat(sum(lp(2),repeat(T*))))", "1.1.2:1,1.2.3:1,2.1.1:1", "1.1.2:1,1.2.5:1/2,2.1.1:1"),
        ("sum(l1,repeat(sum(lp(2),repeat(T*))))", "1.1.2:1,2.1.1:1", "2.1.1:1,2.2.3:1"),
        ("sum(l1,repeat(sum(lp(2),repeat(T*))))", "1.1.2:1,1.3.4:-2,2.2.2:1", "1.1.2:1,2.2.2:1"),
        ("sum(l1,repeat(sum(c0,repeat(T*))))", "1.1.2:1,1.3.4:1/3,2.1.1:1", "1.1.2:1,1.3.5:1/3"),
        ("sum(lpn(3/2,2),repeat(sum(l1,repeat(T))))", "1.1.2:1,1.2.3:1,2.1.5:2", "1.1.2:1,2.1.5:2,2.2.2:1"),
    ]

    @pytest.mark.parametrize("space, x, y", NESTED)
    def test_nested_pairs_match_the_built_difference(self, space, x, y):
        _check_nested_pairs(space, x, y)

    @pytest.mark.parametrize("a, b", [((1, 2, 3), (1, 2, 5)), ((1, 3, 4), (2, 3, 4)), ((1, 2, 3), (4, 5, 6))])
    def test_xpq_pair_matches_the_built_difference(self, a, b):
        spec = XpqBranch(F(2), F(1), 3)
        engine = NormEngine(ambient_space(spec))
        x, y = embed(spec, a), embed(spec, b)
        got = engine._pair_norm(engine._split(x), engine._split(y))
        want = engine.norm(x - y)
        assert (got, type(got)) == (want, type(want))

    def test_overlapping_rows_keep_memory_linear_in_the_images(self):
        # both rows write into both summands, so each of the 66 images has
        # its own l1 parts and nearly every one of the 2,145 pairs its own
        # part norms: 0.14 MiB without a memo on lp summands, 2.3 MiB
        # with one per pair
        tracemalloc.start()
        try:
            report = measure_distortion(_overlapping_array(12), "hamming", 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.4 * 2**20
        assert report.to_dict() == {
            "lower": "3891/9646",
            "upper": "196/103",
            "distortion": "1890616/400773",
            "argmin": [[1, 11], [7, 12]],
            "argmax": [[1, 3], [2, 3]],
            "pairs": 2145,
        }

    def test_a_fraction_and_an_equal_float_keep_their_types(self):
        # the l2 outer returns a lone part norm 5 as it is, and 3, 4 as the
        # float 5.0: one engine meets both, in either order
        zero, lone, two = SparseVec(depth=2), parse_vector("1.1:5"), parse_vector("1.1:3,2.1:4")
        for order in ((lone, two), (two, lone)):
            engine = NormEngine(parse_space("sum(lp(2),repeat(l1))"))
            for x in order:
                got = engine._pair_norm(engine._split(x), engine._split(zero))
                want = engine.norm(x)
                assert (got, type(got)) == (want, type(want))

    def test_outer_patterns_keep_their_summands(self):
        # every part norm is 1; the outer T reads where they sit:
        # T(1, 1, 1) is 3/2 at positions 3, 4, 5 and 1 at 1, 4, 5
        engine = NormEngine(parse_space("sum(T,repeat(l1))"))
        zero = engine._split(SparseVec(depth=2))
        for x, want in (("3.1:1,4.1:1,5.1:1", F(3, 2)), ("1.1:1,4.1:1,5.1:1", F(1))):
            got = engine._pair_norm(engine._split(parse_vector(x)), zero)
            assert (got, type(got)) == (want, F), x

    def test_nested_array_has_the_cases_it_names(self):
        spec = _nested_array()
        inner = [embed(spec, m).leading_groups()[1].leading_groups() for m in combinations(range(1, 7), 2)]
        assert {tuple(parts) for parts in inner} == {(1,), (1, 2)}

    def test_cancelling_array_has_the_cases_it_names(self):
        spec = _cancelling_array()
        images = [embed(spec, m) for m in combinations(range(1, 7), 2)]
        summands = [set(x.leading_groups()) for x in images]
        assert embed(spec, (1, 2)).leading_groups().keys() == {3}
        assert any(len(s) < 4 for s in summands) and set().union(*summands) == {1, 2, 3, 4}

    def test_gauge_summands_differ_on_equal_parts(self):
        spec = _gauge_array()
        values = [e.norm(unit(1) - unit(2)) for e in (NormEngine(spec.space.inner_at(k)) for k in (1, 2))]
        assert values[0] != values[1]


def _check_nested_pairs(space, x, y):
    """The pair path against the built difference, value and type, on
    x, y both ways, against the zero vector and against itself."""
    engine = NormEngine(parse_space(space))
    x, y = parse_vector(x), parse_vector(y)
    for u, v in ((x, y), (y, x), (x, SparseVec(depth=3)), (x, x)):
        got = engine._pair_norm(engine._split(u), engine._split(v))
        want = engine.norm(u - v)
        assert (got, type(got)) == (want, type(want)), (u, v)


def _report_fields(report):
    return [(f, getattr(report, f), type(getattr(report, f)))
            for f in ("lower", "upper", "distortion", "argmin", "argmax", "pairs")]


def _seeded_stream(seed, kinds):
    """(a, b, d, value) tuples over a few values, so ratios tie often;
    `kinds` picks exact and float values and distances."""
    rng = random.Random(seed)
    points = list(combinations(range(1, 7), 2))
    stream = []
    for a, b in combinations(points, 2):
        kind = rng.choice(kinds)
        d = F(rng.randint(1, 4), rng.choice((1, 2))) if kind != "float-d" else rng.choice((1.0, 1.5, 3.0))
        value = F(rng.randint(1, 6), rng.randint(1, 3))
        stream.append((a, b, d, float(value) if kind == "float" else value))
    return stream


class TestRatioReduction:
    """`distortion_report` against the per-pair `Fraction` loop kept in
    `oracles`: the same min, max, witnesses, types and count."""

    STREAMS = {
        "exact": [("exact",)],
        "float": [("float",)],
        "float-distances": [("float-d",)],
        "mixed": [("exact", "float"), ("exact", "float", "float-d")],
    }

    @pytest.mark.parametrize("kind", sorted(STREAMS))
    def test_seeded_streams(self, kind):
        for kinds in self.STREAMS[kind]:
            for seed in range(12):
                stream = _seeded_stream(seed, kinds)
                got = distortion_report(iter(stream))
                assert _report_fields(got) == _report_fields(distortion_report_reference(stream)), seed

    @pytest.mark.parametrize("spec, metric, generator, n", [
        (Prop73(F(3, 2), 3), "d_e", "T", 8),  # float sums, exact single-summand values
        (Prop73(F(1), 3), "d_e", "T", 8),  # Fraction distances with halves
        (Prop73(F(2), 2), "johnson", None, 7),
        (XpqBranch(F(2), F(1), 2), "hamming", None, 7),
    ])
    def test_measured_streams(self, spec, metric, generator, n):
        space = parse_space(generator) if generator else None
        stream = list(distortion_pairs(spec, metric, n, metric_space=space))
        assert _report_fields(distortion_report(stream)) == _report_fields(distortion_report_reference(stream))

    def test_ties_keep_the_first_pair(self):
        # 2/1, 4/2 and 2.0/1 tie at the max, 1/2, 1/2 and 0.5/1 at the min
        stream = [((1,), (2,), F(1), F(2)), ((1,), (3,), F(2), F(4)), ((1,), (4,), F(1), 2.0),
                  ((2,), (3,), F(2), F(1)), ((2,), (4,), F(2), F(1)), ((3,), (4,), F(1), 0.5)]
        for order in (stream, stream[::-1]):
            got = distortion_report(order)
            assert _report_fields(got) == _report_fields(distortion_report_reference(order))
        assert distortion_report(stream).argmax == ((1,), (2,))
        assert distortion_report(stream).argmin == ((2,), (3,))

    def test_a_float_compares_exactly_with_a_fraction(self):
        # float(1/3) lies below 1/3, and float(5/3) above 5/3; rounding
        # the exact ratios to floats would call both pairs ties
        low, high = F(1, 3), F(5, 3)
        stream = [((1,), (2,), F(1), low), ((1,), (3,), F(1), float(low)),
                  ((2,), (3,), F(1), high), ((2,), (4,), F(1), float(high))]
        got = distortion_report(stream)
        assert (got.argmin, got.argmax) == (((1,), (3,)), ((2,), (4,)))
        assert _report_fields(got) == _report_fields(distortion_report_reference(stream))

    def test_errors_match(self):
        for stream in ([], [((1,), (2,), F(1), F(0))]):
            with pytest.raises(InputError) as want:
                distortion_report_reference(stream)
            with pytest.raises(InputError) as got:
                distortion_report(stream)
            assert str(got.value) == str(want.value)


ORDER_TYPE_SPECS = {
    "prop73-p1": lambda k: Prop73(F(1), k),
    "prop73-p3/2": lambda k: Prop73(F(3, 2), k),
    "prop73-p2": lambda k: Prop73(F(2), k),
    "xpq-p2-q1": lambda k: XpqBranch(F(2), F(1), k),
    "xpq-p3-qinf": lambda k: XpqBranch(F(3), None, k),
    "xpq-p3/2-q4": lambda k: XpqBranch(F(3, 2), F(4), k),
}


class TestOrderTypes:
    """`measure_distortion` reads `prop73` and `xpq` at one packed member
    per order type; its report must be the one over every built
    difference, value types included."""

    @pytest.mark.parametrize("metric", ["hamming", "johnson", "d_e:T", "d_e:T*", "d_e:S(log2)", "d_e:l1"])
    @pytest.mark.parametrize("case", sorted(ORDER_TYPE_SPECS))
    def test_class_report_matches_the_reference(self, case, metric):
        metric, _, generator = metric.partition(":")
        space = parse_space(generator) if generator else None
        for k, top in ((2, 8), (3, 7)):  # every type is present from n = 2k
            spec = ORDER_TYPE_SPECS[case](k)
            for n in range(k + 1, top + 1):
                got = measure_distortion(spec, metric, n, metric_space=space)
                want = distortion_reference(spec, metric, n, metric_space=space)
                assert got.to_dict() == want.to_dict(), (k, n)
                assert _report_fields(got) == _report_fields(want), (k, n)

    def test_class_report_keeps_the_rounded_argmin(self):
        # the ratio sqrt(2) at ((1,2,3),(1,2,4)) and the float quotient
        # sqrt(18)/3 at ((1,2,3),(2,3,4)), one ulp lower: the scan meets
        # the second later and keeps it, and so must the classes
        spec = XpqBranch(F(2), F(1), 3)
        got = measure_distortion(spec, "hamming", 12)
        assert got.to_dict() == distortion_reference(spec, "hamming", 12).to_dict() == {
            "lower": 1.414213562373095,
            "upper": 4.242640687119285,
            "distortion": 3.0,
            "argmin": [[1, 2, 3], [2, 3, 4]],
            "argmax": [[1, 3, 4], [2, 3, 4]],
            "pairs": 24090,
        }


class TestXpqBranches:
    def test_k1_single_unit(self):
        vecs = xpq_branch_vectors(F(2), F(1), 1, (3,))
        engine = NormEngine(xpq_space(F(2), F(1), 1))
        assert len(vecs) == 1
        assert engine.norm(3 * vecs[0]) == 3

    def test_q1_pair_sums_to_two(self):
        vecs = xpq_branch_vectors(F(2), F(1), 2, (2, 5))
        engine = NormEngine(xpq_space(F(2), F(1), 2))
        assert engine.norm(vecs[0] + vecs[1]) == 2

    def test_qinf_pair_sums_to_one(self):
        vecs = xpq_branch_vectors(F(2), None, 2, (2, 5))
        engine = NormEngine(xpq_space(F(2), None, 2))
        assert engine.norm(vecs[0] + vecs[1]) == 1

    @pytest.mark.parametrize("q", [F(1), F(2), None])
    def test_branch_isometric_to_lq(self, q):
        rng = random.Random(29)
        for k in (1, 2, 3):
            space = xpq_space(F(2), q, k)
            engine = NormEngine(space)
            # the last branch has copy gaps 11 and 18
            branches = [(1, 3, 6), (2, 4, 5), (1, 2, 3), (1, 12, 30)]
            for branch in branches:
                vecs = xpq_branch_vectors(F(2), q, k, branch[:k])
                for _ in range(5):
                    coeffs = [
                        F(rng.choice([v for v in range(-3, 4) if v]), rng.randint(1, 3))
                        for _ in range(k)
                    ]
                    total = SparseVec()
                    for c, v in zip(coeffs, vecs):
                        total = total + c * v
                    value = engine.norm(total)
                    expected = lp_norm([abs(c) for c in coeffs], q)
                    if isinstance(value, float) or isinstance(expected, float):
                        assert abs(float(value) - float(expected)) < 1e-9
                    else:
                        assert value == expected


class TestEllInftyEquivalence:
    def test_single_unit(self):
        assert ell_infty_equivalence([unit(1)], NormEngine(parse_space("T"))) == (1, 1)

    def test_tsirelson_block(self):
        vectors = [unit(j) for j in range(4, 8)]
        assert brute_force_tsirelson(sum(vectors[1:], vectors[0])) == 2
        c_low, c_up = ell_infty_equivalence(vectors, NormEngine(parse_space("T")))
        assert (c_low, c_up) == (1, 2)

    def test_dual_pair(self):
        c_low, c_up = ell_infty_equivalence([unit(2), unit(3)], NormEngine(parse_space("T*")))
        assert (c_low, c_up) == (1, 2)

    def test_overlap_rejected(self):
        with pytest.raises(InputError):
            ell_infty_equivalence([unit(1), unit(1)], NormEngine(parse_space("T")))

    def test_certified_inequality_on_rational_coefficients(self):
        rng = random.Random(37)
        vectors = [unit(2), unit(3) + F(1, 2) * unit(5), unit(7)]
        space = parse_space("T*")
        engine = NormEngine(space)
        c_low, c_up = ell_infty_equivalence(vectors, NormEngine(space))
        for _ in range(25):
            coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in vectors]
            if all(c == 0 for c in coeffs):
                continue
            total = SparseVec()
            for c, v in zip(coeffs, vectors):
                total = total + c * v
            value = engine.norm(total)
            peak = max(abs(c) for c in coeffs)
            assert c_low * peak <= value <= c_up * peak
