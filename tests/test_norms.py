"""Norm engines against their oracles.

The interval-DP Tsirelson norm is validated against the set-family
recursion and the norming-set maximum; expected values for the examples
below were produced by `brute_force_tsirelson` and are frozen here.
"""

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachlab.caps import Caps
from banachlab.dual import dual_norm
from banachlab.errors import CapExceeded, InputError
from banachlab.norms import (
    NormEngine,
    gauge_norm,
    lp_norm,
    modified_norm,
    tsirelson_norm,
    tsirelson_norm_witness,
)
from banachlab.oracles import brute_force_tsirelson, norming_set, norming_set_max
from banachlab.spaces import parse_space
from banachlab.vectors import SparseVec, inner_product, parse_vector, restrict, unit

F = Fraction


def vec(text):
    return parse_vector(text)


def ones(positions):
    return SparseVec({(p,): F(1) for p in positions})


def random_vec(rng, max_pos=8, max_size=6):
    size = rng.randint(1, min(max_size, max_pos))
    positions = rng.sample(range(1, max_pos + 1), size)
    return SparseVec(
        {
            (p,): F(rng.choice([v for v in range(-4, 5) if v]), rng.randint(1, 4))
            for p in positions
        }
    )


class TestTsirelsonExamples:
    def test_single_basis_vector(self):
        assert tsirelson_norm(unit(5)) == 1

    def test_e4_to_e7_is_two(self):
        # oracle: singleton family at positions 4..7 is admissible
        x = ones(range(4, 8))
        assert brute_force_tsirelson(x) == 2
        assert tsirelson_norm(x) == 2

    def test_e1_e2_is_one(self):
        # oracle: no admissible family with two parts fits inside {1, 2}
        x = ones([1, 2])
        assert brute_force_tsirelson(x) == 1
        assert tsirelson_norm(x) == 1

    def test_homogeneity_of_oracle(self):
        assert brute_force_tsirelson(F(1, 2) * unit(3)) == F(1, 2)

    def test_oracle_cap(self):
        with pytest.raises(CapExceeded):
            brute_force_tsirelson(ones(range(1, 12)))


class TestOracleEquivalence:
    def test_dp_equals_set_oracle_on_01_vectors(self):
        for r in range(1, 7):
            for subset in combinations(range(1, 7), r):
                x = ones(subset)
                assert tsirelson_norm(x) == brute_force_tsirelson(x)

    def test_dp_equals_set_oracle_on_random_rationals(self):
        rng = random.Random(2024)
        for _ in range(40):
            x = random_vec(rng, max_pos=8, max_size=5)
            assert tsirelson_norm(x) == brute_force_tsirelson(x)

    def test_norming_set_max_agrees(self):
        rng = random.Random(2025)
        for _ in range(40):
            x = random_vec(rng, max_pos=8, max_size=5)
            assert norming_set_max(x) == tsirelson_norm(x)


class TestNormingSet:
    def test_singleton_coordinate(self):
        K = norming_set([1])
        coeffs = sorted(f.coefficients[(1,)] for f in K)
        assert coeffs == [F(-1), F(1)]
        assert norming_set_max(unit(1)) == 1

    def test_pair_contains_half_sum(self):
        K = norming_set([2, 3])
        half_sum = SparseVec({(2,): F(1, 2), (3,): F(1, 2)})
        assert any(f.coefficients == half_sum for f in K)
        x = ones([2, 3])
        assert brute_force_tsirelson(x) == 1
        assert max(f(x) for f in K) == 1

    def test_every_functional_is_norming(self):
        rng = random.Random(11)
        K = norming_set(range(1, 6))
        for _ in range(20):
            y = random_vec(rng, max_pos=5, max_size=5)
            bound = tsirelson_norm(y)
            assert all(f(y) <= bound for f in K)

    def test_coefficients_are_dyadic(self):
        for f in norming_set(range(1, 6)):
            for _, c in f.coefficients.items():
                assert abs(c).numerator == 1
                d = abs(c).denominator
                assert d & (d - 1) == 0  # power of two
                assert 2**f.depth >= d

    def test_cap(self):
        with pytest.raises(CapExceeded):
            norming_set(range(1, 13))


class TestWitness:
    def test_witness_attains_norm(self):
        rng = random.Random(5)
        for _ in range(30):
            x = random_vec(rng, max_pos=9, max_size=6)
            value, coeffs, depth = tsirelson_norm_witness(x)
            f = SparseVec({(p,): c for p, c in coeffs.items()})
            assert inner_product(f, x) == value
            assert depth >= 0


def brute_modified(coef: dict) -> Fraction:
    """Independent oracle: recursion over ALL families of disjoint
    nonempty subsets with part minimum at least the part count, with no
    partition reduction (points may stay unused).  Each family is
    enumerated once; norms of sub-vectors are memoized."""
    memo: dict = {}

    def norm(points: tuple) -> Fraction:
        if points not in memo:
            best = max(abs(coef[p]) for p in points)
            for n in range(2, len(points) + 1):
                eligible = tuple(p for p in points if p >= n)
                if len(eligible) < n:
                    break
                for parts in _families(eligible, n):
                    best = max(best, F(1, 2) * sum(map(norm, parts)))
            memo[points] = best
        return memo[points]

    return norm(tuple(sorted(coef)))


def _families(points: tuple, n: int, parts: tuple = ()):
    """Every family of exactly n disjoint nonempty subsets of `points`,
    once each: each point is left out, joins one of the open parts, or
    opens the next part."""
    if len(parts) + len(points) < n:
        return
    if not points:
        yield parts
        return
    head, rest = points[0], points[1:]
    yield from _families(rest, n, parts)
    for j in range(len(parts)):
        yield from _families(rest, n, parts[:j] + (parts[j] + (head,),) + parts[j + 1 :])
    if len(parts) < n:
        yield from _families(rest, n, parts + ((head,),))


def brute_gauge(coef: dict, gauge) -> float:
    """Independent oracle: all successive set families (gaps allowed),
    every length scaled by the gauge; no interval reduction."""
    supp = tuple(sorted(coef))
    best = max(abs(float(v)) for v in coef.values())
    for chosen in _subsets(supp):
        for l in range(2, len(chosen) + 1):
            for parts in _splits(chosen, l):
                total = sum(brute_gauge({p: coef[p] for p in part}, gauge) for part in parts)
                best = max(best, total / gauge(l))
    return best


def _subsets(seq):
    from itertools import combinations as icomb

    for r in range(1, len(seq) + 1):
        yield from icomb(seq, r)


def _splits(seq, n):
    from itertools import combinations as icomb

    for cuts in icomb(range(1, len(seq)), n - 1):
        parts, prev = [], 0
        for cut in cuts + (len(seq),):
            parts.append(seq[prev:cut])
            prev = cut
        yield parts


# values of the earlier Fraction-valued partition search on 0/1 and
# seeded rational vectors at supports 8-12; the bitmask DP reproduces them
M_PINS = [
    ('1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1', '2'),
    ('2:1,4:1,6:1,9:1,11:1,13:1,14:1,16:1', '3'),
    ('8:5/6,9:-3/4,10:1/7,11:1,12:-5/7,13:-3,14:-1,16:1', '709/168'),
    ('2:-3/4,6:5/2,7:2/3,9:5/4,12:-3/5,13:1,14:5/7,15:1/3', '2827/840'),
    ('1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1,9:1', '5/2'),
    ('4:1,5:1,7:1,8:1,9:1,10:1,14:1,15:1,16:1', '7/2'),
    ('1:-1/2,3:5/6,4:-1/2,9:1/2,10:-1/7,13:5/6,16:1/5,17:-1/2,18:3/4', '1229/840'),
    ('4:5/7,5:3/5,7:-1/3,10:-5,11:-5/7,13:5/3,14:5/4,16:5/7,17:-1/3', '841/168'),
    ('1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1,9:1,10:1', '5/2'),
    ('4:1,5:1,9:1,10:1,11:1,12:1,13:1,15:1,16:1,18:1', '4'),
    ('2:1/6,3:1,5:-1/2,6:3/2,8:-3/5,11:-3/5,14:5,15:-1/6,16:-3,19:-5/7', '799/140'),
    ('1:1,3:-2/5,4:-5,5:-2/5,9:-1/4,11:1/2,12:1,15:3/4,16:-1,20:1/5', '5'),
    ('1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1,9:1,10:1,11:1', '3'),
    ('1:1,2:1,3:1,6:1,8:1,9:1,11:1,12:1,13:1,17:1,19:1', '7/2'),
    ('3:-5/4,4:-3/5,6:-2,9:-5/2,10:3/5,11:-1/6,15:1/2,16:3,19:-1/7,21:-1/6,22:-1/4', '7529/1680'),
    ('1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1,9:1,10:1,11:1,12:1', '3'),
    ('3:1,5:1,6:1,7:1,9:1,13:1,14:1,16:1,17:1,18:1,22:1,23:1', '4'),
    ('6:1/7,8:1/5,9:-3/7,10:1/2,12:5,14:5/6,15:-1/2,16:-5,20:-2/3,21:-2,22:-1,23:2/7', '223/28'),
]


class TestModifiedNorm:
    def test_pair_example(self):
        # oracle over disjoint families: {2},{3} with two parts gives 1
        assert brute_modified({2: F(1), 3: F(1)}) == 1
        assert modified_norm(vec("2:1,3:1")) == 1

    def test_partition_reduction_against_set_oracle(self):
        for r in range(1, 6):
            for subset in combinations(range(1, 7), r):
                x = ones(subset)
                assert modified_norm(x) == brute_modified(
                    {p: F(1) for p in subset}
                ), subset

    def test_partition_reduction_on_random_rationals(self):
        rng = random.Random(303)
        for _ in range(25):
            x = random_vec(rng, max_pos=6, max_size=5)
            assert modified_norm(x) == brute_modified(
                {p[0]: v for p, v in x.items()}
            )

    def test_dominates_plain_norm_exactly(self):
        rng = random.Random(31)
        for r in range(1, 7):
            for subset in combinations(range(1, 7), r):
                x = ones(subset)
                assert tsirelson_norm(x) <= modified_norm(x)
        for _ in range(30):
            x = random_vec(rng, max_pos=7, max_size=5)
            assert tsirelson_norm(x) <= modified_norm(x)

    def test_strictly_exceeds_plain_norm_somewhere(self):
        # found by randomized search and frozen: an interleaved family
        # beats every successive one on this vector
        x = vec("2:7/2,3:5,4:7/3,6:3,7:3/2,9:5,10:3/2")
        assert tsirelson_norm(x) == F(161, 24)
        assert modified_norm(x) == F(85, 12)
        assert modified_norm(x) > tsirelson_norm(x)

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            modified_norm(ones(range(1, 14)))

    def test_bitmask_kernel_on_seeded_rationals(self):
        # positions in 1..9, so the eligibility cut p >= n bites
        rng = random.Random(1009)
        for _ in range(300):
            chosen = rng.sample(range(1, 10), rng.randint(1, 7))
            coef = {
                p: F(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 7))
                for p in chosen
            }
            x = SparseVec({(p,): c for p, c in coef.items()})
            assert modified_norm(x) == brute_modified(coef), coef

    @pytest.mark.parametrize("text, value", M_PINS, ids=range(len(M_PINS)))
    def test_pinned_values(self, text, value):
        assert modified_norm(vec(text)) == F(value)

    def test_support_12_completes(self):
        # every part is eligible at every part count, so only the largest
        # count is searched: the closed form below
        x = vec("12:5/3,13:1,14:3,15:1/2,16:1/6,17:5/6,18:-1/5,19:-5/6,20:-1/2,21:1,22:1,23:-1")
        assert modified_norm(x) == F(117, 20)

    def test_support_12_costliest_layout(self):
        # a low start leaves the most part counts to search: positions
        # 3..14 are among the costliest layouts at the cap; the value is
        # that of the search over every count
        x = vec("3:5/3,4:1,5:3,6:1/2,7:1/6,8:5/6,9:-1/5,10:-5/6,11:-1/2,12:1,13:1,14:-1")
        assert modified_norm(x) == F(451, 120)

    def test_skipped_part_counts_against_set_oracle(self):
        # positions in 1..2m cross the support size m, so the search steps
        # over runs of part counts, two runs on the full mask of three
        # of these vectors
        rng = random.Random(2027)
        for _ in range(60):
            m = rng.randint(2, 8)
            coef = {
                p: F(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 7))
                for p in rng.sample(range(1, 2 * m + 1), m)
            }
            x = SparseVec({(p,): c for p, c in coef.items()})
            assert modified_norm(x) == brute_modified(coef), coef

    def test_closed_form_when_every_count_is_admissible(self):
        # min supp >= |supp|: every count is admissible, and the largest,
        # |supp|, splits x into its points, so M(x) = max(|x|_inf, |x|_1 / 2)
        rng = random.Random(4111)
        for m in list(range(1, 13)) * 4:
            start = rng.randint(m, 2 * m + 4)
            positions = sorted(rng.sample(range(start, start + 2 * m), m))
            coef = [F(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 7)) for _ in range(m)]
            x = SparseVec({(p,): c for p, c in zip(positions, coef)})
            mags = [abs(c) for c in coef]
            got = modified_norm(x)
            assert (got, type(got)) == (max(max(mags), sum(mags) / 2), F), x



def _gauge_inputs():
    """Seeded signed rationals: 240 at support <= 12 and positions < 30,
    then one each at supports 20, 40 and 60."""
    rng = random.Random(4099)
    out = []
    for size in [rng.randint(1, 12) for _ in range(240)] + [20, 40, 60]:
        positions = sorted(rng.sample(range(1, max(30, 2 * size)), size))
        out.append(SparseVec({
            (p,): F(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
            for p in positions
        }))
    return out


# repr(gauge_norm(x)) for x in _gauge_inputs(), in S(log2), produced by
# the earlier recursive memoized DP; the bottom-up DP adds the same two
# operands for every sum, so every float must repeat bit for bit
GAUGE_PINS = [
    '3.8976228505642077', '2.436251607465149', '1.5', '5.678367782143117',
    '2.240740740740741', '3.3865874512197887', '2.6513668236157377', '3.0',
    '3.8907334803573206', '9.0', '3.0', '0.8571428571428571', '5.236716954643097',
    '3.2962962962962963', '1.0555402644426468', '8.0', '4.0196478753516685',
    '1.1428571428571428', '1.4', '4.0', '4.0', '5.316269222432075',
    '2.1318916078019683', '2.7431023003140154', '2.513888888888889',
    '6.624762412500304', '0.28041322380953665', '1.0', '3.0', '8.0',
    '0.3333333333333333', '7.4105188167330365', '2.0', '1.8', '3.5',
    '1.6824793428572202', '1.1944444444444444', '8.0', '5.706464394472459', '4.5',
    '3.246235264116289', '6.724474625860583', '6.0', '2.360353274521792',
    '3.1267075312815282', '6.472222222222222', '7.0', '1.125', '8.0', '2.525',
    '6.174012645079185', '7.0', '8.0', '2.2407017773080944', '4.666666666666667',
    '2.071428571428571', '4.5813898387718295', '9.0', '1.6533194534928588',
    '8.517551673214676', '3.6211459786289444', '1.8', '6.309297535714575',
    '3.654134822768025', '2.908786459124283', '5.241302980823179', '2.075057856190571',
    '1.0', '1.787634301785796', '0.14285714285714285', '3.7855785214287447',
    '5.04743802857166', '3.616964285714286', '8.202086796428947', '5.0',
    '3.1546487678572874', '9.02816156798906', '0.3392857142857143', '6.261977804196716',
    '5.0', '6.242519792392927', '7.0', '5.168118696880717', '8.0', '3.807184634436722',
    '3.3905191009661975', '1.6404173592857896', '1.0', '3.0104362527552397',
    '3.0506204692029457', '8.833016550000405', '1.1041270687500506', '3.5',
    '3.199715178826677', '8.0', '2.4330929808295183', '0.9463946303571862',
    '1.5803571428571428', '0.6666666666666666', '8.0', '4.5', '9.0', '8.02574086812238',
    '9.0', '7.097959727678897', '0.875', '1.0', '9.0', '2.8230350938075275', '9.0',
    '4.0', '4.881000991498455', '1.1428571428571428', '9.0', '3.8188152706346554',
    '7.003978575621513', '9.0', '4.08015873015873', '1.4', '4.7015524256345405', '4.0',
    '1.5999999999999999', '7.5711570428574895', '5.540570971380461', '1.125', '7.0',
    '4.0', '1.3670144660714914', '1.75', '4.678285629995498', '3.0262094965945265',
    '1.6569084248101373', '1.5', '1.8', '0.8571428571428571', '0.5',
    '2.3134090964286775', '7.0', '1.75', '1.8138888888888889', '3.7855785214287447',
    '2.986598657589296', '4.495833333333334', '5.0', '5.833333333333333', '9.0', '1.9',
    '1.0', '2.3965236810966926', '7.6012013168370824', '0.8333333333333334', '1.6',
    '2.5', '3.5', '8.0', '4.083333333333333', '4.5', '6.041321860431938', '5.0',
    '4.1537037037037035', '7.5711570428574895', '6.005548413496425',
    '2.5481696352675756', '8.0', '2.2082541375001012', '1.2', '6.0',
    '1.4500117729401174', '8.833016550000405', '6.0', '2.25', '0.8333333333333334',
    '10.09487605714332', '0.5', '3.986559598264064', '6.0', '3.3649586857144405', '0.6',
    '0.2', '5.403604447780879', '11.5', '3.9097090229166835', '5.04743802857166',
    '2.196428571428571', '1.0', '9.0', '3.258095165867735', '0.5', '5.362902905357388',
    '4.625', '4.0', '2.618122825243963', '9.213887438871275', '1.5', '5.0',
    '4.69805217418646', '3.7886621919643217', '2.442857142857143', '3.1546487678572874',
    '6.0', '5.002831832701402', '1.2505929044005675', '0.3333333333333333',
    '4.521663233928778', '0.14285714285714285', '1.6', '9.0', '4.5', '4.0', '4.0',
    '9.0', '2.7958023626228456', '4.731973151785931', '6.0', '4.101043398214474',
    '10.725805810714776', '6.940227289286033', '3.7380935690046986', '7.0',
    '2.01352720188188', '8.833016550000405', '4.731973151785931', '9.69577890444478',
    '7.0', '3.9421049707855476', '1.125', '4.15', '0.5', '2.756786790602341', '7.0',
    '0.7777777777777778', '2.6666666666666665', '2.6666666666666665', '7.0',
    '2.5171163315757723', '8.0', '9.463946303571863', '10.09487605714332',
    '1.340725726339347', '9.0', '8.341345744457625', '11.115448996205249',
    '15.941852523798744',
]


class TestGaugeNorm:
    def test_pinned_values(self):
        gauge = parse_space("S(log2)").gauge
        assert [repr(gauge_norm(x, gauge)) for x in _gauge_inputs()] == GAUGE_PINS

    def test_two_singletons(self):
        gauge = parse_space("S(log2)").gauge
        assert abs(gauge_norm(vec("1:1,2:1"), gauge) - 1.2618595071429148) < 1e-9

    def test_four_singletons_beat_nested_splits(self):
        gauge = parse_space("S(log2)").gauge
        assert abs(gauge_norm(vec("1:1,2:1,3:1,4:1"), gauge) - 1.7227062322935724) < 1e-9

    def test_interval_reduction_against_set_oracle(self):
        gauge = parse_space("S(log2)").gauge
        for r in range(1, 6):
            for subset in combinations(range(1, 6), r):
                x = ones(subset)
                expected = brute_gauge({p: F(1) for p in subset}, gauge)
                assert abs(gauge_norm(x, gauge) - expected) < 1e-9

    def test_interval_reduction_on_random_rationals(self):
        gauge = parse_space("S(log2)").gauge
        rng = random.Random(304)
        for _ in range(15):
            x = random_vec(rng, max_pos=5, max_size=5)
            expected = brute_gauge({p[0]: v for p, v in x.items()}, gauge)
            assert abs(gauge_norm(x, gauge) - expected) < 1e-9


class TestEngineDispatch:
    def test_lp_norms(self):
        assert NormEngine(parse_space("l1")).norm(vec("1:1,2:-2")) == 3
        assert NormEngine(parse_space("c0")).norm(vec("1:1,2:-2")) == 2
        assert abs(NormEngine(parse_space("lp(2)")).norm(vec("1:3,2:4")) - 5.0) < 1e-12
        assert NormEngine(parse_space("lp(2)")).norm(vec("3:-7/2")) == F(7, 2)

    def test_sum_of_dual_units(self):
        engine = NormEngine(parse_space("sum(lpn(1,2),repeat(T*))"))
        assert engine.norm(vec("1.2:1,2.3:1")) == 2

    def test_dual_dispatch(self):
        assert NormEngine(parse_space("T*")).norm(vec("1:1,2:1")) == 2

    def test_lpn_width_enforced(self):
        with pytest.raises(InputError):
            NormEngine(parse_space("lpn(1,2)")).norm(vec("3:1"))

    def test_sum_edge_validates_once_for_every_level(self):
        # the parts and the outer vector are not checked again below the
        # edge, so the edge alone must reject a bad outer index or depth
        engine = NormEngine(parse_space("sum(lpn(1,2),repeat(T*))"))
        with pytest.raises(InputError, match="index 3 exceeds lpn width 2"):
            engine.norm(vec("3.1:1"))
        with pytest.raises(InputError, match="depth 1, space has depth 2"):
            engine.norm(vec("1:1"))
        assert engine.norm(vec("1.2:1,2.3:1")) == 2
        with pytest.raises(InputError, match="lpn width 2"):
            engine.norm(vec("1.2:1,3.3:1"))

    @pytest.mark.parametrize("outer", ["l1", "c0", "lpn(1,4)"])
    def test_outer_l1_and_c0_of_float_parts_are_rounded_once(self, outer):
        # part norms sqrt(5), sqrt(10), sqrt(37) and an exact 3/2, summed
        # or maxed exactly and rounded once; summed left to right in
        # floats, the first three give 11.48110816796639 instead
        engine = NormEngine(parse_space(f"sum({outer},repeat(lp(2)))"))
        x = vec("1.1:1,1.2:2,2.1:1,2.2:3,3.1:1,3.2:6")
        parts = [lp_norm([F(1), F(c)], F(2)) for c in (2, 3, 6)]
        combine = max if outer == "c0" else sum
        for y, extra in ((x, []), (x + vec("4.3:3/2"), [F(3, 2)])):
            got = engine.norm(y)
            assert (got, type(got)) == (float(combine([F(v) for v in parts] + extra)), float)
        assert parts[0] + parts[1] + parts[2] != float(sum(map(F, parts)))

    def test_outer_l1_and_c0_of_exact_parts_stay_exact(self):
        x = vec("1.2:1/3,1.3:1,2.1:5/7,3.4:-2")
        for outer, want in (("l1", F(1, 3) + 1 + F(5, 7) + 2), ("c0", F(2))):
            got = NormEngine(parse_space(f"sum({outer},repeat(l1))")).norm(x)
            assert (got, type(got)) == (want, F)

    def test_zero_part_norms_stay_out_of_the_outer_vector(self):
        # an M outer caps its support: four part norms, two of them 0.0,
        # give a support of two, within a cap of 3
        engine = NormEngine(parse_space("sum(M,repeat(l1))"), Caps(modified=3))
        got = engine._outer_norm({1: 0.0, 2: F(3), 3: 0.0, 4: F(5)})
        assert (got, type(got)) == (float(modified_norm(vec("2:3,4:5"))), float)

    def test_engines_agree_bitwise(self):
        space = parse_space("T")
        a, b = NormEngine(space), NormEngine(space)
        rng = random.Random(8)
        for _ in range(20):
            x = random_vec(rng)
            assert a.norm(x) == b.norm(x)

    def test_zero_vector(self):
        assert NormEngine(parse_space("T")).norm(SparseVec()) == 0


def _class_mates(rng, x):
    """Three copies of x in its clipped-position class: the support
    points s_i >= m - i (a suffix) move to fresh increasing positions
    that stay >= m - i, and every coefficient gets a fresh sign."""
    items = sorted(x.items())
    positions = [p for (p,), _ in items]
    m = len(positions)
    t = next((i for i, p in enumerate(positions) if p >= m - i), m)
    low = max(m - t, positions[t - 1] + 1 if t else 1)
    mates = []
    for _ in range(3):
        moved = positions[:t] + sorted(rng.sample(range(low, low + 12), m - t))
        mates.append(SparseVec({(p,): rng.choice((1, -1)) * v for p, (_, v) in zip(moved, items)}))
    return mates


class TestClassKeyedMemo:
    """T and T* key their memo by the clipped-position class.  Each is
    checked against its evaluator without a memo, never against a second
    engine, which would share a wrong key."""

    EVALUATORS = {"T": tsirelson_norm, "T*": lambda x: dual_norm(x).value}

    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_engine_matches_the_memo_free_evaluator(self, name):
        engine = NormEngine(parse_space(name))
        evaluate = self.EVALUATORS[name]
        rng = random.Random(20)
        for _ in range(40):
            support = rng.sample(range(1, 10), rng.randint(1, 6))
            x = SparseVec({(p,): F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2))) for p in support})
            # x moved one position right is in another class wherever
            # some s_i < m - i: a key clipped too low can merge the two
            for y in (SparseVec({(p + 1,): v for (p,), v in x.items()}), x):
                assert engine.norm(y) == evaluate(y), y
            entries = len(engine._memo)
            for mate in _class_mates(rng, x):
                assert engine.norm(mate) == evaluate(mate), (x, mate)
            assert len(engine._memo) == entries, x

    @pytest.mark.parametrize("name, values", [("T", (1, F(3, 2))), ("T*", (3, 2))])
    def test_positions_are_clipped_at_m_minus_i(self, name, values):
        # classes (2, 2, 1) and (3, 2, 1), which a key clipped at
        # m - i - 1, or one of the |x_i| alone, would merge
        engine = NormEngine(parse_space(name))
        assert (engine.norm(ones((2, 3, 4))), engine.norm(ones((3, 4, 5)))) == values


SPACES = ["l1", "c0", "T", "M", "T*"]


class TestNormAxioms:
    @pytest.mark.parametrize("name", SPACES)
    def test_axioms_exact(self, name):
        engine = NormEngine(parse_space(name))
        rng = random.Random(hash(name) % 2**31)
        for _ in range(60):
            x = random_vec(rng, max_pos=7, max_size=5)
            y = random_vec(rng, max_pos=7, max_size=5)
            scale = F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
            nx, ny = engine.norm(x), engine.norm(y)
            assert nx > 0
            assert engine.norm(scale * x) == abs(scale) * nx
            assert engine.norm(x + y) <= nx + ny

    @pytest.mark.parametrize("name", SPACES)
    def test_suppression_unconditionality(self, name):
        engine = NormEngine(parse_space(name))
        rng = random.Random(1 + hash(name) % 2**31)
        for _ in range(40):
            x = random_vec(rng, max_pos=7, max_size=5)
            keep = rng.sample(x.leading_support(), rng.randint(1, len(x.leading_support())))
            assert engine.norm(restrict(x, keep)) <= engine.norm(x)

    def test_gauge_axioms_with_tolerance(self):
        engine = NormEngine(parse_space("S(log2)"))
        rng = random.Random(77)
        for _ in range(40):
            x = random_vec(rng, max_pos=7, max_size=5)
            y = random_vec(rng, max_pos=7, max_size=5)
            assert engine.norm(x + y) <= engine.norm(x) + engine.norm(y) + 1e-9

    def test_sandwich(self):
        rng = random.Random(99)
        linf = NormEngine(parse_space("c0"))
        lone = NormEngine(parse_space("l1"))
        for _ in range(60):
            x = random_vec(rng)
            t = tsirelson_norm(x)
            assert linf.norm(x) <= t <= lone.norm(x)

    @given(
        st.dictionaries(
            st.integers(1, 6),
            st.fractions(min_value=-3, max_value=3),
            min_size=1,
            max_size=4,
        ),
        st.dictionaries(
            st.integers(1, 6),
            st.fractions(min_value=-3, max_value=3),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_tsirelson_triangle_hypothesis(self, a, b):
        x = SparseVec({(k,): v for k, v in a.items()})
        y = SparseVec({(k,): v for k, v in b.items()})
        assert tsirelson_norm(x + y) <= tsirelson_norm(x) + tsirelson_norm(y)


class TestLpHelper:
    def test_exact_paths(self):
        assert lp_norm([F(1), F(2)], F(1)) == 3
        assert lp_norm([F(1), F(2)], None) == 2
        assert lp_norm([F(7, 3)], F(2)) == F(7, 3)
        assert abs(lp_norm([F(3), F(4)], F(2)) - 5.0) < 1e-12

    def test_overflowing_powers_scale_by_the_maximum(self):
        # 10^200 cubed leaves the float range; the norm itself does not
        assert lp_norm([F(10**200), F(1)], F(3)) == 1e200
        assert lp_norm([F(10**154), F(10**154)], F(3)) == pytest.approx(2 ** (1 / 3) * 1e154)

    def test_norm_beyond_the_float_range_is_an_input_error(self):
        with pytest.raises(InputError):
            lp_norm([F(10**400), F(1)], F(3))

    def test_float_sums_and_maxima_are_exact_and_rounded_once(self):
        # left to right in floats, 0.1 + 0.2 + 0.3 is 0.6000000000000001
        assert lp_norm([0.1, 0.2, 0.3], F(1)) == float(F(0.1) + F(0.2) + F(0.3)) == 0.6
        got = lp_norm([F(1, 3), 0.25], None)
        assert (got, type(got)) == (1 / 3, float)
        got = lp_norm([F(1, 3), F(1, 2)], F(1))
        assert (got, type(got)) == (F(5, 6), F)

    def test_exact_sum_or_maximum_beyond_the_float_range_is_an_input_error(self):
        with pytest.raises(InputError, match="the l1 norm exceeds the float range"):
            lp_norm([1e308, 1e308], F(1))
        with pytest.raises(InputError, match="the linf norm exceeds the float range"):
            lp_norm([F(10**400), 1.0], None)
        engine = NormEngine(parse_space("sum(T,repeat(l1))"))
        with pytest.raises(InputError, match="the outer norm exceeds the float range"):
            engine._outer_norm({1: F(10**400), 2: 1.0})

    def test_gauge_coefficient_beyond_the_float_range_is_an_input_error(self):
        gauge = parse_space("S(log2)").gauge
        with pytest.raises(InputError, match="the gauge norm exceeds the float range"):
            gauge_norm(vec(f"1:{10**400},2:1"), gauge)
        # the part sum 2e308 overflows, the norm does not
        got = gauge_norm(vec(f"1:{10**308},2:{10**308}"), gauge)
        assert got == 1e308 * gauge_norm(vec("1:1,2:1"), gauge)


# The outer norm of part norms, `Fraction`s or floats as they come.  Pins
# are repr(_outer_norm(stream)) at the commit before `lp_norm` became the
# one lp evaluator, where lp outers with p = 1 or inf summed exact
# integer ratios over product denominators and other lp outers took the
# part norms as `Fraction`s; every value and type must repeat.


def _part_norm_streams():
    """Seeded part norms by summand, as `_outer_norm` takes them: 30
    mixed streams of `Fraction`s and floats, with zeros, extremes and
    `Fraction`s near 10^307 that no float equals; 12 streams of zeros left
    by float norms that underflow, beside one or more nonzero norms; and
    12 singletons."""
    rng = random.Random(2417)
    kinds = 3 * [
        lambda: F(rng.randint(1, 30), rng.randint(1, 12)),
        lambda: math.sqrt(rng.randint(2, 60)),
    ] + [
        lambda: rng.random() * 10.0 ** rng.randint(-8, 8),
        lambda: rng.random() * 10.0 ** rng.randint(-8, 8),
        lambda: 0.0,
        lambda: rng.choice((1e300, 1e-300, 5e-324)),
        lambda: F(10**307 + rng.randint(1, 10**6), rng.randint(1, 7)),
    ]
    underflow = lp_norm([F(1, 10**120), F(1, 10**120)], F(3))
    assert (underflow, type(underflow)) == (0.0, float)
    streams = []
    for _ in range(30):
        keys = sorted(rng.sample(range(1, 9), rng.randint(1, 5)))
        streams.append({k: rng.choice(kinds)() for k in keys})
    for _ in range(12):
        keys = sorted(rng.sample(range(1, 9), rng.randint(2, 4)))
        streams.append({
            k: underflow if rng.random() < 0.5 else rng.choice(kinds[:2])() for k in keys
        })
    for value in (F(7, 3), math.sqrt(2), underflow, 1e300, F(10**307 + 1, 3), 5e-324):
        streams += [{1: value}, {6: value}]
    return streams


def _near_1e200_streams():
    """12 seeded streams of 2 to 5 norms near 1e200, floats and
    `Fraction`s that no float equals: their cubes overflow, so an l3
    outer takes the sum over the norms divided by their maximum."""
    rng = random.Random(1201)
    kinds = (
        lambda: rng.uniform(1, 10) * 1e199,
        lambda: F(rng.randint(10**199, 10**201), rng.randint(1, 9)),
    )
    return [
        {k: rng.choice(kinds)() for k in sorted(rng.sample(range(1, 9), rng.randint(2, 5)))}
        for _ in range(12)
    ]


def _pin(value):
    """repr of a value, or its type and a digest of a long repr."""
    text = repr(value)
    if len(text) <= 40:
        return text
    return f"{type(value).__name__} {hashlib.sha256(text.encode()).hexdigest()[:12]}"


def _outer_pins(outer, streams):
    engine = NormEngine(parse_space(f"sum({outer},repeat(l1))"))
    return [_pin(engine._outer_norm(part_norms)) for part_norms in streams]


# streams of `_part_norm_streams()` under sum(outer, repeat(l1))
OUTER_PINS = {
    'l1': [
        '7.5e+306', '2.500002e+306', 'Fraction(5, 3)', '1.6666666666666665e+306',
        '95122.83055245837', '6.722535307177037', '10.08276253029822',
        '25.132649082605703', '11.307687521709257', '9.205513679244289', '1e-300',
        '8.183805244049415', '9.335041311595521', '4.795831523312719',
        '1.6666666666666665e+306', '0.0', '5e+306', '5e+306', '5e+306',
        '10.225619673155363', '6.557438524302', '1.6666666666666665e+306',
        '8735.201168902817', '44.05', '5e+306', '73052.30624977153', '5e+306',
        '14.529908733956395', '9.833333386708981', '2.2', '0.4', '0.0', '2.6',
        '5.616657386773941', '8.668814869520137', '8.482082426490097',
        '5.830951894845301', '4.065384140902211', '2.5', '5.830951894845301', '23.0',
        '0.0', 'Fraction(7, 3)', 'Fraction(7, 3)', '1.4142135623730951',
        '1.4142135623730951', '0.0', '0.0', '1e+300', '1e+300', 'Fraction fbe66690eb0b',
        'Fraction fbe66690eb0b', '5e-324', '5e-324',
    ],
    'c0': [
        '5e+306', '2.5e+306', 'Fraction(5, 3)', '1.6666666666666665e+306',
        '95115.08458576596', '4.358898943540674', '6.082762530298219',
        '24.492663433221573', '7.0710678118654755', '3.3166247903554', '1e-300',
        '8.177280983793384', '5.196152422706632', '4.795831523312719',
        '1.6666666666666665e+306', '0.0', '5e+306', '5e+306', '5e+306',
        '6.082762530298219', '6.557438524302', '1.6666666666666665e+306',
        '8735.201168902817', '25.0', '5e+306', '73048.98962498117', '5e+306',
        '6.928203230275509', '7.333333333333333', '2.2', '0.4', '0.0', '2.6',
        '3.7416573867739413', '4.795831523312719', '4.69041575982343',
        '5.830951894845301', '2.3333333333333335', '2.5', '5.830951894845301', '23.0',
        '0.0', 'Fraction(7, 3)', 'Fraction(7, 3)', '1.4142135623730951',
        '1.4142135623730951', '0.0', '0.0', '1e+300', '1e+300', 'Fraction fbe66690eb0b',
        'Fraction fbe66690eb0b', '5e-324', '5e-324',
    ],
    'lp(2)': [
        '5.5901699437494747e+306', '2.5000000000004e+306', 'Fraction(5, 3)',
        '1.6666666666666665e+306', '95115.08490117335', '4.958505506652598',
        '7.280109889280518', '24.500641045139137', '8.070454225442251',
        '5.038126243890948', '1e-300', '8.177283586490123', '5.969120641649647',
        '4.795831523312719', '1.6666666666666665e+306', '0.0', '5e+306', '5e+306',
        '5e+306', '7.359569641366432', '6.557438524302', '1.6666666666666665e+306',
        '8735.201168902817', '28.977620675272842', '5e+306', '73048.98970027312',
        '5e+306', '9.18961259204308', '7.747759532779639', '2.2', '0.4', '0.0', '2.6',
        '4.0485336851754115', '6.164414002968976', '5.500157826018369',
        '5.830951894845301', '2.9059326290271157', '2.5', '5.830951894845301', '23.0',
        '0.0', 'Fraction(7, 3)', 'Fraction(7, 3)', '1.4142135623730951',
        '1.4142135623730951', '0.0', '0.0', '1e+300', '1e+300', 'Fraction fbe66690eb0b',
        'Fraction fbe66690eb0b', '5e-324', '5e-324',
    ],
    'lp(3/2)': [
        '6.118152036928689e+306', '2.5000000008432743e+306', 'Fraction(5, 3)',
        '1.6666666666666665e+306', '95115.1311870009', '5.453206243544831',
        '8.088065500793837', '24.5594246864499', '8.920778222136914',
        '6.107391965911736', '1e-300', '8.177403840696744', '6.821321550281181',
        '4.795831523312719', '1.6666666666666665e+306', '0.0', '5e+306', '5e+306',
        '5e+306', '8.189106125760327', '6.5574385243019995', '1.6666666666666665e+306',
        '8735.201168902817', '32.68471960847626', '5e+306', '73049.00452360396',
        '5e+306', '10.604970841751555', '8.276736801376162', '2.2', '0.4', '0.0', '2.6',
        '4.423761056495788', '6.899936816990197', '6.262350164622729',
        '5.830951894845301', '3.2443439507863223', '2.5', '5.830951894845301', '23.0',
        '0.0', 'Fraction(7, 3)', 'Fraction(7, 3)', '1.4142135623730951',
        '1.4142135623730951', '0.0', '0.0', '1e+300', '1e+300', 'Fraction fbe66690eb0b',
        'Fraction fbe66690eb0b', '5e-324', '5e-324',
    ],
    'lpn(3,8)': [
        '5.20020955762976e+306', '2.5e+306', 'Fraction(5, 3)',
        '1.6666666666666665e+306', '95115.08458578301', '4.579241512106938',
        '6.611963407339405', '24.49279909276433', '7.439189611732452',
        '4.212530715894099', '1e-300', '8.177280985177761', '5.4109757262359786',
        '4.795831523312719', '1.6666666666666665e+306', '0.0', '5e+306', '5e+306',
        '5e+306', '6.665698077896045', '6.5574385243019995', '1.6666666666666665e+306',
        '8735.201168902817', '26.422236786238912', '5e+306', '73048.98962498341',
        '5e+306', '8.085181310435201', '7.428930879286057', '2.2', '0.4', '0.0', '2.6',
        '3.821551999268456', '5.52221183185046', '4.971369711612533',
        '5.830951894845301', '2.6158721456002714', '2.5', '5.830951894845301', '23.0',
        '0.0', 'Fraction(7, 3)', 'Fraction(7, 3)', '1.4142135623730951',
        '1.4142135623730951', '0.0', '0.0', '1e+300', '1e+300', 'Fraction fbe66690eb0b',
        'Fraction fbe66690eb0b', '5e-324', '5e-324',
    ],
    'T': [
        '5e+306', '2.5e+306', 'Fraction(5, 3)', '1.6666666666666665e+306',
        '95115.08458576596', '4.358898943540674', '6.082762530298219',
        '24.492663433221573', '7.0710678118654755', '3.3166247903554', '1e-300',
        '8.177280983793384', '5.196152422706632', '4.795831523312719',
        '1.6666666666666665e+306', '0.0', '5e+306', '5e+306', '5e+306',
        '6.082762530298219', '6.557438524302', '1.6666666666666665e+306',
        '8735.201168902817', '25.0', '5e+306', '73048.98962498117', '5e+306',
        '7.2649543669781975', '7.333333333333333', '2.2', '0.4', '0.0', '2.6',
        '3.7416573867739413', '4.795831523312719', '4.69041575982343',
        '5.830951894845301', '2.3333333333333335', '2.5', '5.830951894845301', '23.0',
        '0.0', 'Fraction(7, 3)', 'Fraction(7, 3)', '1.4142135623730951',
        '1.4142135623730951', '0.0', '0.0', '1e+300', '1e+300', 'Fraction fbe66690eb0b',
        'Fraction fbe66690eb0b', '5e-324', '5e-324',
    ],
    'T*': [
        '7.5e+306', '2.500002e+306', 'Fraction(5, 3)', '1.6666666666666665e+306',
        '95122.83055245837', '6.722535307177037', '10.08276253029822',
        '25.132649082605703', '10.944051158072892', '9.205513679244289', '1e-300',
        '8.183805244049415', '7.446152422706632', '4.795831523312719',
        '1.6666666666666665e+306', '0.0', '5e+306', '5e+306', '5e+306',
        '10.225619673155363', '6.557438524302', '1.6666666666666665e+306',
        '8735.201168902817', '39.8', '5e+306', '73052.30624977153', '5e+306',
        '12.672765876813537', '9.833333333333334', '2.2', '0.4', '0.0', '2.6',
        '5.241657386773941', '8.668814869520137', '7.31541575982343',
        '5.830951894845301', '4.065384140902211', '2.5', '5.830951894845301', '23.0',
        '0.0', 'Fraction(7, 3)', 'Fraction(7, 3)', '1.4142135623730951',
        '1.4142135623730951', '0.0', '0.0', '1e+300', '1e+300', 'Fraction fbe66690eb0b',
        'Fraction fbe66690eb0b', '5e-324', '5e-324',
    ],
}

# `_near_1e200_streams()` under sum(lp(3), repeat(l1))
NEAR_1E200_PINS = [
    '1.9539379367432147e+200', '1.3114616542334996e+200', '3.001605418604727e+200',
    '3.956164395139731e+200', '1.2498988421680326e+200', '6.899439325257693e+200',
    '9.611207163613133e+199', '4.6073172283865895e+199', '3.1690624450571845e+200',
    '2.3491501993194913e+200', '1.2784362625758048e+200', '1.4366815626771295e+200',
]


class TestOuterNormPins:
    @pytest.mark.parametrize("outer", list(OUTER_PINS))
    def test_mixed_zero_and_singleton_streams(self, outer):
        assert _outer_pins(outer, _part_norm_streams()) == OUTER_PINS[outer]

    def test_l3_outer_rescales_norms_near_1e200(self):
        assert _outer_pins("lp(3)", _near_1e200_streams()) == NEAR_1E200_PINS
