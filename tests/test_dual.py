"""Dual norm LP: exactness, duality pairing, certificates, and the
independent polytope-maximization route."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from banachlab.caps import Caps
from banachlab.dual import dual_norm
from banachlab.errors import CapExceeded, InputError
from banachlab.norms import Functional, tsirelson_norm
from banachlab.oracles import decomposition_weight, dual_norm_reference
from banachlab.vectors import SparseVec, format_vector, inner_product, parse_vector, restrict, unit

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


class TestExamples:
    def test_biorthogonal_unit(self):
        result = dual_norm(unit(1))
        assert result.value == 1
        assert result.witness == unit(1)

    def test_e1_plus_e2(self):
        # brute certificate: the l1 bound is 2 and y = e_1 + e_2 has
        # Tsirelson norm 1, so the pairing attains 2
        x = ones([1, 2])
        assert tsirelson_norm(ones([1, 2])) == 1
        result = dual_norm(x)
        assert result.value == 2
        assert inner_product(x, result.witness) == 2
        assert tsirelson_norm(result.witness) <= 1

    def test_homogeneity(self):
        assert dual_norm(2 * unit(1)).value == 2

    def test_zero_vector(self):
        result = dual_norm(SparseVec())
        assert result.value == 0 and not result.witness

    def test_cap(self):
        with pytest.raises(CapExceeded):
            dual_norm(ones(range(1, 12)))

    def test_depth_guard(self):
        with pytest.raises(InputError):
            dual_norm(vec("1.2:1"))


class TestWitnessAndCertificate:
    def test_certificate_is_a_vertex(self):
        rng = random.Random(13)
        for _ in range(25):
            x = random_vec(rng, max_pos=8, max_size=5)
            result = dual_norm(x)
            m = len(x.leading_support())
            assert len(result.certificate) == m
            # active: every basis functional pairs to exactly 1 with y
            for f in result.certificate:
                assert inner_product(f.coefficients, result.witness) == 1
            # linearly independent: Gaussian elimination has full rank
            rows = [
                [f.coefficients[(p,)] for p in x.leading_support()]
                for f in result.certificate
            ]
            assert _rank(rows) == m

    def test_witness_feasible_and_tight(self):
        rng = random.Random(14)
        for _ in range(25):
            x = random_vec(rng, max_pos=8, max_size=5)
            result = dual_norm(x)
            assert tsirelson_norm(result.witness) <= 1
            assert inner_product(x, result.witness) == result.value


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        rows[rank] = [v / head for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestDualityPairing:
    def test_random_pair_suite(self):
        rng = random.Random(15)
        for _ in range(150):
            x = random_vec(rng, max_pos=10, max_size=6)
            y = random_vec(rng, max_pos=10, max_size=6)
            assert inner_product(x, y) <= dual_norm(x).value * tsirelson_norm(y)


class TestDualNormAxioms:
    def test_homogeneity_and_triangle_exact(self):
        rng = random.Random(16)
        for _ in range(40):
            x = random_vec(rng, max_pos=7, max_size=5)
            y = random_vec(rng, max_pos=7, max_size=5)
            scale = F(rng.choice([-3, -1, 2]), rng.randint(1, 3))
            dx, dy = dual_norm(x).value, dual_norm(y).value
            assert dual_norm(scale * x).value == abs(scale) * dx
            assert dual_norm(x + y).value <= dx + dy

    def test_suppression(self):
        rng = random.Random(17)
        for _ in range(30):
            x = random_vec(rng, max_pos=7, max_size=5)
            keep = rng.sample(
                x.leading_support(), rng.randint(1, len(x.leading_support()))
            )
            assert dual_norm(restrict(x, keep)).value <= dual_norm(x).value

    def test_sandwich(self):
        rng = random.Random(18)
        for _ in range(30):
            x = random_vec(rng, max_pos=8, max_size=5)
            value = dual_norm(x).value
            linf = max(abs(v) for _, v in x.items())
            lone = sum(abs(v) for _, v in x.items())
            assert linf <= value <= lone


class TestIndependentRoutes:
    def test_reference_polytope_solver_agrees_on_01(self):
        for r in range(1, 5):
            for subset in combinations(range(1, 5), r):
                x = ones(subset)
                assert dual_norm(x).value == dual_norm_reference(x)

    def test_reference_agrees_on_random(self):
        rng = random.Random(19)
        for _ in range(10):
            x = random_vec(rng, max_pos=4, max_size=4)
            assert dual_norm(x).value == dual_norm_reference(x)

    @pytest.mark.slow
    def test_reference_agrees_at_support_five(self):
        x = ones(range(1, 6))
        assert dual_norm(x).value == dual_norm_reference(x)
        rng = random.Random(20)
        y = random_vec(rng, max_pos=5, max_size=5)
        assert dual_norm(y).value == dual_norm_reference(y)

    def test_decomposition_weight_matches(self):
        # the minimal-weight decomposition over the norming set equals the
        # polytope maximum: convex-hull description of the dual ball
        rng = random.Random(21)
        for _ in range(20):
            x = random_vec(rng, max_pos=5, max_size=5)
            result = dual_norm(x)
            assert decomposition_weight(x, result) == result.value


# (x, value, witness, certificate as (coefficients, depth)) of the cold
# LP at supports 5-14, generated at commit 41b7114, before the LP took
# seeds; the last two are the LP inputs of the wide_support benchmark
COLD_PINS = [
    (
        '1:1,2:1,3:1,4:1,5:1',
        '4',
        '1:1,2:1,4:1,5:1',
        [
            ('1:1', 0),
            ('2:1', 0),
            ('3:1/2,4:1/2,5:1/2', 1),
            ('4:1', 0),
            ('5:1', 0),
        ],
    ),
    (
        '1:-4,5:1/3,6:-4/7,7:4,9:7/5,10:7/3',
        '31/3',
        '1:-1,7:1,10:1',
        [
            ('1:-1', 0),
            ('5:1/2,6:-1/2,7:1/2,9:1/2,10:1/2', 1),
            ('5:-1/2,7:1/2,9:1/2,10:1/2', 1),
            ('7:1', 0),
            ('5:1/2,6:1/2,7:1/2,9:1/2,10:1/2', 1),
            ('10:1', 0),
        ],
    ),
    (
        '3:-1/9,4:1/2,5:-7/2,8:2/9,9:-1/2,11:1/7,13:4',
        '15/2',
        '5:-1,13:1',
        [
            ('3:-1/2,5:-1/2,13:1/2', 1),
            ('4:1/2,5:-1/2,8:1/2,13:1/2', 1),
            ('5:-1', 0),
            ('5:-1/2,9:-1/2,11:-1/2,13:1/2', 1),
            ('4:1/2,5:-1/2,8:-1/2,13:1/2', 1),
            ('5:-1/2,8:1/2,9:-1/2,11:1/2,13:1/2', 1),
            ('13:1', 0),
        ],
    ),
    (
        '4:1,5:1,6:1,7:1,8:1,9:1,10:1,11:1',
        '32/11',
        '4:6/11,5:4/11,6:2/11,7:4/11,8:6/11,9:5/11,10:3/11,11:2/11',
        [
            ('4:1/2,5:1/4,6:1/4,7:1/4,8:1/2,9:1/4,10:1/4,11:1/4', 2),
            ('5:1/2,7:1/2,8:1/2,9:1/2,10:1/2', 1),
            ('6:1/2,7:1/2,8:1/2,9:1/2,10:1/2,11:1/2', 1),
            ('4:1/2,5:1/2,6:1/4,7:1/4,8:1/4,9:1/4,10:1/4,11:1/2', 2),
            ('4:1/2,5:1/4,6:1/4,7:1/4,8:1/4,9:1/2,10:1/2', 2),
            ('4:1/2,5:1/4,6:1/4,7:1/4,8:1/2,9:1/2', 2),
            ('4:1/2,5:1/2,7:1/2,8:1/4,9:1/4,10:1/4,11:1/4', 2),
            ('4:1/2,5:1/2,6:1/2,7:1/4,8:1/4,9:1/4,10:1/4,11:1/4', 2),
        ],
    ),
    (
        '1:1/9,2:-3,4:6,5:-1/2,8:-7/5,11:-8/3,14:-2,16:-1/2,18:-1,19:3/4',
        '106/9',
        '1:1,2:-1,4:1,11:-1',
        [
            ('1:1', 0),
            ('2:-1', 0),
            ('4:1', 0),
            ('4:1/2,11:-1/2,14:-1/2,18:-1/2', 1),
            ('4:1/2,5:-1/2,11:-1/2,14:-1/4,16:-1/4,18:-1/4,19:1/4', 2),
            ('4:1/2,11:-1/2,16:-1/2,18:-1/2', 1),
            ('4:1/2,11:-1/2,14:-1/2,16:-1/4,18:-1/4,19:1/4', 2),
            ('4:1/2,8:-1/2,11:-1/2,14:-1/4,16:-1/4,18:-1/4,19:1/4', 2),
            ('4:1/2,8:-1/2,11:-1/2,14:-1/2', 1),
            ('4:1/2,8:-1/2,11:-1/2,14:-1/4,16:1/4,18:-1/4,19:1/4', 2),
        ],
    ),
    (
        '2:-4/9,6:3/8,9:-1/2,10:1/4,12:3/2,13:-2,14:9/4,17:7/8,18:7/3,20:-3,21:3,23:1',
        '58/9',
        '2:-1,20:-1,21:1',
        [
            ('2:-1', 0),
            ('6:1/2,9:1/4,10:-1/4,12:1/4,13:1/4,14:1/2,17:1/2,20:-1/2,21:1/2', 2),
            ('9:1/2,10:-1/2,12:1/2,13:-1/2,17:1/2,18:-1/2,20:-1/2,21:1/2,23:-1/2', 1),
            ('9:-1/2,10:1/2,12:1/2,13:-1/2,14:1/2,17:1/2,18:1/2,20:-1/2,21:1/2', 1),
            ('9:-1/2,10:-1/2,12:-1/2,14:1/2,17:1/2,18:-1/2,20:-1/2,21:1/2,23:1/2', 1),
            ('9:1/2,10:-1/2,13:-1/2,14:1/2,17:-1/2,18:1/2,20:-1/2,21:1/2,23:1/2', 1),
            ('9:1/2,12:-1/2,13:1/2,14:1/2,17:1/2,18:1/2,20:-1/2,21:1/2,23:-1/2', 1),
            ('9:-1/2,10:-1/2,12:1/2,13:1/2,14:1/2,17:-1/2,20:-1/2,21:1/2,23:-1/2', 1),
            ('10:-1/2,12:1/2,13:1/2,14:-1/2,17:1/2,18:1/2,20:-1/2,21:1/2,23:1/2', 1),
            ('6:1/2,20:-1/2,21:1/2', 1),
            ('21:1', 0),
            ('9:1/2,10:1/2,12:1/2,13:1/2,14:1/2,18:-1/2,20:-1/2,21:1/2,23:1/2', 1),
        ],
    ),
    (
        '1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1,9:1,10:1,11:1,12:1,13:1,14:1',
        '79/14',
        '1:1,2:1,3:5/14,4:3/7,5:2/7,6:2/7,7:2/7,8:2/7,9:2/7,10:2/7,11:2/7,12:2/7,13:2/7,14:2/7',
        [
            ('1:1', 0),
            ('2:1', 0),
            ('4:1/2,5:1/2,6:1/2,7:1/4,8:1/4,9:1/4,10:1/4,11:1/4,12:1/4,14:1/4', 2),
            ('4:1/2,5:1/2,7:1/2,8:1/4,9:1/4,10:1/4,11:1/4,12:1/4,13:1/4,14:1/4', 2),
            ('4:1/2,5:1/2,6:1/2,7:1/4,8:1/4,9:1/4,10:1/4,11:1/4,12:1/4,13:1/4', 2),
            ('4:1/2,6:1/2,7:1/2,8:1/4,9:1/4,10:1/4,11:1/4,12:1/4,13:1/4,14:1/4', 2),
            ('7:1/2,9:1/2,10:1/2,11:1/2,12:1/2,13:1/2,14:1/2', 1),
            ('8:1/2,9:1/2,10:1/2,11:1/2,12:1/2,13:1/2,14:1/2', 1),
            ('4:1/2,5:1/2,6:1/2,7:1/4,8:1/4,9:1/4,11:1/4,12:1/4,13:1/4,14:1/4', 2),
            ('7:1/2,8:1/2,9:1/2,10:1/2,11:1/2,13:1/2,14:1/2', 1),
            ('7:1/2,8:1/2,9:1/2,10:1/2,11:1/2,12:1/2,13:1/2', 1),
            ('3:1/2,4:1/4,5:1/4,6:1/4,7:1/4,8:1/4,9:1/4,10:1/4,11:1/4,12:1/4,13:1/4,14:1/4', 2),
            ('7:1/2,8:1/2,9:1/2,10:1/2,12:1/2,13:1/2,14:1/2', 1),
            ('4:1/2,5:1/2,6:1/2,7:1/4,8:1/4,10:1/4,11:1/4,12:1/4,13:1/4,14:1/4', 2),
        ],
    ),
    (
        '2:9/8,4:4/3,6:-6/7,10:-9/4,12:-1,14:9/7,15:-6,17:-1,19:-8/7,21:1/5,22:-1/2,23:8/5,25:-1/4,27:6/5',
        '47983/5040',
        '2:1,4:5/12,6:-1/6,10:-5/12,12:-1/12,14:1/6,15:-1,19:-1/12,23:1/6,27:1/12',
        [
            ('2:1', 0),
            ('4:1/2,6:-1/4,10:-1/4,12:-1/4,14:1/4,15:-1/2,17:-1/4,19:-1/4,21:1/4,22:-1/4,23:1/4,27:1/4', 2),
            ('6:-1/2,10:-1/2,12:-1/2,14:1/2,15:-1/2,23:1/2', 1),
            ('4:1/2,6:-1/2,10:-1/2,15:-1/2', 1),
            ('10:-1/2,12:-1/2,14:1/2,15:-1/2,17:-1/2,19:-1/2,21:1/2,22:-1/2,23:1/2,27:1/2', 1),
            ('4:1/2,10:-1/2,14:1/2,15:-1/2', 1),
            ('15:-1', 0),
            ('4:1/2,10:-1/2,15:-1/2,23:1/2', 1),
            ('4:1/2,10:-1/2,15:-1/2,17:-1/4,19:-1/4,21:-1/4,22:-1/4,23:1/4,25:-1/4,27:1/4', 2),
            ('6:-1/2,10:-1/2,14:1/2,15:-1/2,19:-1/2,23:1/2', 1),
            ('10:-1/2,12:-1/2,14:1/2,15:-1/2,17:-1/2,19:-1/2,21:-1/2,23:1/2,25:1/2,27:1/2', 1),
            ('6:-1/2,10:-1/2,14:1/2,15:-1/2,23:1/2,27:1/2', 1),
            ('10:-1/2,12:-1/2,14:1/2,15:-1/2,17:-1/2,19:-1/2,21:1/2,22:1/2,23:1/2,27:1/2', 1),
            ('10:-1/2,12:-1/2,14:1/2,15:-1/2,17:1/2,19:-1/2,21:1/2,22:-1/2,23:1/2,27:1/2', 1),
        ],
    ),
]


class TestColdRunPinned:
    @pytest.mark.parametrize("x, value, witness, certificate", COLD_PINS,
                             ids=[str(len(vec(p[0]))) for p in COLD_PINS])
    def test_value_witness_and_certificate(self, x, value, witness, certificate):
        result = dual_norm(vec(x), Caps(dual=16))
        assert str(result.value) == value
        assert format_vector(result.witness) == witness
        assert [(format_vector(f.coefficients), f.depth) for f in result.certificate] == certificate

    def test_start_keeps_the_value(self):
        # +e_4 and the optimal basis of 4 < ... < 11 minus its first point
        x = ones(range(4, 12))
        start = [Functional(unit((4,)), 0), *dual_norm(ones(range(5, 12))).certificate]
        assert dual_norm(x, start=start).value == dual_norm(x).value == F(32, 11)

    def test_start_is_keyword_only(self):
        with pytest.raises(TypeError):
            dual_norm(ones(range(1, 3)), Caps(), [Functional(unit((1,)), 0)])
