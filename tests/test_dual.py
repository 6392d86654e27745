"""Dual norm LP: exactness, duality pairing, certificates, and the
independent polytope-maximization route."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from banachlab.dual import dual_norm, verify_duality
from banachlab.errors import CapExceeded, InputError
from banachlab.norms import tsirelson_norm
from banachlab.oracles import decomposition_weight, dual_norm_reference
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
    def test_trivial_pairs(self):
        assert verify_duality(unit(1), unit(1))
        assert verify_duality(ones([1, 2]), unit(3))

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
