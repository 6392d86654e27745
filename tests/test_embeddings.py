"""Embedding constructions, distortion measurement, tree branches,
finite-linfty constants, and plegma completion."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from banachlab.dual import dual_norm
from banachlab.embeddings import (
    ArrayEmbed,
    Prop73,
    array_embed,
    ell_infty_equivalence,
    embed,
    is_plegma,
    measure_distortion,
    plegma_extend,
    prop73_embed,
    prop73_space,
    xpq_branch_vectors,
    xpq_space,
)
from banachlab.errors import CapExceeded, InputError
from banachlab.hamming import hamming_distance
from banachlab.norms import NormEngine, lp_norm
from banachlab.oracles import brute_force_tsirelson
from banachlab.spaces import parse_space
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

    def test_report_shape(self):
        report = measure_distortion(Prop73(F(1), 1), "johnson", 4)
        data = report.to_dict()
        assert set(data) == {"lower", "upper", "distortion", "argmin", "argmax", "pairs"}


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
        assert ell_infty_equivalence([unit(1)], parse_space("T")) == (1, 1)

    def test_tsirelson_block(self):
        vectors = [unit(j) for j in range(4, 8)]
        assert brute_force_tsirelson(sum(vectors[1:], vectors[0])) == 2
        c_low, c_up = ell_infty_equivalence(vectors, parse_space("T"))
        assert (c_low, c_up) == (1, 2)

    def test_dual_pair(self):
        c_low, c_up = ell_infty_equivalence([unit(2), unit(3)], parse_space("T*"))
        assert (c_low, c_up) == (1, 2)

    def test_overlap_rejected(self):
        with pytest.raises(InputError):
            ell_infty_equivalence([unit(1), unit(1)], parse_space("T"))

    def test_certified_inequality_on_rational_coefficients(self):
        rng = random.Random(37)
        vectors = [unit(2), unit(3) + F(1, 2) * unit(5), unit(7)]
        space = parse_space("T*")
        engine = NormEngine(space)
        c_low, c_up = ell_infty_equivalence(vectors, space)
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


class TestPlegma:
    def test_single_family(self):
        assert is_plegma([(1, 3, 9)])
        assert not is_plegma([(1, 3, 3)])

    def test_examples(self):
        assert is_plegma([(1, 3), (2, 4)])
        assert not is_plegma([(1, 4), (2, 3)])

    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            is_plegma([(1, 2), (3,)])

    def test_extend_k1(self):
        assert plegma_extend(1, [1, 1], [4, 2], 0) == [[2, 4]]

    def test_extend_k2_example(self):
        plegma = plegma_extend(2, [1, 2], [8, 12], 1)
        assert is_plegma(plegma)
        assert plegma[0][0] == 8 and plegma[1][1] == 12
        assert plegma[0][0] > 1

    def test_extend_precondition_errors(self):
        with pytest.raises(InputError):
            plegma_extend(2, [1, 2], [7, 12], 1)  # not a multiple of 2k
        with pytest.raises(InputError):
            plegma_extend(2, [1, 2], [4, 8], 4)  # does not exceed N + k
        with pytest.raises(InputError):
            plegma_extend(2, [1, 2], [8, 8], 1)  # duplicates
        with pytest.raises(InputError):
            plegma_extend(2, [3, 1], [8, 12], 1)  # row index out of range

    def test_extend_random_instances(self):
        rng = random.Random(41)
        for _ in range(25):
            k = rng.randint(1, 4)
            m = rng.randint(1, 4)
            N = rng.randint(0, 5)
            ls = rng.sample(range(1, 40), m)
            ls = [2 * k * (l + N) for l in ls]
            rows = [rng.randint(1, k) for _ in range(m)]
            plegma = plegma_extend(k, rows, ls, N)
            assert is_plegma(plegma)
            assert plegma[0][0] > N
            order = sorted(range(m), key=lambda j: ls[j])
            for col, j in enumerate(order):
                assert plegma[rows[j] - 1][col] == ls[j]
