"""Hamming-type metrics: domination, diameters, metric axioms."""

from fractions import Fraction
from itertools import combinations

import pytest

from banachlab.errors import CapExceeded, InputError
from banachlab.hamming import (
    POINT_BUDGET,
    HammingSpace,
    hamming_distance,
    johnson_distance,
    make_ksubset,
    metric_distance,
    parse_ksubset,
)
from banachlab.oracles import brute_force_tsirelson
from banachlab.spaces import parse_space
from banachlab.vectors import SparseVec

F = Fraction

GENERATORS = ["l1", "lp(2)", "c0", "T", "T*"]
RATIONAL_GENERATORS = ["l1", "c0", "T", "T*"]


class TestBasics:
    def test_hamming_examples(self):
        assert hamming_distance((1, 3, 5), (2, 3, 7)) == 2
        assert hamming_distance((1, 2), (1, 2)) == 0
        assert hamming_distance((1, 2), (3, 4)) == 2

    def test_johnson_examples(self):
        assert johnson_distance((1, 2), (1, 3)) == 1
        assert johnson_distance((1, 2), (1, 2)) == 0
        assert johnson_distance((1, 2), (3, 4)) == 2
        assert johnson_distance((1, 2), (2, 3)) == 1  # half of |{1, 3}|

    def test_mismatched_k(self):
        with pytest.raises(InputError):
            hamming_distance((1, 2), (1, 2, 3))
        with pytest.raises(InputError):
            johnson_distance((1,), (1, 2))

    def test_ksubset_validation(self):
        assert parse_ksubset("1,3,5") == (1, 3, 5)
        with pytest.raises(InputError):
            make_ksubset((3, 3))
        with pytest.raises(InputError):
            make_ksubset((2, 1))
        with pytest.raises(InputError):
            parse_ksubset("1,x")


class TestGeneratedMetric:
    def test_l1_equals_hamming(self):
        hs = HammingSpace(3, parse_space("l1"))
        for a in combinations(range(1, 7), 3):
            for b in combinations(range(1, 7), 3):
                assert hs.distance(a, b) == hamming_distance(a, b)

    def test_tsirelson_disjoint_blocks(self):
        # positions 1..4 all differ; oracle value of the indicator
        hs = HammingSpace(4, parse_space("T"))
        indicator = SparseVec({(j,): F(1) for j in range(1, 5)})
        expected = brute_force_tsirelson(indicator)
        assert expected == 1
        assert hs.distance((1, 2, 3, 4), (5, 6, 7, 8)) == expected

    def test_identical_points(self):
        for name in GENERATORS:
            hs = HammingSpace(2, parse_space(name))
            assert hs.distance((3, 9), (3, 9)) == 0

    @pytest.mark.parametrize("name", GENERATORS)
    def test_dominated_by_hamming(self, name):
        hs = HammingSpace(3, parse_space(name))
        points = list(combinations(range(1, 7), 3))
        for a in points:
            for b in points:
                d = hs.distance(a, b)
                h = hamming_distance(a, b)
                if isinstance(d, float):
                    assert d <= h + 1e-9
                else:
                    assert d <= h

    @pytest.mark.parametrize("name", RATIONAL_GENERATORS)
    def test_metric_axioms_exact(self, name):
        hs = HammingSpace(3, parse_space(name))
        points = list(combinations(range(1, 6), 3))
        dist = {(a, b): hs.distance(a, b) for a in points for b in points}
        for a in points:
            for b in points:
                assert dist[(a, b)] == dist[(b, a)]
                assert (dist[(a, b)] == 0) == (a == b)
                for c in points:
                    assert dist[(a, c)] <= dist[(a, b)] + dist[(b, c)]

    def test_l2_metric_axioms_with_tolerance(self):
        hs = HammingSpace(3, parse_space("lp(2)"))
        points = list(combinations(range(1, 6), 3))
        dist = {(a, b): hs.distance(a, b) for a in points for b in points}
        for a in points:
            for b in points:
                assert dist[(a, b)] == dist[(b, a)]
                assert (dist[(a, b)] == 0) == (a == b)
                for c in points:
                    assert dist[(a, c)] <= dist[(a, b)] + dist[(b, c)] + 1e-9

    def test_depth_one_generator_required(self):
        with pytest.raises(InputError):
            HammingSpace(2, parse_space("sum(T*,repeat(T*))"))


class TestMetricKinds:
    def test_each_kind(self):
        a, b = (1, 3, 5), (2, 3, 7)
        assert metric_distance("hamming", 3)(a, b) == F(2)
        assert metric_distance("johnson", 3)(a, b) == F(2)
        assert metric_distance("d_e", 3, parse_space("c0"))(a, b) == F(1)

    @pytest.mark.parametrize("kind", ["d_e", "euclid"])  # d_e without a generator
    def test_bad_kind_is_an_input_error(self, kind):
        with pytest.raises(InputError):
            metric_distance(kind, 2)


class TestDiameter:
    def test_l1_diameter_is_k(self):
        assert HammingSpace(3, parse_space("l1")).diameter() == 3

    def test_point_budget(self):
        assert HammingSpace(POINT_BUDGET, parse_space("l1")).diameter() == POINT_BUDGET
        with pytest.raises(CapExceeded, match="point budget"):
            HammingSpace(POINT_BUDGET + 1, parse_space("l1")).diameter()

    def test_c0_diameter_is_one(self):
        for k in (1, 2, 5):
            assert HammingSpace(k, parse_space("c0")).diameter() == 1

    def test_tsirelson_diameter_matches_oracle(self):
        for k in (1, 2, 4, 7):
            indicator = SparseVec({(j,): F(1) for j in range(1, k + 1)})
            assert (
                HammingSpace(k, parse_space("T")).diameter()
                == brute_force_tsirelson(indicator)
            )

    def test_tsirelson_diameters_nondecreasing(self):
        values = [
            HammingSpace(k, parse_space("T")).diameter() for k in (1, 2, 4, 7)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_brute_matches_formula(self):
        for name in ("l1", "c0", "T", "T*"):
            for k in (2, 3):
                hs = HammingSpace(k, parse_space(name))
                assert hs.diameter_brute(2 * k + 1) == hs.diameter()

    def test_brute_examples(self):
        assert HammingSpace(2, parse_space("l1")).diameter_brute(4) == 2
        assert HammingSpace(2, parse_space("c0")).diameter_brute(5) == 1

    def test_budget_refusal(self):
        with pytest.raises(CapExceeded):
            HammingSpace(5, parse_space("l1")).diameter_brute(40)

    def test_small_n_rejected(self):
        with pytest.raises(InputError):
            HammingSpace(3, parse_space("l1")).diameter_brute(5)
