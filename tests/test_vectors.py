"""Vector core: exact arithmetic, restrictions, text format."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachlab.errors import InputError, ParseError
from banachlab.vectors import (
    SparseVec,
    format_vector,
    inner_product,
    parse_vector,
    restrict,
    unit,
)

F = Fraction


def vec(text):
    return parse_vector(text)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        v = SparseVec({(1,): F(0), (2,): F(3)})
        assert v.support() == [(2,)]

    def test_mixed_depth_rejected(self):
        with pytest.raises(InputError):
            SparseVec({(1,): F(1), (2, 3): F(1)})

    def test_nonpositive_index_rejected(self):
        with pytest.raises(InputError):
            SparseVec({(0,): F(1)})

    def test_equality_is_canonical(self):
        assert vec("1:1,2:1/2") == vec("2:2/4, 1:3/3")
        assert vec("1:1") != vec("1:2")

    def test_support_lexicographic(self):
        v = vec("2.1:1,1.3:1,1.2:-1")
        assert v.support() == [(1, 2), (1, 3), (2, 1)]


class TestRestrict:
    def test_drops_other_leading_indices(self):
        assert restrict(vec("1:1,2:1"), {2}) == vec("2:1")

    def test_empty_set_gives_zero(self):
        assert restrict(vec("1:1"), set()) == SparseVec()

    def test_full_support_identity(self):
        v = vec("1:1,3:1/2")
        assert restrict(v, {1, 3}) == v

    def test_idempotent(self):
        v = vec("1:1,2:2,5:-1/3")
        assert restrict(restrict(v, {1, 5}), {1, 5}) == restrict(v, {1, 5})

    @given(
        st.dictionaries(
            st.integers(1, 9),
            st.fractions(min_value=-5, max_value=5),
            max_size=6,
        ),
        st.sets(st.integers(1, 9), max_size=5),
        st.sets(st.integers(1, 9), max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_composition_is_intersection(self, entries, E, G):
        v = SparseVec({(k,): f for k, f in entries.items()})
        assert restrict(restrict(v, E), G) == restrict(v, E & G)


class TestInnerProduct:
    def test_biorthogonal(self):
        assert inner_product(unit(1), unit(1)) == 1

    def test_disjoint_supports(self):
        assert inner_product(unit(1), unit(2)) == 0

    def test_direct_expansion(self):
        assert inner_product(vec("1:2,3:1"), vec("1:1,3:1")) == 3

    def test_depth_mismatch(self):
        with pytest.raises(InputError):
            inner_product(vec("1:1"), vec("1.1:1"))

    @given(
        st.dictionaries(st.integers(1, 8), st.fractions(min_value=-3, max_value=3), max_size=5),
        st.dictionaries(st.integers(1, 8), st.fractions(min_value=-3, max_value=3), max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_exact(self, a, b):
        x = SparseVec({(k,): f for k, f in a.items()})
        y = SparseVec({(k,): f for k, f in b.items()})
        direct = sum(
            (x[(k,)] * y[(k,)] for k in set(a) | set(b)), F(0)
        )
        assert inner_product(x, y) == inner_product(y, x) == direct


class TestTextFormat:
    def test_examples(self):
        assert vec("1:1,2:1/2")[(1,)] == 1
        assert vec("1:1,2:1/2")[(2,)] == F(1, 2)
        assert vec("1.3:1,2.1:-2/3")[(2, 1)] == F(-2, 3)

    def test_roundtrip(self):
        for text in ["1:1,2:1/2", "1.3:1,2.1:-2/3", "5:-7/3", "0"]:
            v = parse_vector(text)
            assert parse_vector(format_vector(v)) == v

    def test_syntax_errors(self):
        with pytest.raises(ParseError):
            parse_vector("1;2")
        with pytest.raises(InputError):
            parse_vector("1:1/0")
        with pytest.raises(ParseError):
            parse_vector("0.1:1")


class TestAlgebra:
    def test_add_and_scale(self):
        assert vec("1:1") + vec("1:1,2:1") == vec("1:2,2:1")
        assert F(1, 2) * vec("3:1") == vec("3:1/2")
        assert vec("1:1") - vec("1:1") == SparseVec()

    def test_immutability_of_inputs(self):
        v = vec("1:1")
        _ = v + vec("2:1")
        assert v == vec("1:1")


class TestCanonicalResults:
    """Every result built from existing vectors is in the form the
    validating constructor would give it: same entries, same hash, no
    stored zero, `Fraction` values on int-tuple paths of its depth."""

    VALUES = [F(1), F(-1), F(1, 2), F(-2, 3), F(5, 4), F(3)]

    @staticmethod
    def assert_canonical(v):
        rebuilt = SparseVec(dict(v.items()), depth=v.depth)
        assert v == rebuilt
        assert hash(v) == hash(rebuilt)
        for path, value in v.items():
            assert type(value) is Fraction and value != 0
            assert len(path) == v.depth
            assert all(type(i) is int and i >= 1 for i in path)

    def random_vec(self, rng, depth, size):
        return SparseVec(
            {
                tuple(rng.randint(1, 3) for _ in range(depth)): rng.choice(self.VALUES)
                for _ in range(size)
            },
            depth=depth,
        )

    def pairs(self):
        """(a, b) at depths 1-3; b shares some of a's entries, some
        negated, so that both + and - cancel coordinates to zero."""
        rng = random.Random(20201)
        for _ in range(300):
            depth = rng.randint(1, 3)
            a = self.random_vec(rng, depth, rng.randint(0, 6))
            entries = dict(self.random_vec(rng, depth, rng.randint(0, 4)).items())
            for path, value in a.items():
                pick = rng.random()
                if pick < 0.3:
                    entries[path] = value
                elif pick < 0.6:
                    entries[path] = -value
            yield a, SparseVec(entries, depth=depth), rng

    @staticmethod
    def reference(a, b, sign):
        paths = set(dict(a.items())) | set(dict(b.items()))
        return SparseVec(
            {p: a[p] + sign * b[p] for p in paths}, depth=a.depth if a else b.depth
        )

    def test_add_and_sub(self):
        cancelled = 0
        for a, b, _ in self.pairs():
            for result, sign in ((a + b, 1), (a - b, -1)):
                self.assert_canonical(result)
                assert result == self.reference(a, b, sign)
                assert result.depth == a.depth
                cancelled += len(result) < len(set(dict(a.items())) | set(dict(b.items())))
        assert cancelled > 100

    def test_scalar_and_negation(self):
        for a, _, rng in self.pairs():
            for c in (0, F(0), 1, -1, rng.choice(self.VALUES)):
                result = c * a
                self.assert_canonical(result)
                assert result.depth == a.depth
                assert result == SparseVec({p: c * v for p, v in a.items()}, depth=a.depth)
            assert not 0 * a
            self.assert_canonical(-a)
            assert -a == (-1) * a and -a + a == SparseVec(depth=a.depth)

    def test_leading_groups_and_restrict(self):
        for a, _, rng in self.pairs():
            E = {i for i in range(1, 4) if rng.random() < 0.5}
            result = restrict(a, E)
            self.assert_canonical(result)
            assert result.depth == a.depth
            assert result == SparseVec(
                {p: v for p, v in a.items() if p[0] in E}, depth=a.depth
            )
            if a.depth == 1:
                with pytest.raises(InputError):
                    a.leading_groups()
                continue
            groups = a.leading_groups()
            assert sorted(groups) == a.leading_support()
            for k, part in groups.items():
                self.assert_canonical(part)
                assert part.depth == a.depth - 1
                assert part == SparseVec(
                    {p[1:]: v for p, v in a.items() if p[0] == k}, depth=a.depth - 1
                )

    def test_empty_vectors_keep_their_depth(self):
        for depth in (1, 2, 3):
            zero = SparseVec(depth=depth)
            x = SparseVec({(2,) * depth: F(1, 3)})
            for result in (zero + zero, zero - zero, x - x, zero + x - x, -zero, 0 * x,
                           restrict(x, set())):
                self.assert_canonical(result)
                assert not result and result.depth == depth
            assert (zero - x).depth == depth and zero - x == -x
            if depth >= 2:
                assert zero.leading_groups() == {}

    def test_depth_mismatch_raises(self):
        for depth, other in ((1, 2), (2, 3), (3, 1)):
            x = SparseVec({(1,) * depth: F(1)})
            y = SparseVec({(1,) * other: F(1)})
            with pytest.raises(InputError):
                x + y
            with pytest.raises(InputError):
                x - y
            # an empty operand takes the other's depth, as before
            assert (x + SparseVec(depth=other)).depth == depth
            assert (SparseVec(depth=other) + x).depth == depth
            assert (SparseVec(depth=other) - x).depth == depth
