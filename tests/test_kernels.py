"""The exact integer kernels against their oracles and against pins.

`_TsirelsonDP` evaluates one part count per start, and
`_TsirelsonWitness` recovers the tie-breaks of a full (coordinate,
start, part count, split) scan along the witness path only, from the
DP's own best sums where it filled them.  `StandardFormSimplex` runs
Bland's rule on integer-scaled columns with a fraction-free basis
update.  The oracles are the set-family recursion
`brute_force_tsirelson`, the rational decomposition check and the
dense-tableau reference LP.  `PINS` holds outputs of the earlier
`Fraction` implementations of both kernels on fixed inputs; the integer
kernels must reproduce them bit for bit, down to the witness, the
tie-breaks and the order of the LP basis.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from banachlab import dual
from banachlab.caps import Caps
from banachlab.dual import canonical_positions, dual01_pool, dual_norm
from banachlab.norms import _TsirelsonWitness, nonempty_subsets, tsirelson_norm, tsirelson_norm_witness
from banachlab.oracles import (
    _invert,
    brute_force_tsirelson,
    decomposition_weight,
    dual_norm_reference,
    maximize_over_unit_polytope,
)
from banachlab.simplex import SimplexError, StandardFormSimplex, _integer_inverse
from banachlab.vectors import SparseVec, format_vector, inner_product, parse_vector

F = Fraction


def ones(positions):
    return SparseVec({(p,): F(1) for p in positions})


def rational_vec(rng, size, positions):
    chosen = rng.sample(positions, size)
    return SparseVec(
        {
            (p,): F(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 7))
            for p in chosen
        }
    )


def check_dp(x):
    """The DP value equals the oracle, and the witness is a functional of
    the norming set's shape that pairs with x to give the value."""
    value, coeffs, depth = tsirelson_norm_witness(x)
    assert value == tsirelson_norm(x) == brute_force_tsirelson(x)
    f = SparseVec({(p,): c for p, c in coeffs.items()})
    assert inner_product(f, x) == value
    for c in coeffs.values():
        assert abs(c).numerator == 1 and abs(c).denominator <= 2**depth
        assert abs(c).denominator & (abs(c).denominator - 1) == 0
    assert list(coeffs) == sorted(coeffs)


class TestTsirelsonDP:
    def test_01_vectors_in_1_to_8(self):
        for r in range(1, 9):
            for subset in combinations(range(1, 9), r):
                check_dp(ones(subset))

    def test_seeded_rationals(self):
        # positions in [1, 9], so many supports contain 1 or 2, where the
        # part-count bound min(E_1) is what limits the families
        rng = random.Random(41)
        small_start = 0
        for i in range(300):
            x = rational_vec(rng, 7 if i % 20 == 19 else 1 + i % 6, range(1, 10))
            small_start += x.leading_support()[0] <= 2
            check_dp(x)
        assert small_start >= 100

    def test_best_sums_of_the_witness_equal_the_recursion(self):
        # the witness reads best sums from the DP's tables inside their
        # fill window; every (s, j, n), in it or not, against the plain
        # recursion over the norm table, also where pos[0] > 1 narrows it
        rng = random.Random(17)
        narrowed = 0
        for i in range(120):
            start = 1 + i % 6
            x = rational_vec(rng, 2 + i % 8, range(start, start + 12))
            dp = _TsirelsonWitness(x)
            memo = {}

            def recursion(s, j, n):
                if n == 1:
                    return dp.table[s][j]
                if (s, j, n) not in memo:
                    memo[s, j, n] = max(
                        dp.table[s][t] + recursion(t + 1, j, n - 1) for t in range(s, j - n + 2)
                    )
                return memo[s, j, n]

            m = len(dp.pos)
            for j in range(m):
                for s in range(j + 1):
                    for n in range(1, j - s + 2):
                        assert dp.best_sum(s, j, n) == recursion(s, j, n), (x, s, j, n)
                        narrowed += 2 < min(dp.pos[0] - s, j - s + 1)
        assert narrowed >= 100

    def test_long_support_is_iterative(self):
        # with min(E_1) >= the support size every family is admissible, so
        # the norm is max(max |x_i|, sum |x_i| / 2)
        x = SparseVec({(p,): F(p % 7 - 3 or 1, 1 + p % 4) for p in range(600, 1200)})
        mags = [abs(v) for _, v in x.items()]
        assert tsirelson_norm(x) == max(max(mags), sum(mags) / 2)


class TestIntegerSimplex:
    def test_integer_inverse(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(1, 6)
            matrix = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            try:
                rational = _invert([[F(v) for v in row] for row in matrix])
            except SimplexError:  # singular
                continue
            adj, det = _integer_inverse(matrix)
            assert det > 0
            assert [[F(v, det) for v in row] for row in adj] == rational
            assert all(
                sum(a * b for a, b in zip(row, col)) == (det if i == j else 0)
                for i, row in enumerate(adj)
                for j, col in enumerate(zip(*matrix))
            )

    def test_reference_solver_small(self):
        # max y1 + y2 subject to y1 <= 1, y2 <= 1 and y1 + y2 <= 3/2
        rows = [[F(1), F(0)], [F(0), F(1)], [F(2, 3), F(2, 3)]]
        assert maximize_over_unit_polytope([F(1), F(1)], rows) == F(3, 2)

    def test_scaled_columns_keep_the_optimum(self):
        # the same LP with its third column given as two integer scalings
        results = []
        for scale in (1, 2):
            sx = StandardFormSimplex([F(3, 2), F(-1, 3)])
            sx.add_column([1, 0], 1)
            sx.add_column([0, -1], 1)
            sx.add_column([scale, -scale], scale)
            sx.set_basis([0, 1])
            results.append((sx.solve(), sx.duals()))
        assert results[0] == results[1] == (F(3, 2), [F(1), F(0)])

    def test_certificates_close(self):
        rng = random.Random(43)
        for i in range(200):
            x = rational_vec(rng, 1 + i % 9, range(1, 14))
            result = dual_norm(x)
            assert decomposition_weight(x, result) == result.value
            assert tsirelson_norm(result.witness) <= 1
            assert inner_product(x, result.witness) == result.value

    def test_every_class_of_two_or_more_points_is_warm(self, monkeypatch):
        # the pool starts the LP of each class of two or more points from
        # +e_{R[0]} and the certificate of R minus its first point, R the
        # canonical position set of the class
        lp = dual.dual_norm
        warm = []

        def counted(x, caps=None, *, start=()):
            if start:
                warm.append(len(start))
            return lp(x, caps, start=start)

        monkeypatch.setattr(dual, "dual_norm", counted)
        pooled = dual01_pool(Caps())
        for subset in nonempty_subsets(tuple(range(1, 9))):
            pooled(subset)
        # one LP per class, every class of two or more points warm
        subsets = nonempty_subsets(tuple(range(1, 9)))
        classes = {canonical_positions(subset, Caps()) for subset in subsets}
        assert len(warm) == len(classes) - 1 == 29 and max(warm) == 8

    @pytest.mark.parametrize(
        "support",
        [(1, 2, 3), (2, 3, 4), (1, 2, 3, 4), (1, 3, 5, 6), (1, 2, 4, 7)],
    )
    def test_reference_lp(self, support):
        # support 5 is covered in test_dual; the reference is exponential
        rng = random.Random(sum(support))
        for _ in range(3):
            x = rational_vec(rng, len(support), support)
            assert dual_norm(x).value == dual_norm_reference(x)


# input, (T value, witness coefficients, depth), (T* value, witness y,
# LP basis functionals in row order); inputs are all-ones vectors on
# 1..k for k <= 10 and seeded rationals with support <= 10
PINS = [
    ('1:1',
     ('1', '1:1', 0),
     ('1', '1:1',
      [('1:1', 0)])),
    ('1:1,2:1',
     ('1', '1:1', 0),
     ('2', '1:1,2:1',
      [('1:1', 0), ('2:1', 0)])),
    ('1:1,2:1,3:1',
     ('1', '1:1', 0),
     ('3', '1:1,2:1,3:1',
      [('1:1', 0), ('2:1', 0), ('3:1', 0)])),
    ('1:1,2:1,3:1,4:1',
     ('1', '1:1', 0),
     ('4', '1:1,2:1,3:1,4:1',
      [('1:1', 0), ('2:1', 0), ('3:1', 0), ('4:1', 0)])),
    ('1:1,2:1,3:1,4:1,5:1',
     ('3/2', '3:1/2,4:1/2,5:1/2', 1),
     ('4', '1:1,2:1,4:1,5:1',
      [('1:1', 0), ('2:1', 0), ('3:1/2,4:1/2,5:1/2', 1), ('4:1', 0), ('5:1', 0)])),
    ('1:1,2:1,3:1,4:1,5:1,6:1',
     ('3/2', '3:1/2,4:1/2,5:1/2', 1),
     ('14/3', '1:1,2:1,3:2/3,4:2/3,5:2/3,6:2/3',
      [('1:1', 0), ('2:1', 0), ('3:1/2,4:1/2,5:1/2', 1), ('4:1/2,5:1/2,6:1/2', 1), ('3:1/2,5:1/2,6:1/2', 1), ('3:1/2,4:1/2,6:1/2', 1)])),
    ('1:1,2:1,3:1,4:1,5:1,6:1,7:1',
     ('2', '4:1/2,5:1/2,6:1/2,7:1/2', 1),
     ('24/5', '1:1,2:1,3:4/5,4:2/5,5:4/5,6:2/5,7:2/5',
      [('1:1', 0), ('2:1', 0), ('3:1/2,4:1/2,5:1/4,6:1/4,7:1/4', 2), ('4:1/2,5:1/2,6:1/2,7:1/2', 1), ('3:1/2,5:1/2,6:1/2', 1), ('3:1/2,4:1/4,5:1/4,6:1/4,7:1/2', 2), ('3:1/2,5:1/2,7:1/2', 1)])),
    ('1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1',
     ('2', '3:1/2,4:1/2,5:1/4,6:1/4,7:1/4,8:1/4', 2),
     ('5', '1:1,2:1,3:3/5,4:2/5,5:4/5,6:2/5,7:2/5,8:2/5',
      [('1:1', 0), ('2:1', 0), ('3:1/2,4:1/2,5:1/4,6:1/4,7:1/4,8:1/4', 2), ('4:1/2,5:1/2,7:1/2,8:1/2', 1), ('5:1/2,6:1/2,7:1/2,8:1/2', 1), ('3:1/2,4:1/4,5:1/4,6:1/4,7:1/4,8:1/2', 2), ('3:1/2,5:1/2,6:1/4,7:1/4,8:1/4', 2), ('4:1/2,5:1/2,6:1/2,8:1/2', 1)])),
    ('1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1,9:1',
     ('5/2', '5:1/2,6:1/2,7:1/2,8:1/2,9:1/2', 1),
     ('5', '1:1,2:1,3:3/5,4:2/5,5:4/5,6:1/5,7:1/5,8:3/5,9:1/5',
      [('1:1', 0), ('2:1', 0), ('3:1/2,5:1/2,8:1/2', 1), ('4:1/2,5:1/2,8:1/2,9:1/2', 1), ('5:1/2,6:1/2,7:1/2,8:1/2,9:1/2', 1), ('4:1/2,5:1/2,7:1/2,8:1/2', 1), ('4:1/2,5:1/2,6:1/2,8:1/2', 1), ('3:1/2,5:1/2,6:1/4,7:1/4,8:1/4,9:1/4', 2), ('3:1/2,4:1/2,5:1/4,6:1/4,7:1/4,8:1/4,9:1/4', 2)])),
    ('1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1,9:1,10:1',
     ('5/2', '4:1/2,5:1/2,6:1/2,7:1/4,8:1/4,9:1/4,10:1/4', 2),
     ('27/5', '1:1,2:1,3:3/5,4:2/5,5:2/5,6:2/5,7:2/5,8:2/5,9:2/5,10:2/5',
      [('1:1', 0), ('2:1', 0), ('3:1/2,4:1/2,5:1/4,6:1/4,7:1/4,8:1/4,10:1/4', 2), ('5:1/2,6:1/2,7:1/2,8:1/2,9:1/2', 1), ('3:1/2,4:1/2,5:1/4,6:1/4,7:1/4,8:1/4,9:1/4', 2), ('6:1/2,7:1/2,8:1/2,9:1/2,10:1/2', 1), ('3:1/2,4:1/2,5:1/4,6:1/4,7:1/4,9:1/4,10:1/4', 2), ('5:1/2,7:1/2,8:1/2,9:1/2,10:1/2', 1), ('4:1/2,5:1/2,6:1/2,7:1/4,8:1/4,9:1/4,10:1/4', 2), ('5:1/2,6:1/2,8:1/2,9:1/2,10:1/2', 1)])),
    ('9:-6/5',
     ('6/5', '9:-1', 0),
     ('6/5', '9:-1',
      [('9:-1', 0)])),
    ('4:-5/6,6:4/5',
     ('5/6', '4:-1', 0),
     ('49/30', '4:-1,6:1',
      [('4:-1', 0), ('6:1', 0)])),
    ('3:-2,8:3,10:1/5',
     ('3', '8:1', 0),
     ('5', '3:-1,8:1',
      [('3:-1', 0), ('8:1', 0), ('3:-1/2,8:1/2,10:1/2', 1)])),
    ('3:4/3,6:-2,7:5/4,11:4',
     ('4', '11:1', 0),
     ('151/24', '3:1/2,6:-1/2,7:1/2,11:1',
      [('3:1/2,6:-1/2,11:1/2', 1), ('6:-1/2,7:1/2,11:1/2', 1), ('3:1/2,7:1/2,11:1/2', 1), ('11:1', 0)])),
    ('2:-1,4:-4/5,6:-2,7:2/3,10:-1/5',
     ('2', '6:-1', 0),
     ('19/5', '2:-1,4:-1,6:-1',
      [('2:-1', 0), ('4:-1', 0), ('6:-1', 0), ('4:-1/2,6:-1/2,7:1/2,10:1/2', 1), ('4:-1/2,6:-1/2,7:1/2,10:-1/2', 1)])),
    ('1:-1/2,5:4/3,7:4,9:1,10:2,11:-1/5',
     ('64/15', '5:1/2,7:1/2,9:1/2,10:1/2,11:-1/2', 1),
     ('13/2', '1:-1,7:1,10:1',
      [('1:-1', 0), ('5:1/2,7:1/2,10:1/2,11:1/2', 1), ('7:1', 0), ('5:-1/2,7:1/2,9:1/2,10:1/2,11:1/2', 1), ('10:1', 0), ('5:1/2,7:1/2,9:1/2,10:1/2,11:-1/2', 1)])),
    ('1:3/2,2:1/3,5:5/4,7:-1/2,8:-1,9:2/3,11:1/5',
     ('217/120', '5:1/2,7:-1/2,8:-1/2,9:1/2,11:1/2', 1),
     ('49/12', '1:1,2:1,5:1,8:-1',
      [('1:1', 0), ('2:1', 0), ('5:1', 0), ('5:1/2,7:-1/2,8:-1/2,9:-1/2,11:-1/2', 1), ('8:-1', 0), ('5:1/2,8:-1/2,9:1/2,11:-1/2', 1), ('5:1/2,7:-1/2,8:-1/2,9:1/2,11:1/2', 1)])),
    ('4:1,5:1/6,6:-3,7:-1/6,9:-1,10:-1,11:-5,12:-2',
     ('73/12', '6:-1/2,7:-1/2,9:-1/2,10:-1/2,11:-1/2,12:-1/2', 1),
     ('8', '6:-1,11:-1',
      [('4:1/2,5:-1/2,6:-1/2,11:-1/2', 1), ('4:1/2,5:1/2,6:-1/2,11:-1/2', 1), ('6:-1', 0), ('6:-1/2,7:-1/2,9:-1/2,10:-1/2,11:-1/2,12:-1/2', 1), ('6:-1/2,7:1/2,9:-1/2,10:1/2,11:-1/2,12:-1/2', 1), ('6:-1/2,7:1/2,9:1/2,10:-1/2,11:-1/2,12:-1/2', 1), ('11:-1', 0), ('6:-1/2,7:-1/2,9:1/2,10:1/2,11:-1/2,12:-1/2', 1)])),
    ('1:-3,2:-1/2,4:2/3,5:1/2,7:3/2,8:3/2,9:-2,11:5,12:-4/5',
     ('27/5', '7:1/2,8:1/2,9:-1/2,11:1/2,12:-1/2', 1),
     ('21/2', '1:-1,2:-1,9:-1,11:1',
      [('1:-1', 0), ('2:-1', 0), ('5:-1/2,7:1/2,8:1/2,9:-1/2,11:1/2', 1), ('4:1/2,8:1/2,9:-1/2,11:1/2', 1), ('5:1/2,7:1/2,8:1/2,9:-1/2,11:1/2', 1), ('5:1/2,8:1/2,9:-1/2,11:1/2,12:-1/2', 1), ('4:1/2,7:1/2,9:-1/2,11:1/2', 1), ('11:1', 0), ('7:1/2,8:1/2,9:-1/2,11:1/2,12:-1/2', 1)])),
    ('1:-1/4,2:1/5,4:1/6,5:2,7:1,8:5/6,9:-2,10:-5,11:-2,12:-1/4',
     ('6', '5:1/2,7:1/2,9:-1/2,10:-1/2,11:-1/2', 1),
     ('2707/360', '1:-1,2:1,4:1/3,5:1/3,7:1/6,8:1/6,9:-1/3,10:-1,11:-1/6,12:-1/6',
      [('1:-1', 0), ('2:1', 0), ('4:1/2,5:1/2,9:-1/2,10:-1/2', 1), ('4:1/2,5:1/2,7:1/4,8:1/4,9:-1/4,10:-1/2', 2), ('5:1/2,7:1/2,9:-1/2,10:-1/2,11:-1/2', 1), ('5:1/2,8:1/2,9:-1/2,10:-1/2,11:-1/2', 1), ('5:1/2,9:-1/2,10:-1/2,11:-1/2,12:-1/2', 1), ('10:-1', 0), ('4:1/2,5:1/4,7:1/4,8:1/4,9:-1/4,10:-1/2,11:-1/2', 2), ('7:1/2,8:1/2,9:-1/2,10:-1/2,11:-1/2,12:-1/2', 1)])),
    ('4:-3/2',
     ('3/2', '4:-1', 0),
     ('3/2', '4:-1',
      [('4:-1', 0)])),
    ('3:-3/2,12:-6/5',
     ('3/2', '3:-1', 0),
     ('27/10', '3:-1,12:-1',
      [('3:-1', 0), ('12:-1', 0)])),
    ('3:1/6,8:-2/3,12:1',
     ('1', '12:1', 0),
     ('5/3', '8:-1,12:1',
      [('3:1/2,8:-1/2,12:1/2', 1), ('8:-1', 0), ('12:1', 0)])),
    ('3:-3/5,6:-4/5,7:-2,11:-6/5',
     ('2', '7:-1', 0),
     ('33/10', '3:-1/2,6:-1/2,7:-1,11:-1/2',
      [('3:-1/2,6:-1/2,7:-1/2', 1), ('6:-1/2,7:-1/2,11:-1/2', 1), ('7:-1', 0), ('3:-1/2,7:-1/2,11:-1/2', 1)])),
    ('2:-3/2,3:2/3,5:1/4,6:4,12:2',
     ('4', '6:1', 0),
     ('15/2', '2:-1,6:1,12:1',
      [('2:-1', 0), ('3:1/2,6:1/2,12:1/2', 1), ('5:1/2,6:1/2,12:1/2', 1), ('6:1', 0), ('12:1', 0)])),
    ('1:-1,4:1/4,6:5/6,7:5/6,8:3/4,10:5/4',
     ('11/6', '6:1/2,7:1/2,8:1/2,10:1/2', 1),
     ('113/36', '1:-1,4:1/3,6:1/3,7:1/3,8:1/3,10:1',
      [('1:-1', 0), ('4:1/2,6:1/2,7:1/2,10:1/2', 1), ('6:1/2,7:1/2,8:1/2,10:1/2', 1), ('4:1/2,7:1/2,8:1/2,10:1/2', 1), ('4:1/2,6:1/2,8:1/2,10:1/2', 1), ('10:1', 0)])),
    ('3:-6,5:1/2,6:1/4,7:3/2,8:-5/3,9:3/5,11:3/2',
     ('6', '3:-1', 0),
     ('25/3', '3:-1,7:1/2,8:-1/2,11:1/2',
      [('3:-1', 0), ('3:-1/2,5:1/4,6:1/4,7:1/4,8:-1/4,9:1/4,11:1/2', 2), ('3:-1/2,5:1/4,6:1/4,7:1/4,8:-1/4,9:-1/4,11:1/2', 2), ('3:-1/2,7:1/2,8:-1/2', 1), ('3:-1/2,8:-1/2,11:1/2', 1), ('3:-1/2,6:1/4,7:1/4,8:-1/4,9:1/4,11:1/2', 2), ('3:-1/2,5:1/4,6:-1/4,7:1/4,8:-1/4,9:1/4,11:1/2', 2)])),
    ('2:4,4:-1/2,5:1/2,6:-5/2,7:-1/5,9:-1/5,10:2,11:-5/2',
     ('4', '2:1', 0),
     ('9', '2:1,6:-1,11:-1',
      [('2:1', 0), ('5:-1/2,6:-1/2,9:1/2,10:1/2,11:-1/2', 1), ('5:1/2,6:-1/2,7:1/2,9:1/2,11:-1/2', 1), ('4:-1/2,6:-1/2,11:-1/2', 1), ('4:-1/2,6:-1/2,10:1/2,11:-1/2', 1), ('6:-1/2,7:1/2,9:-1/2,10:1/2,11:-1/2', 1), ('5:1/2,6:-1/2,7:-1/2,10:1/2,11:-1/2', 1), ('11:-1', 0)])),
    ('1:1/4,2:1/3,3:2/3,5:1,6:5/2,7:1/5,8:5/2,10:1/2,11:2',
     ('17/4', '5:1/2,6:1/2,8:1/2,10:1/2,11:1/2', 1),
     ('205/36', '1:1,2:1,3:2/3,6:2/3,8:2/3,11:2/3',
      [('1:1', 0), ('2:1', 0), ('3:1/2,6:1/2,8:1/2', 1), ('5:1/2,6:1/2,7:1/2,8:1/2,11:1/2', 1), ('5:-1/2,6:1/2,8:1/2,10:1/2,11:1/2', 1), ('5:1/2,6:1/2,8:1/2,10:1/2,11:1/2', 1), ('3:1/2,8:1/2,11:1/2', 1), ('5:1/2,6:1/2,7:-1/2,8:1/2,11:1/2', 1), ('3:1/2,6:1/2,11:1/2', 1)])),
    ('1:5,2:5/2,3:3/4,4:1,6:-2,7:1/6,8:1/2,9:-3/2,10:1,11:-1',
     ('5', '1:1', 0),
     ('91/8', '1:1,2:1,3:1/2,4:1/4,6:-1,9:-1/2,10:1/4,11:-1/4',
      [('1:1', 0), ('2:1', 0), ('3:1/2,6:-1/2,7:1/4,8:1/4,9:-1/4,10:1/4,11:-1/4', 2), ('3:1/2,6:-1/2,7:1/4,9:-1/4,10:1/4,11:-1/4', 2), ('4:1/2,6:-1/2,9:-1/2,11:-1/2', 1), ('6:-1/2,7:1/2,8:1/2,9:-1/2,10:1/2,11:-1/2', 1), ('4:1/2,6:-1/2,9:-1/2,10:1/2', 1), ('3:1/2,6:-1/2,9:-1/2', 1), ('6:-1', 0), ('3:1/2,6:-1/2,8:1/4,9:-1/4,10:1/4,11:-1/4', 2)])),
    ('8:-2',
     ('2', '8:-1', 0),
     ('2', '8:-1',
      [('8:-1', 0)])),
    ('3:3/5,10:-6',
     ('6', '10:-1', 0),
     ('33/5', '3:1,10:-1',
      [('3:1', 0), ('10:-1', 0)])),
    ('1:2/5,4:1,10:3/5',
     ('1', '4:1', 0),
     ('2', '1:1,4:1,10:1',
      [('1:1', 0), ('4:1', 0), ('10:1', 0)])),
    ('2:1,3:-5/4,8:5,9:1',
     ('5', '8:1', 0),
     ('29/4', '2:1,3:-1,8:1',
      [('2:1', 0), ('3:-1', 0), ('8:1', 0), ('3:-1/2,8:1/2,9:1/2', 1)])),
    ('1:-1/2,2:1/3,4:-3,9:1/2,11:1/3',
     ('3', '4:-1', 0),
     ('13/3', '1:-1,2:1,4:-1,9:1',
      [('1:-1', 0), ('2:1', 0), ('4:-1', 0), ('9:1', 0), ('4:-1/2,9:1/2,11:1/2', 1)])),
    ('1:2/5,2:5/2,7:-6/5,8:2,9:4/5,10:-1',
     ('5/2', '2:1', 0),
     ('61/10', '1:1,2:1,7:-1,8:1',
      [('1:1', 0), ('2:1', 0), ('7:-1', 0), ('8:1', 0), ('7:-1/2,8:1/2,9:1/2,10:-1/2', 1), ('7:-1/2,8:1/2,9:-1/2,10:-1/2', 1)])),
    ('2:-1,5:1,6:-1/2,8:3,9:-3/4,10:3/4,12:-4/5',
     ('63/20', '5:1/2,8:1/2,9:-1/2,10:1/2,12:-1/2', 1),
     ('5', '2:-1,5:1,8:1',
      [('2:-1', 0), ('5:1/2,6:-1/2,8:1/2,10:1/2,12:-1/2', 1), ('5:1/2,6:-1/2,8:1/2,9:-1/2,10:1/2', 1), ('8:1', 0), ('5:1/2,6:-1/2,8:1/2,9:-1/2,12:-1/2', 1), ('5:1/2,6:1/2,8:1/2,10:1/2,12:-1/2', 1), ('5:1/2,8:1/2,9:-1/2,10:1/2,12:-1/2', 1)])),
    ('1:1/2,2:5/2,4:-1/4,5:-5/6,6:3/2,8:1/3,9:4/5,10:-2/5',
     ('5/2', '2:1', 0),
     ('16/3', '1:1,2:1,5:-1,6:1',
      [('1:1', 0), ('2:1', 0), ('4:-1/2,5:-1/2,6:1/2,9:1/2', 1), ('5:-1/2,6:1/2,9:1/2,10:1/2', 1), ('6:1', 0), ('5:-1/2,6:1/2,8:1/2,9:1/2,10:-1/2', 1), ('5:-1/2,6:1/2,8:-1/2,9:1/2,10:-1/2', 1), ('4:-1/2,5:-1/2,6:1/2,8:-1/2', 1)])),
    ('1:-1/2,3:1,4:-1/2,5:3,6:6,7:1,8:-1,9:-2/3,10:1/2',
     ('6', '6:1', 0),
     ('19/2', '1:-1,5:1,6:1',
      [('1:-1', 0), ('5:1/2,6:1/2,7:1/2,8:-1/2,10:1/2', 1), ('4:-1/2,5:1/2,6:1/2,7:1/4,8:-1/4,9:-1/4,10:1/4', 2), ('3:1/2,5:1/2,6:1/2', 1), ('6:1', 0), ('5:1/2,6:1/2,7:1/2,9:1/2,10:-1/2', 1), ('5:1/2,6:1/2,8:-1/2,9:1/2,10:1/2', 1), ('4:1/2,5:1/2,6:1/2,7:1/4,8:-1/4,9:-1/4,10:-1/4', 2), ('5:1/2,6:1/2,7:1/2,8:1/2,10:1/2', 1)])),
    ('2:-1/2,3:3/2,4:1/6,5:1/3,6:1,7:-3,8:6/5,9:4/5,10:-2/3,11:-1/3',
     ('7/2', '6:1/2,7:-1/2,8:1/2,9:1/2,10:-1/2,11:-1/2', 1),
     ('1001/180', '2:-1,3:2/3,4:1/6,5:1/6,6:1/3,7:-1,8:1/3,9:1/6,10:-1/6',
      [('2:-1', 0), ('5:1/2,6:1/2,7:-1/2,8:1/2,9:1/2', 1), ('5:1/2,6:1/2,7:-1/2,8:1/2,10:-1/2', 1), ('3:1/2,4:1/4,5:1/4,6:1/4,7:-1/2', 2), ('3:1/2,6:1/2,7:-1/2', 1), ('7:-1', 0), ('3:1/2,7:-1/2,8:1/4,9:1/4,10:-1/4', 2), ('6:1/2,7:-1/2,8:1/2,9:1/2,10:-1/2,11:1/2', 1), ('3:1/2,7:-1/2,8:1/2', 1), ('6:1/2,7:-1/2,8:1/2,9:1/2,10:-1/2,11:-1/2', 1)])),
]


def _pairs(text):
    if not text:
        return []
    return [(int(p), F(c)) for p, c in (term.split(":") for term in text.split(","))]


@pytest.mark.parametrize("pin", PINS, ids=range(len(PINS)))
def test_pinned_outputs(pin):
    text, (t_value, t_coeffs, t_depth), (d_value, d_witness, d_certificate) = pin
    x = parse_vector(text)
    value, coeffs, depth = tsirelson_norm_witness(x)
    assert (value, list(coeffs.items()), depth) == (F(t_value), _pairs(t_coeffs), t_depth)
    result = dual_norm(x)
    assert result.value == F(d_value)
    assert format_vector(result.witness) == d_witness
    assert [(format_vector(f.coefficients), f.depth) for f in result.certificate] == d_certificate
