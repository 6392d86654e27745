"""The dual Tsirelson norm as an exact linear program.

For x supported in S, the dual norm is the maximum of <x, y> over the
polytope {y : f(y) <= 1 for all f in ±K_S}, K_S the norming set.  K_S is
far too large to enumerate near the support cap, so the LP is solved in
its decomposition form

    minimize sum(t)  subject to  sum_f t_f f = x,  t >= 0,

with columns generated on demand: the separation oracle for the dual
vector y of the restricted program is the Tsirelson-norm DP itself,
which either certifies ||y||_T <= 1 (optimality: y is a feasible point
of the polytope attaining the restricted optimum) or produces a norming
functional with f(y) > 1 to enter as a fresh column.  A functional of
depth k has coefficients +-2^-i with i <= k, so it enters the integer
simplex as the column 2^k f with cost 2^k.  Both the value and the
witness come out exactly rational.

Columns.  Every column is a norming functional: the starting basis e_p
signed like x_p, each seed and each separation witness.  Each enters
together with its negation, f first and then -f, so column 2i is the
i-th functional entered and column 2i + 1 its negation: the e_p in the
order of supp x, then the seeds, then the witnesses.  A functional f of
depth k enters as the integer column 2^k f with cost 2^k.  The
certificate is the basis columns as `Functional`s, in the form `seeds`
takes them; the e_p and the negations are built as objects only there.

Seeds.  Any functional of the norming set K supported in supp x is a
valid column, and extra valid columns never move the optimum: the loop
still stops only when the DP certifies the dual vector.  `seeds` enter
right after the e_p, so a caller that knows good columns (a basis found
for a smaller support: K is closed under restriction) saves rounds.
Seeds change the pivots, hence possibly the witness and the
certificate, never the value; with no seeds the run is the cold one.

Warm start.  `start` replaces the e_p starting basis with a known
feasible one, given like `LPResult.basis`: column indices in the order
above and the integer inverse (N, d) of those columns.  It changes the
pivots, never the value.

The 0/1 pool.  `dual01_pool` gives ||1_S|| for position sets S, each LP
solved once, seeded with the certificates of the subsets S - {p} and
started from the basis of S minus its first point.  The verifiers'
block-family scans solve thousands of these nested LPs through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .caps import Caps, get_caps
from .errors import InputError
from .norms import Functional, NormEngine, tsirelson_norm_witness
from .simplex import SimplexError, StandardFormSimplex
from .vectors import SparseVec, inner_product

ONE = Fraction(1)
MAX_ROUNDS = 100000  # column-generation rounds of one LP


@dataclass(frozen=True)
class LPResult:
    value: Fraction
    witness: SparseVec  # optimal y with ||y||_T <= 1 and <x, y> = value
    certificate: tuple[Functional, ...]  # active constraints (LP basis)
    # (column indices, (N, d)) of the certificate, as `start` takes it
    basis: tuple = field(default=((), ((), 1)), compare=False, repr=False)


def dual_norm(
    x: SparseVec,
    caps: Optional[Caps] = None,
    seeds: Iterable[Functional] = (),
    *,
    start: Optional[tuple] = None,
) -> LPResult:
    """The dual norm of x with an optimal witness and the basis
    functionals.  Each seed is a norming functional supported in supp x;
    `start` is a feasible basis (indices, (N, d)) over the e_p and the
    seeds."""
    caps = caps or get_caps()
    if x and x.depth != 1:
        raise InputError("the dual norm is defined on depth-1 vectors")
    if not x:
        return LPResult(Fraction(0), SparseVec(), ())
    positions = x.leading_support()
    n = len(positions)
    caps.check("dual", n)
    row_of = {p: i for i, p in enumerate(positions)}
    coords = [x[(p,)] for p in positions]
    signs = [1 if v >= 0 else -1 for v in coords]

    sx = StandardFormSimplex(coords)
    columns: list[Functional] = []  # column 2(n + i) is columns[i], 2(n + i) + 1 its negation

    def enter(column: list[int], cost: int) -> None:
        sx.add_column(column, cost, integral=True)
        sx.add_column([-v for v in column], cost, integral=True)

    def add(f: Functional) -> None:
        column = [0] * n
        for p, c in f.scaled_terms:
            column[row_of[p]] = c
        columns.append(f)
        enter(column, 1 << f.depth)

    for i, sign in enumerate(signs):
        enter([sign if r == i else 0 for r in range(n)], 1)
    for f in seeds:
        add(f)
    if start is None:
        sx.set_basis(list(range(0, 2 * n, 2)))
    else:
        sx.set_basis(*start)

    for _ in range(MAX_ROUNDS):
        value = sx.solve()
        y = SparseVec._clean({(p,): d for p, d in zip(positions, sx.duals()) if d}, 1)
        t_norm, f_star, depth = tsirelson_norm_witness(y)
        if t_norm <= 1:
            break
        add(Functional(SparseVec._clean({(p,): c for p, c in f_star.items()}, 1), depth))
    else:
        raise SimplexError("column generation failed to converge")

    if inner_product(x, y) != value:
        raise SimplexError("duality certificate failed")

    def functional(j: int) -> Functional:
        """Column j, built as a `Functional` only for the certificate."""
        i = j >> 1
        if i < n:
            f = Functional(SparseVec._clean({(positions[i],): Fraction(signs[i])}, 1), 0)
        else:
            f = columns[i - n]
        return -f if j & 1 else f

    certificate = tuple(map(functional, sx.basis))
    inverse = (tuple(map(tuple, sx.binv)), sx.d)
    return LPResult(value, y, certificate, (tuple(sx.basis), inverse))


def dual01_pool(caps: Caps, low: int = 1) -> Callable[[tuple], Fraction]:
    """||1_S|| in the dual norm for sorted position tuples S, each LP
    solved once; `low` is the lowest position the sets hold.

    The LP of S is seeded with the certificates of its one-point-smaller
    subsets S - {p}, solved first through the same memo.  K is closed
    under restriction, so these are valid columns for S; they leave the
    value as it is and save most of the rounds.  A functional is pooled
    once, under the sign that makes its first coefficient positive
    (`dual_norm` enters both signs), and seeds go in the order the pool
    first met them.  The depth-0 columns +-e_p are not seeds: every LP
    enters them first.

    The LP of S then starts from the optimal basis of rest = S - {S[0]}
    plus +e_{S[0]}, which is feasible for S: its basic solution is the
    one of rest with 1 on S[0].  Its integer inverse is the one of rest
    with a zero row and column for S[0] and the determinant d of rest on
    their diagonal, so the pool keeps (N, d) for every set that can be a
    rest, those whose first point is above `low`.  A set below `low` may
    still be asked for; its LP then starts from the e_p."""
    return _Dual01Pool(caps, low)


class _Dual01Pool:
    """The memo behind `dual01_pool`.  It is an object rather than a
    self-recursive closure, which would be a reference cycle that keeps
    the memo alive after its last use, until the next cyclic collection.

    The memo keeps each value with its basis, one int per column: ~j for
    the e_p column j (column j + 2 once S[0] is prepended), 2r + s for
    pooled functional r, negated if s = 1."""

    def __init__(self, caps: Caps, low: int):
        self.caps = caps
        self.low = low
        self.memo: dict[tuple, tuple] = {}  # S -> (value, basis, (N, d) or None)
        self.rank: dict[Functional, int] = {}  # sign-normalised functional -> discovery rank
        self.pooled: list[Functional] = []  # by rank

    def __call__(self, subset: tuple) -> Fraction:
        return (self.memo.get(subset) or self.solve(subset))[0]

    def solve(self, subset: tuple) -> tuple[Fraction, tuple[int, ...], Optional[tuple]]:
        memo, pooled = self.memo, self.pooled
        entry = memo.get(subset)
        if entry is not None:
            return entry
        n = len(subset)
        ranks: set[int] = set()
        for i in range(n if n > 1 else 0):
            ranks.update(c >> 1 for c in self.solve(subset[:i] + subset[i + 1:])[1] if c >= 0)
        seeds = sorted(ranks)
        m = n + len(seeds)
        start = None
        if n > 1:
            _, rest_basis, rest_inverse = memo[subset[1:]]  # solved first, at i = 0
            if rest_inverse is not None:
                seed_at = {r: k for k, r in enumerate(seeds)}
                indices = [0] + [
                    ~c + 2 if c < 0 else 2 * (n + seed_at[c >> 1]) + (c & 1)
                    for c in rest_basis
                ]
                rows, d = rest_inverse
                head = (d,) + (0,) * len(rows)
                start = (indices, ((head, *((0, *row) for row in rows)), d))
        # the module global, so that a wrapper set on dual.dual_norm sees every LP
        result = dual_norm(
            SparseVec({(p,): ONE for p in subset}),
            self.caps,
            [pooled[r] for r in seeds],
            start=start,
        )
        indices, inverse = result.basis
        basis = []
        for j, f in zip(indices, result.certificate):
            if j < 2 * n:
                basis.append(~j)
            elif j < 2 * m:
                basis.append(2 * seeds[(j >> 1) - n] + (j & 1))
            else:
                negated = min(f.coefficients.items())[1] < 0
                if negated:
                    f = -f
                r = self.rank.setdefault(f, len(pooled))
                if r == len(pooled):
                    pooled.append(f)
                basis.append(2 * r + negated)
        entry = memo[subset] = (
            result.value, tuple(basis), inverse if subset[0] > self.low else None
        )
        return entry


def verify_duality(x: SparseVec, y: SparseVec, caps: Optional[Caps] = None) -> bool:
    """Exact check of <x, y> <= ||x||_T* ||y||_T."""
    from .spaces import Tsirelson

    caps = caps or get_caps()
    pairing = inner_product(x, y)
    bound = dual_norm(x, caps).value * NormEngine(Tsirelson(), caps).norm(y)
    return pairing <= bound
