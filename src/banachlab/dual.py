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
signed like x_p, each deeper functional of `start` and each separation
witness.  Each enters together with its negation, f first and then -f,
so column 2i is the i-th functional entered and column 2i + 1 its
negation: the e_p in the order of supp x, then the start, then the
witnesses.  A functional f of depth k enters as the integer column 2^k f
with cost 2^k.  The certificate is the basis columns as `Functional`s,
in the form `start` takes them; the e_p and the negations are built as
objects only there.

Warm start.  `start` replaces the e_p starting basis with a known
feasible one: one norming functional supported in supp x per point, as
`LPResult.certificate` gives them.  A depth-0 one, +-e_p, is the column
of e_p or of its negation; each deeper one enters as a column.  The
inverse is computed as for the cold start.  A warm start changes the
pivots, never the value: the loop still stops only when the DP
certifies the dual vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .caps import Caps, get_caps
from .classes import canonical_positions
from .errors import InputError
from .norms import Functional, tsirelson_norm_witness
from .simplex import SimplexError, StandardFormSimplex
from .vectors import SparseVec, inner_product, unit

ONE = Fraction(1)
MAX_ROUNDS = 100000  # column-generation rounds of one LP


@dataclass(frozen=True)
class LPResult:
    value: Fraction
    witness: SparseVec  # optimal y with ||y||_T <= 1 and <x, y> = value
    certificate: tuple[Functional, ...]  # active constraints (LP basis)


def dual_norm(
    x: SparseVec,
    caps: Optional[Caps] = None,
    *,
    start: Sequence[Functional] = (),
) -> LPResult:
    """The dual norm of x with an optimal witness and the basis
    functionals.  `start` is a feasible basis of norming functionals
    supported in supp x, one per point; without it the LP starts cold
    from the e_p."""
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
        sx.add_column(column, cost)
        sx.add_column([-v for v in column], cost)

    def add(f: Functional) -> None:
        column = [0] * n
        for p, c in f.scaled_terms:
            column[row_of[p]] = c
        columns.append(f)
        enter(column, 1 << f.depth)

    for i, sign in enumerate(signs):
        enter([sign if r == i else 0 for r in range(n)], 1)
    basis = [] if start else list(range(0, 2 * n, 2))
    for f in start:
        if f.depth:
            basis.append(2 * (n + len(columns)))
            add(f)
        else:
            ((p, c),) = f.scaled_terms
            i = row_of[p]
            basis.append(2 * i + (c != signs[i]))
    sx.set_basis(basis)

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

    return LPResult(value, y, tuple(map(functional, sx.basis)))


def dual01_pool(caps: Caps) -> Callable[[tuple], Fraction]:
    """||1_S|| in the dual norm for sorted position tuples S, one LP per
    class of S at slack 0 (`classes`), as the LPs of a class are one program.
    Each class is solved once, on R = `canonical_positions(S, caps)`, in any
    query order, from +e_{r_0} and the stored certificate of rep(S[1:]) =
    R[1:]: a feasible basis, with the basic solution of R[1:] and 1 on r_0."""
    return _Dual01Pool(caps)


class _Dual01Pool:
    """The memo behind `dual01_pool`.  It is an object rather than a
    self-recursive closure, which would be a reference cycle that keeps
    the memo alive after its last use, until the next cyclic collection."""

    def __init__(self, caps: Caps):
        self.caps = caps
        self.memo: dict[tuple, LPResult] = {}  # canonical positions -> LP result

    def __call__(self, subset: tuple) -> Fraction:
        return self.solve(canonical_positions(subset, self.caps)).value

    def solve(self, positions: tuple) -> LPResult:
        if positions not in self.memo:
            rest = self.solve(positions[1:]).certificate if len(positions) > 1 else None
            start = (Functional(unit(positions[0]), 0), *rest) if rest else ()
            # the module global, so that a wrapper set on dual.dual_norm sees every LP
            x = SparseVec({(p,): ONE for p in positions})
            self.memo[positions] = dual_norm(x, self.caps, start=start)
        return self.memo[positions]

