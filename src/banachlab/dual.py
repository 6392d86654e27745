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

Columns.  Every column is a `Functional`: the starting basis e_p signed
like x_p, each seed and each separation witness.  Each enters together
with its negation, f first and then -f.  The certificate is the basis
columns themselves, in the form `seeds` takes them.

Seeds.  Any functional of the norming set K supported in supp x is a
valid column, and extra valid columns never move the optimum: the loop
still stops only when the DP certifies the dual vector.  `seeds` enter
right after the starting basis, so a caller that knows good columns (a
basis found for a smaller support: K is closed under restriction) saves
rounds.  Seeds change the pivots, hence possibly the witness and the
certificate, never the value; with no seeds the run is the cold one.

The 0/1 pool.  `dual01_pool` gives ||1_S|| for position sets S, each LP
solved once and seeded with the certificates of the subsets S - {p}.
The verifiers' block-family scans solve thousands of these nested LPs
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Optional

from .caps import Caps, get_caps
from .errors import InputError
from .norms import Functional, NormEngine, tsirelson_norm_witness
from .simplex import SimplexError, StandardFormSimplex
from .vectors import SparseVec, inner_product

ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    value: Fraction
    witness: SparseVec  # optimal y with ||y||_T <= 1 and <x, y> = value
    certificate: tuple[Functional, ...]  # active constraints (LP basis)


def dual_norm(
    x: SparseVec, caps: Optional[Caps] = None, seeds: Iterable[Functional] = ()
) -> LPResult:
    """The dual norm of x with an optimal witness and the basis
    functionals.  Each seed is a norming functional supported in supp x."""
    caps = caps or get_caps()
    if x and x.depth != 1:
        raise InputError("the dual norm is defined on depth-1 vectors")
    if not x:
        return LPResult(Fraction(0), SparseVec(), ())
    positions = x.leading_support()
    caps.check("dual", len(positions))
    row_of = {p: i for i, p in enumerate(positions)}
    coords = [x[(p,)] for p in positions]

    sx = StandardFormSimplex(coords)
    columns: list[Functional] = []

    def add(f: Functional) -> int:
        """Enter f and then -f; return the column index of f."""
        scale = 1 << f.depth
        column = [0] * len(positions)
        for (p,), c in f.coefficients.items():
            column[row_of[p]] = c.numerator * (scale // c.denominator)
        columns.extend((f, Functional(-f.coefficients, f.depth)))
        index = sx.add_column(column, scale)
        sx.add_column([-v for v in column], scale)
        return index

    sx.set_basis([
        add(Functional(SparseVec._clean({(p,): ONE if v >= 0 else -ONE}, 1), 0))
        for p, v in zip(positions, coords)
    ])
    for f in seeds:
        add(f)

    for _ in range(100000):
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
    return LPResult(value, y, tuple(columns[j] for j in sx.basis))


def dual01_pool(caps: Caps) -> Callable[[tuple], Fraction]:
    """||1_S|| in the dual norm for sorted position tuples S, each LP
    solved once.

    The LP of S is seeded with the certificates of its one-point-smaller
    subsets S - {p}, solved first through the same memo.  K is closed
    under restriction, so these are valid columns for S; they leave the
    value as it is and save most of the rounds.  The memo keeps each
    value with its basis functionals, not the LP result.  A functional
    is pooled once, under the sign that makes its first coefficient
    positive (`dual_norm` enters both signs), and seeds go in the order
    the pool first met them.  The depth-0 columns +-e_p are left out:
    every LP starts from them."""
    pool: dict[Functional, int] = {}  # sign-normalised functional -> discovery rank

    @cache
    def solve(subset: tuple) -> tuple[Fraction, tuple[Functional, ...]]:
        pooled: set[Functional] = set()
        if len(subset) > 1:
            for i in range(len(subset)):
                pooled.update(solve(subset[:i] + subset[i + 1:])[1])
        seeds = sorted(pooled, key=pool.__getitem__)
        # the module global, so that a wrapper set on dual.dual_norm sees every LP
        result = dual_norm(SparseVec({(p,): ONE for p in subset}), caps, seeds)
        basis = []
        for f in result.certificate:
            if not f.depth:
                continue
            if min(f.coefficients.items())[1] < 0:
                f = Functional(-f.coefficients, f.depth)
            pool.setdefault(f, len(pool))
            basis.append(f)
        return result.value, tuple(basis)

    return lambda subset: solve(subset)[0]


def verify_duality(x: SparseVec, y: SparseVec, caps: Optional[Caps] = None) -> bool:
    """Exact check of <x, y> <= ||x||_T* ||y||_T."""
    from .spaces import Tsirelson

    caps = caps or get_caps()
    pairing = inner_product(x, y)
    bound = dual_norm(x, caps).value * NormEngine(Tsirelson(), caps).norm(y)
    return pairing <= bound
