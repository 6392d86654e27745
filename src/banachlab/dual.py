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

Seeds.  Any functional of the norming set K supported in supp x is a
valid column, and extra valid columns never move the optimum: the loop
still stops only when the DP certifies the dual vector.  `seeds` enter
as columns, each with its negation, right after the starting basis, so
a caller that knows good columns (a basis found for a smaller support:
K is closed under restriction) saves rounds.  Seeds change the pivots,
hence possibly the witness and the certificate, never the value; with
no seeds the run is the cold one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

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
    x: SparseVec, caps: Optional[Caps] = None, seeds: Iterable[tuple[dict, int]] = ()
) -> LPResult:
    """The dual norm of x with an optimal witness and the basis
    functionals.  Each seed is a norming functional (coeffs by position,
    depth) supported in supp x."""
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
    columns: list[tuple[dict, int]] = []

    def add(coeffs: dict, depth: int) -> int:
        scale = 1 << depth
        column = [0] * len(positions)
        for p, c in coeffs.items():
            column[row_of[p]] = c.numerator * (scale // c.denominator)
        columns.append((coeffs, depth))
        return sx.add_column(column, scale)

    basis = []
    for p, value in zip(positions, coords):
        sign = ONE if value >= 0 else -ONE
        basis.append(add({p: sign}, 0))
        add({p: -sign}, 0)
    sx.set_basis(basis)
    for coeffs, depth in seeds:
        add(coeffs, depth)
        add({p: -c for p, c in coeffs.items()}, depth)

    for _ in range(100000):
        value = sx.solve()
        y = SparseVec(
            {(p,): d for p, d in zip(positions, sx.duals()) if d},
            depth=1,
        )
        t_norm, f_star, depth = tsirelson_norm_witness(y)
        if t_norm <= 1:
            break
        add(f_star, depth)
        add({p: -c for p, c in f_star.items()}, depth)
    else:
        raise SimplexError("column generation failed to converge")

    if inner_product(x, y) != value:
        raise SimplexError("duality certificate failed")
    certificate = tuple(
        Functional(SparseVec({(p,): c for p, c in columns[j][0].items()}), columns[j][1])
        for j in sx.basis
    )
    return LPResult(value, y, certificate)


def verify_duality(x: SparseVec, y: SparseVec, caps: Optional[Caps] = None) -> bool:
    """Exact check of <x, y> <= ||x||_T* ||y||_T."""
    from .spaces import Tsirelson

    caps = caps or get_caps()
    pairing = inner_product(x, y)
    bound = dual_norm(x, caps).value * NormEngine(Tsirelson(), caps).norm(y)
    return pairing <= bound
