"""Exact simplex over dynamically added columns, in integer arithmetic.

Standard form: minimize c^T t subject to A t = b, t >= 0.  Bland's rule
is used for both the entering and the leaving choice, which rules out
cycling.  The row count here is a support size, a few dozen at most.

Representation.  Every stored number is a Python int.  Columns and
costs are given as ints; a caller with a rational column (a_j, c_j)
scales it by s_j, the lcm of its denominators, first.  b is scaled by
the lcm of its denominators.  With B the integer basis matrix, the basis
inverse is held as N/d, where N = adj(B) and d = det(B) up to one common
sign chosen so that d > 0.  The duals are z/d with z = c_B^T N, and the
basic solution is N b / d.  Entering column e at row r, with direction
w = N a_e and g = d times the reduced cost of e, updates everything
fraction-free, after Bareiss (1968):

    N_i <- (w_r N_i - w_i N_r) / d   for i != r,   N_r kept,   d <- w_r,
    z   <- (w_r z + g N_r) / d,

and N b is updated like one more column of N.  The divisions are exact
because the new N and d are again the adjugate and the determinant of
the new basis matrix, and w_r > 0 because the ratio test only pivots on
positive directions w_r / d.  The duals are updated with the pivot
instead of recomputing c_B B^-1 every round.

Why Bland's choices are unchanged.  Scaling column j by s_j > 0 is the
substitution t_j = s_j t'_j.  The objective and the duals do not move.
The reduced cost of j is multiplied by s_j, so its sign is kept and the
same first improving column enters.  Every ratio of the ratio test for
entering column e is multiplied by the same 1/s_e (and by the scale of
b), so the same rows tie at the minimum and the smallest basic index
leaves.  The pivot sequence, the optimum and the duals are exactly those
of the rational method.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import BanachLabError


MAX_PIVOTS = 100000


class SimplexError(BanachLabError):
    pass


class StandardFormSimplex:
    def __init__(self, rhs: list[Fraction]):
        self.m = len(rhs)
        self.b_scale = lcm(*(v.denominator for v in rhs))
        self.b = [int(v * self.b_scale) for v in rhs]
        self.cols: list[list[int]] = []
        self.costs: list[int] = []
        self.basis: list[int] = []
        self.binv: list = []  # N, rows of ints; the basis inverse is N / d
        self.d = 1
        self.xb: list[int] = []  # N b; the basic solution is N b / d
        self.z: list[int] = []  # c_B^T N; the duals are z / d

    def add_column(self, column: list[int], cost: int) -> int:
        """Append a column of ints with its int cost, stored as given."""
        if len(column) != self.m:
            raise SimplexError("column length mismatch")
        self.cols.append(column)
        self.costs.append(cost)
        return len(self.cols) - 1

    def set_basis(self, indices: list[int]) -> None:
        """Install a starting basis; its columns must be invertible and
        the implied basic solution nonnegative."""
        if len(indices) != self.m:
            raise SimplexError("basis size must equal the row count")
        self.basis = list(indices)
        rows = [[self.cols[j][i] for j in indices] for i in range(self.m)]
        self.binv, self.d = _integer_inverse(rows)
        self.xb = [sum(map(mul, row, self.b)) for row in self.binv]
        costs = [self.costs[j] for j in indices]
        self.z = [sum(map(mul, costs, column)) for column in zip(*self.binv)]
        if any(v < 0 for v in self.xb):
            raise SimplexError("starting basis is infeasible")

    def duals(self) -> list[Fraction]:
        """y with y^T B = c_B^T."""
        return [Fraction(v, self.d) for v in self.z]

    def objective(self) -> Fraction:
        total = sum(self.costs[j] * v for j, v in zip(self.basis, self.xb))
        return Fraction(total, self.d * self.b_scale)

    def solve(self) -> Fraction:
        cols, costs = self.cols, self.costs
        for _ in range(MAX_PIVOTS):
            z, d = self.z, self.d
            in_basis = set(self.basis)
            for entering, column in enumerate(cols):
                if entering not in in_basis:
                    reduced = costs[entering] * d - sum(map(mul, z, column))
                    if reduced < 0:
                        break
            else:
                return self.objective()
            direction = [sum(map(mul, row, column)) for row in self.binv]
            xb, basis = self.xb, self.basis
            leaving = -1
            for i, w in enumerate(direction):
                if w > 0:
                    # ratio xb[i] / w against the best so far, cross-multiplied
                    if leaving < 0:
                        leaving = i
                        continue
                    lhs, rhs = xb[i] * direction[leaving], xb[leaving] * w
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                        leaving = i
            if leaving < 0:
                raise SimplexError("unbounded linear program")
            self._pivot(entering, leaving, direction, reduced)
        raise SimplexError("pivot limit exceeded")

    def _pivot(self, entering: int, row: int, direction: list[int], reduced: int) -> None:
        d, wr = self.d, direction[row]
        pivot_row, xr = self.binv[row], self.xb[row]
        for i, wi in enumerate(direction):
            if i != row:
                self.binv[i] = [(wr * a - wi * b) // d for a, b in zip(self.binv[i], pivot_row)]
                self.xb[i] = (wr * self.xb[i] - wi * xr) // d
        self.z = [(wr * a + reduced * b) // d for a, b in zip(self.z, pivot_row)]
        self.d = wr
        self.basis[row] = entering


def _integer_inverse(matrix: list[list[int]]) -> tuple[list[list[int]], int]:
    """(N, d) with N / d the inverse of a square integer matrix, N its
    adjugate and d its determinant, signed so that d > 0.

    Fraction-free Gauss-Jordan: each elimination step is the pivot
    update above, applied to [matrix | I] from the identity basis.
    """
    n = len(matrix)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    d = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            raise SimplexError("singular basis matrix")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        top = work[col]
        pivot = top[col]
        for r in range(n):
            if r != col:
                factor = work[r][col]
                work[r] = [(pivot * a - factor * b) // d for a, b in zip(work[r], top)]
        d = pivot
    sign = 1 if d > 0 else -1
    return [[sign * v for v in row[n:]] for row in work], sign * d
