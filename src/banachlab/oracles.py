"""Independent reference routes, kept apart from the production paths.

No evaluator calls these: tests (and the CLI's `norm --oracle`) check
each fast path against them.  The set-family recursion
`brute_force_tsirelson` and the norming-set enumeration (`norming_set`,
`norming_set_max`) check the interval DP of `norms`; the dense-tableau
LP over the whole norming set (`dual_norm_reference`) and the rational
re-derivation of an LP basis (`decomposition_weight`) check the
column-generation LP of `dual`; the per-pair `Fraction` reduction
(`distortion_report_reference`), the scan of every built difference
(`distortion_reference`) and the sign-pattern scan
(`max_sign_sum_reference`) check `embeddings.distortion_report`,
`embeddings.measure_distortion` and `embeddings.max_sign_sum`.  The
enumerations are exponential in the support size, hence the
`tsirelson` cap, and memoize per exact support in two module-level
caches that grow with every support seen.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .caps import Caps, get_caps
from .dual import LPResult
from .embeddings import DistortionReport, EmbeddingSpec, ambient_space, embed
from .errors import InputError
from .hamming import metric_distance
from .norms import Functional, NormEngine, chunkings, nonempty_subsets
from .simplex import SimplexError, StandardFormSimplex
from .spaces import SpaceExpr
from .vectors import SparseVec

HALF = Fraction(1, 2)
ZERO = Fraction(0)
ONE = Fraction(1)


def brute_force_tsirelson(x: SparseVec, caps: Optional[Caps] = None) -> Fraction:
    """Test oracle: explicit recursion over all admissible families of
    successive nonempty sets.  No interval reduction, no memoization."""
    caps = caps or get_caps()
    if x and x.depth != 1:
        raise InputError("the Tsirelson norm is defined on depth-1 vectors")
    caps.check("tsirelson", len(x))

    def recurse(vec: dict) -> Fraction:
        supp = tuple(sorted(vec))
        best = max(abs(v) for v in vec.values())
        for chosen in nonempty_subsets(supp):
            nmax = min(chosen[0], len(chosen))
            for n in range(2, nmax + 1):
                for parts in chunkings(chosen, n):
                    total = Fraction(0)
                    for part in parts:
                        total += recurse({p: vec[p] for p in part})
                    cand = HALF * total
                    if cand > best:
                        best = cand
        return best

    if not x:
        return Fraction(0)
    return recurse({p[0]: v for p, v in x.items()})


# -- the norming set of the Tsirelson norm ------------------------------------

_exact_cache: dict[tuple, list[tuple[tuple, int]]] = {}
_maxsum_cache: dict[tuple, Fraction] = {}


def _exact_functionals(support: tuple) -> list[tuple[tuple, int]]:
    """All functionals with support exactly `support`, as
    (sorted (position, coefficient) items, depth), deduplicated."""
    if support in _exact_cache:
        return _exact_cache[support]
    if len(support) == 1:
        p = support[0]
        out = [(((p, ONE),), 0), (((p, -ONE),), 0)]
    else:
        found: dict[tuple, int] = {}
        nmax = min(support[0], len(support))
        for n in range(2, nmax + 1):
            for parts in chunkings(support, n):
                pools = [_exact_functionals(part) for part in parts]
                for combo in product(*pools):
                    items = []
                    depth = 0
                    for part_items, part_depth in combo:
                        depth = max(depth, part_depth)
                        items.extend((p, HALF * c) for p, c in part_items)
                    key = tuple(items)
                    prior = found.get(key)
                    if prior is None or depth + 1 < prior:
                        found[key] = depth + 1
        out = [(k, d) for k, d in found.items()]
    _exact_cache[support] = out
    # empty when the support contains 1 and has size >= 2: no composite
    # family satisfies the part-count bound there
    _maxsum_cache[support] = (
        max(sum(c for _, c in items) for items, _ in out) if out else None
    )
    return out


def norming_set(S: Iterable[int], caps: Optional[Caps] = None) -> list[Functional]:
    """The finite deduplicated set K_S; max_{f in K_S} f(y) equals the
    Tsirelson norm for every y supported in S."""
    caps = caps or get_caps()
    S = tuple(sorted(set(int(s) for s in S)))
    if any(s < 1 for s in S):
        raise InputError("norming-set coordinates must be >= 1")
    caps.check("tsirelson", len(S))
    out = []
    for A in nonempty_subsets(S):
        for items, depth in _exact_functionals(A):
            coeffs = SparseVec({(p,): c for p, c in items})
            out.append(Functional(coeffs, depth))
    return out


def norming_set_max(y: SparseVec, caps: Optional[Caps] = None) -> Fraction:
    """max_{f in K_supp(y)} f(y), without materializing Functional objects.

    For 0/1 vectors this is a table lookup of precomputed coefficient
    sums; otherwise each candidate functional is paired with y exactly.
    """
    caps = caps or get_caps()
    if not y:
        return Fraction(0)
    if y.depth != 1:
        raise InputError("norming-set evaluation needs a depth-1 vector")
    supp = tuple(y.leading_support())
    caps.check("tsirelson", len(supp))
    coef = {p[0]: v for p, v in y.items()}
    if all(v == 1 for v in coef.values()):
        best = Fraction(0)
        for A in nonempty_subsets(supp):
            _exact_functionals(A)
            cand = _maxsum_cache[A]
            if cand is not None and cand > best:
                best = cand
        return best
    best = None
    for A in nonempty_subsets(supp):
        for items, _depth in _exact_functionals(A):
            value = sum((c * coef[p] for p, c in items), Fraction(0))
            if best is None or value > best:
                best = value
    return best


# -- the dual norm --------------------------------------------------------------


def dual_norm_reference(x: SparseVec, caps: Optional[Caps] = None) -> Fraction:
    """Independent route for tests: enumerate the full norming set of the
    support and maximize <x, y> over the inequality polytope with the
    dense tableau solver.  Exponential; keep supports small."""
    caps = caps or get_caps()
    if not x:
        return Fraction(0)
    positions = x.leading_support()
    functionals = norming_set(positions, caps)
    rows = []
    for f in functionals:
        rows.append([f.coefficients[(p,)] for p in positions])
    objective = [x[(p,)] for p in positions]
    return maximize_over_unit_polytope(objective, rows)


def maximize_over_unit_polytope(
    objective: list[Fraction], rows: list[list[Fraction]]
) -> Fraction:
    """maximize objective . y subject to row . y <= 1 for every row, y free.

    Reference solver for cross-checks: y is split into u - v and every
    constraint gets a slack, then the standard-form machinery runs on the
    dense tableau.  The slack basis is feasible because every right-hand
    side is 1, so no phase-1 is needed.
    """
    m = len(rows)
    n = len(objective)
    sx = StandardFormSimplex([Fraction(1)] * m)
    for sign in (1, -1):
        for j in range(n):
            # the column of sign * y_j and its cost, scaled to ints by their lcm denominator
            column = [sign * rows[i][j] for i in range(m)]
            scale = lcm(objective[j].denominator, *(v.denominator for v in column))
            sx.add_column([int(v * scale) for v in column], int(-sign * objective[j] * scale))
    slack_start = 2 * n
    for i in range(m):
        sx.add_column([int(i == r) for r in range(m)], 0)
    sx.set_basis(list(range(slack_start, slack_start + m)))
    return -sx.solve()


def decomposition_weight(x: SparseVec, result: LPResult) -> Fraction:
    """Total weight of the decomposition x = sum t_f f carried by the LP
    basis; re-derives t from the certificate and checks it reproduces x.

    Together with the witness inequality f(y) <= 1 for all f (which holds
    because ||y||_T <= 1), this certifies that the minimal decomposition
    weight and the polytope maximum agree: the unit ball of the dual is
    the closed convex hull of the norming set at this support.
    """
    positions = x.leading_support()
    m = len(positions)
    cols = [[f.coefficients[(p,)] for p in positions] for f in result.certificate]
    if len(cols) != m:
        raise SimplexError("certificate is not a basis")
    # solve B t = x by rational Gauss-Jordan, independent of the
    # simplex's integer basis update
    binv = _invert([[cols[j][i] for j in range(m)] for i in range(m)])
    coords = [x[(p,)] for p in positions]
    t = [sum(map(mul, row, coords), ZERO) for row in binv]
    if any(v < 0 for v in t):
        raise SimplexError("certificate weights are not nonnegative")
    rebuilt: dict = {}
    for weight, f in zip(t, result.certificate):
        for p, c in f.coefficients.items():
            rebuilt[p] = rebuilt.get(p, Fraction(0)) + weight * c
    if SparseVec(rebuilt) != x:
        raise SimplexError("certificate does not reproduce x")
    return sum(t, Fraction(0))


def _invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(matrix)
    work = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise SimplexError("singular basis matrix")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [v / pivot for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [work[r][k] - factor * work[col][k] for k in range(2 * n)]
    return [row[n:] for row in work]


def distortion_report_reference(pairs) -> DistortionReport:
    """Test oracle: the min and max of value / d over (a, b, d, value)
    tuples by one `Fraction` (or float) division and two comparisons per
    pair; the first pairs attaining them win."""
    lower = upper = None
    argmin = argmax = None
    count = 0
    for a, b, d, value in pairs:
        ratio = value / d
        count += 1
        if lower is None or ratio < lower:
            lower, argmin = ratio, (a, b)
        if upper is None or ratio > upper:
            upper, argmax = ratio, (a, b)
    if lower is None:
        raise InputError("need at least two points to measure distortion")
    if lower == 0:
        raise InputError(f"embedding collapses the pair {argmin}")
    return DistortionReport(lower, upper, upper / lower, argmin, argmax, count)


def distortion_reference(
    spec: EmbeddingSpec, metric: str, n: int, caps: Optional[Caps] = None, metric_space: Optional[SpaceExpr] = None
) -> DistortionReport:
    """Test oracle: the report over every pair a < b of [n]^k, each
    f(a) - f(b) built and measured by `NormEngine.norm`, with no split
    images and no order-type classes."""
    caps = caps or get_caps()
    dist = metric_distance(metric, spec.k, metric_space, caps)
    engine = NormEngine(ambient_space(spec), caps)
    images = {m: embed(spec, m) for m in combinations(range(1, n + 1), spec.k)}
    return distortion_report_reference(
        (a, b, dist(a, b), engine.norm(images[a] - images[b])) for a, b in combinations(images, 2)
    )


def max_sign_sum_reference(engine: NormEngine, vectors: Sequence[SparseVec]):
    """Max of ||x_1 ± x_2 ± ... ± x_n|| for any supports and the signs (a
    list starting with 1) of the first pattern that attains it, or None
    when every sum is 0.  Only the 2^(n-1) patterns that start with + are
    scanned, in `product` order: ||-x|| = ||x||, so they attain every value."""
    best, witness = Fraction(0), None
    for signs in product((ONE, -ONE), repeat=len(vectors) - 1):
        total = vectors[0]
        for sign, vec in zip(signs, vectors[1:]):
            total = total + sign * vec
        value = engine.norm(total)
        if value > best:
            best = value
            witness = [1] + [int(s) for s in signs]
    return best, witness
