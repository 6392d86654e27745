"""Explicit embeddings of Hamming graphs and their measured distortion.

Three constructions are provided: the coordinatewise map m -> sum_i
e^(i)_{m_i} into the width-k lp-sum of dual-Tsirelson copies, the
array-driven map m -> sum_i x^(i)_{k m_i + i}, and the branch vectors of
the nested lq-of-lp tree spaces.  Distortion on a restricted graph [n]^k
is measured exactly: over one packed member per order type of the pairs
for the coordinatewise and tree maps, whose pairs it determines
(`classes.pair_classes`), and over all pairs for array maps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .caps import Caps, get_caps
from .classes import packed_member, pair_classes
from .errors import InputError
from .hamming import KSubset, make_ksubset, metric_distance, point_pairs
from .norms import NormEngine
from .records import Frozen
from .spaces import Lp, LpN, PValue, Repeat, SpaceExpr, Sum, TsirelsonDual, validate_vector
from .vectors import SparseVec

ONE = Fraction(1)


# -- the lp^k(T*) embedding ----------------------------------------------


def prop73_space(p: PValue, k: int) -> SpaceExpr:
    if p is None:
        raise InputError("the coordinatewise embedding needs finite p")
    return Sum(LpN(p, k), Repeat(TsirelsonDual()))


def prop73_embed(p: PValue, k: int, m: KSubset) -> SparseVec:
    """Entry 1 at path i.m_i for i = 1..k."""
    if p is None:
        raise InputError("the coordinatewise embedding needs finite p")
    m = make_ksubset(m)
    if len(m) != k:
        raise InputError(f"expected a {k}-subset")
    return SparseVec({(i + 1, m[i]): ONE for i in range(k)})


# -- array embeddings -------------------------------------------------------


def array_embed(array: Mapping[tuple[int, int], SparseVec], k: int, m: KSubset) -> SparseVec:
    """sum_i x^(i)_{k m_i + i} for the given array of vectors."""
    m = make_ksubset(m)
    if len(m) != k:
        raise InputError(f"expected a {k}-subset")
    total = SparseVec()
    for i in range(1, k + 1):
        key = (i, k * m[i - 1] + i)
        if key not in array:
            raise InputError(f"array entry {key} is missing")
        total = total + array[key]
    return total


# -- nested lq-of-lp tree spaces ----------------------------------------------
#
# The level-k tree space is R +_q (lp-sum over all of N of level-(k-1)
# spaces).  The scalar summand is represented isometrically as the
# all-ones basis direction of the first copy, which keeps every
# coordinate path at the uniform depth 2k + 1.


def xpq_space(p: PValue, q: PValue, k: int) -> SpaceExpr:
    if k < 0:
        raise InputError("tree height must be >= 0")
    space: SpaceExpr = LpN(q, 1)
    for _ in range(k):
        level = Sum(Lp(p), Repeat(space))
        space = Sum(LpN(q, 2), Repeat(level))
    return space


def _node_path(k: int, gaps: Sequence[int]) -> tuple[int, ...]:
    """Path of the tree vector at the node described by copy gaps."""
    if not gaps:
        return (1,) * (2 * k + 1)
    return (2, gaps[0]) + _node_path(k - 1, gaps[1:])


def xpq_branch_vectors(p: PValue, q: PValue, k: int, m: KSubset) -> list[SparseVec]:
    """The k branch vectors at nodes m|1, ..., m|k; each is a unit basis
    vector of the tree space."""
    m = make_ksubset(m)
    if len(m) != k:
        raise InputError(f"expected a {k}-subset")
    gaps = [m[0]] + [b - a for a, b in zip(m, m[1:])]
    return [
        SparseVec({_node_path(k, gaps[: n + 1]): ONE}) for n in range(k)
    ]


# -- embedding specifications ---------------------------------------------


class Prop73(Frozen):
    _fields = ("p", "k")
    by_order_type = True  # a pair's d and norm depend only on its order type (`classes.pair_classes`)

    def __init__(self, p: PValue, k: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)


class ArrayEmbed(Frozen):
    """Equal embeddings have equal arrays; the hash leaves the array out."""

    _fields = ("array", "k", "space")
    _hashed = ("k", "space")
    by_order_type = False  # its entries are arbitrary vectors

    def __init__(self, array: Mapping[tuple[int, int], SparseVec], k: int = 1, space: SpaceExpr = None):
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "space", space)
        if space is None:
            raise InputError("an array embedding needs its ambient space")
        engine = NormEngine(space)
        for key, vec in array.items():
            if engine.norm(vec) != 1:
                raise InputError(f"array entry {key} is not normalized")


class XpqBranch(Frozen):
    _fields = ("p", "q", "k")
    by_order_type = True  # as for `Prop73`

    def __init__(self, p: PValue, q: PValue, k: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)


EmbeddingSpec = Union[Prop73, ArrayEmbed, XpqBranch]


def ambient_space(spec: EmbeddingSpec) -> SpaceExpr:
    if isinstance(spec, Prop73):
        return prop73_space(spec.p, spec.k)
    if isinstance(spec, ArrayEmbed):
        return spec.space
    if isinstance(spec, XpqBranch):
        return xpq_space(spec.p, spec.q, spec.k)
    raise InputError(f"unknown embedding spec {spec!r}")


def embed(spec: EmbeddingSpec, m: KSubset) -> SparseVec:
    if isinstance(spec, Prop73):
        return prop73_embed(spec.p, spec.k, m)
    if isinstance(spec, ArrayEmbed):
        return array_embed(spec.array, spec.k, m)
    if isinstance(spec, XpqBranch):
        return sum(xpq_branch_vectors(spec.p, spec.q, spec.k, m), SparseVec())
    raise InputError(f"unknown embedding spec {spec!r}")


# -- distortion measurement ---------------------------------------------------


class DistortionReport(Frozen):
    """`lower` and `upper` are the min and max of ||f(a) - f(b)|| / d(a, b),
    first attained at the pairs `argmin` and `argmax`, and `distortion`
    is upper / lower."""

    _fields = ("lower", "upper", "distortion", "argmin", "argmax", "pairs")

    def __init__(
        self,
        lower: Fraction | float,
        upper: Fraction | float,
        distortion: Fraction | float,
        argmin: tuple[KSubset, KSubset],
        argmax: tuple[KSubset, KSubset],
        pairs: int,
    ):
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "distortion", distortion)
        object.__setattr__(self, "argmin", argmin)
        object.__setattr__(self, "argmax", argmax)
        object.__setattr__(self, "pairs", pairs)

    def to_dict(self) -> dict:
        from .report import encode_value

        return {
            "lower": encode_value(self.lower),
            "upper": encode_value(self.upper),
            "distortion": encode_value(self.distortion),
            "argmin": [list(self.argmin[0]), list(self.argmin[1])],
            "argmax": [list(self.argmax[0]), list(self.argmax[1])],
            "pairs": self.pairs,
        }


def distortion_pairs(
    spec: EmbeddingSpec,
    metric: str,
    n: int,
    caps: Optional[Caps] = None,
    metric_space: Optional[SpaceExpr] = None,
) -> Iterator[tuple[KSubset, KSubset, Fraction, Fraction | float]]:
    """Yield (a, b, d(a, b), ||f(a) - f(b)||) for every pair a < b of
    [n]^k, in lexicographic order.  `metric` is hamming, johnson, or d_e
    (with a generator).  A spec `by_order_type` measures each order type
    once, at its first pair, and looks every pair up by its packed
    member."""
    pairs = point_pairs(n, spec.k)
    measure = _pair_measure(spec, metric, n, caps, metric_space)
    if not spec.by_order_type:
        for a, b in pairs:
            yield a, b, *measure(a, b)
        return
    types = {}
    for a, b in pairs:
        key = packed_member(a, b)
        found = types.get(key)
        if found is None:
            found = types[key] = measure(*key)
        yield a, b, *found


def measure_distortion(
    spec: EmbeddingSpec,
    metric: str,
    n: int,
    caps: Optional[Caps] = None,
    metric_space: Optional[SpaceExpr] = None,
) -> DistortionReport:
    """Exact min and max of ||f(a) - f(b)|| / d(a, b) over the pairs
    `distortion_pairs` yields.  A spec `by_order_type` reads only the
    packed member of each order type, in lexicographic order, as the
    first pair of its type (`classes.pair_classes`), after the pair
    budget of the scan it stands for."""
    if not spec.by_order_type:
        return distortion_report(distortion_pairs(spec, metric, n, caps, metric_space))
    k = spec.k
    point_pairs(n, k)  # the scan's checks of k and of the pair budget
    measure = _pair_measure(spec, metric, n, caps, metric_space)
    report = distortion_report((a, b, *measure(a, b)) for a, b in pair_classes(k, n))
    return DistortionReport(
        report.lower, report.upper, report.distortion, report.argmin, report.argmax, comb(comb(n, k), 2)
    )


def _pair_measure(spec: EmbeddingSpec, metric: str, n: int, caps, metric_space):
    """The map (a, b) -> (d(a, b), ||f(a) - f(b)||) on the k-subsets of
    [n], or of [min(n, 2k)] for a spec `by_order_type`, whose packed
    members lie there.  Each image is checked once here; a difference of
    two valid images is valid, so every pair goes through the unchecked
    engine, and an image of a `Sum` is split into its summand parts
    once."""
    caps = caps or get_caps()
    k = spec.k
    dist = metric_distance(metric, k, metric_space, caps)
    space = ambient_space(spec)
    engine = NormEngine(space, caps)
    top = min(n, 2 * k) if spec.by_order_type else n
    images = {m: embed(spec, m) for m in combinations(range(1, top + 1), k)}
    for image in images.values():
        validate_vector(space, image)
    if isinstance(space, Sum):
        images = {m: engine._split(image) for m, image in images.items()}
        norm = engine._pair_norm
    else:
        norm = lambda x, y: engine._norm(x - y)

    def measure(a, b):
        d = dist(a, b)
        if not d:
            raise InputError(f"metric vanishes on distinct points {a}, {b}")
        return d, norm(images[a], images[b])

    return measure


def distortion_report(
    pairs: Iterable[tuple[KSubset, KSubset, Fraction, Fraction | float]],
) -> DistortionReport:
    """Reduce (a, b, d(a, b), ||f(a) - f(b)||) tuples to the min and max
    ratio, their first attaining pairs and the pair count.  A ratio is
    compared as a cross-multiplied integer pair: (value, d) by numerators
    and denominators when both are exact, else the float value / d by its
    exact integer ratio, which compares as floats and `Fraction`s do."""
    lower = upper = None  # (num, den, float ratio or None)
    argmin = argmax = None
    count = 0
    for a, b, d, value in pairs:
        count += 1
        if isinstance(value, float) or isinstance(d, float):
            ratio = value / d
            num, den = ratio.as_integer_ratio()
        else:
            ratio = None
            num, den = value.numerator * d.denominator, value.denominator * d.numerator
        if lower is None or num * lower[1] < lower[0] * den:
            lower, argmin = (num, den, ratio), (a, b)
        if upper is None or num * upper[1] > upper[0] * den:
            upper, argmax = (num, den, ratio), (a, b)
    if lower is None:
        raise InputError("need at least two points to measure distortion")
    lower, upper = (Fraction(n, d) if r is None else r for n, d, r in (lower, upper))
    if lower == 0:
        raise InputError(f"embedding collapses the pair {argmin}")
    return DistortionReport(lower, upper, upper / lower, argmin, argmax, count)


# -- finite linfty equivalence constants ----------------------------------


def max_sign_sum(engine: NormEngine, vectors: Sequence[SparseVec]):
    """Max of ||x_1 ± ... ± x_n|| over sign patterns for pairwise disjoint
    supports, and the first pattern attaining it, or (0, None) when it is
    0.  It is ||x_1 + ... + x_n|| at [1, ..., 1]: on disjoint supports
    every pattern has the same |coordinates|, which are all any norm here
    reads, so every pattern gives that value, and `product` order puts
    [1, ..., 1] first (`oracles.max_sign_sum_reference` scans them all)."""
    paths = [path for vec in vectors for path in vec.support()]
    if len(set(paths)) < len(paths):
        raise InputError("vectors must have pairwise disjoint supports")
    value = engine.norm(sum(vectors[1:], vectors[0]))
    return (value, [1] * len(vectors)) if value else (Fraction(0), None)


def ell_infty_equivalence(vectors: Sequence[SparseVec], engine: NormEngine):
    """Certified constants (c_low, c_up) in the space of `engine` for 1
    to 12 vectors with pairwise disjoint supports:

        c_low * max|a_i|  <=  ||sum a_i x_i||  <=  c_up * max|a_i|.

    c_up is the max over sign patterns (the sup over [-1,1]^n of a convex
    function is attained at vertices, and the bases are unconditional),
    one norm by `max_sign_sum`, which checks the supports; c_low =
    min_i ||x_i|| comes from the suppression bound.
    """
    n = len(vectors)
    if not 1 <= n <= 12:
        raise InputError(f"need between 1 and 12 vectors, got {n}")
    c_up = max_sign_sum(engine, vectors)[0]
    return min(engine.norm(v) for v in vectors), c_up
