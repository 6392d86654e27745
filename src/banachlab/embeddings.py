"""Explicit embeddings of Hamming graphs and their measured distortion.

Three constructions are provided: the coordinatewise map m -> sum_i
e^(i)_{m_i} into the width-k lp-sum of dual-Tsirelson copies, the
array-driven map m -> sum_i x^(i)_{k m_i + i}, and the branch vectors of
the nested lq-of-lp tree spaces.  Distortion is measured exactly by
enumerating all pairs of a restricted graph [n]^k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .caps import Caps, get_caps
from .errors import InputError
from .hamming import KSubset, make_ksubset, metric_distance, point_pairs
from .norms import NormEngine
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


@dataclass(frozen=True)
class Prop73:
    p: PValue
    k: int


@dataclass(frozen=True)
class ArrayEmbed:
    array: Mapping[tuple[int, int], SparseVec] = field(hash=False)
    k: int = 1
    space: SpaceExpr = None

    def __post_init__(self):
        if self.space is None:
            raise InputError("an array embedding needs its ambient space")
        engine = NormEngine(self.space)
        for key, vec in self.array.items():
            if engine.norm(vec) != 1:
                raise InputError(f"array entry {key} is not normalized")


@dataclass(frozen=True)
class XpqBranch:
    p: PValue
    q: PValue
    k: int


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


@dataclass(frozen=True)
class DistortionReport:
    lower: Fraction | float  # min ||f(a) - f(b)|| / d(a, b)
    upper: Fraction | float  # max ratio
    distortion: Fraction | float  # upper / lower
    argmin: tuple[KSubset, KSubset]
    argmax: tuple[KSubset, KSubset]
    pairs: int

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
    (with a generator)."""
    caps = caps or get_caps()
    k = spec.k
    pairs = point_pairs(n, k)
    dist = metric_distance(metric, k, metric_space, caps)
    space = ambient_space(spec)
    engine = NormEngine(space, caps)
    images = {m: embed(spec, m) for m in combinations(range(1, n + 1), k)}
    # each image is checked once here; a difference of two valid images
    # is valid, so every pair goes through the unchecked engine, and an
    # image of a `Sum` is split into its summand parts once
    for image in images.values():
        validate_vector(space, image)
    if isinstance(space, Sum):
        images = {m: engine._split(image) for m, image in images.items()}
        norm = engine._pair_norm
    else:
        norm = lambda x, y: engine._norm(x - y)
    for a, b in pairs:
        d = dist(a, b)
        if not d:
            raise InputError(f"metric vanishes on distinct points {a}, {b}")
        yield a, b, d, norm(images[a], images[b])


def measure_distortion(
    spec: EmbeddingSpec,
    metric: str,
    n: int,
    caps: Optional[Caps] = None,
    metric_space: Optional[SpaceExpr] = None,
) -> DistortionReport:
    """Exact min and max of ||f(a) - f(b)|| / d(a, b) over the pairs
    `distortion_pairs` yields."""
    return distortion_report(distortion_pairs(spec, metric, n, caps, metric_space))


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
