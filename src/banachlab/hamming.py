"""Hamming and Johnson metrics on k-subsets, and the metrics generated
by a normalized 1-suppression unconditional basis: the distance between
two increasing k-tuples is the norm of the indicator vector of the set
of positions where they differ.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, count
from math import comb
from operator import ne
from typing import Callable, Iterable, Iterator, Optional

from .caps import Caps, get_caps
from .errors import CapExceeded, InputError
from .norms import NormEngine
from .spaces import SpaceExpr, space_depth
from .vectors import SparseVec

KSubset = tuple[int, ...]
PAIR_BUDGET = 10**6  # most pairs a brute-force enumeration of [n]^k may visit
POINT_BUDGET = 200  # most points of a diameter; the T norm of 1_[1,200] takes about 3 s


def make_ksubset(values: Iterable[int]) -> KSubset:
    out = tuple(int(v) for v in values)
    if not out:
        raise InputError("a k-subset must be nonempty")
    if any(v < 1 for v in out):
        raise InputError("k-subset entries must be positive")
    if any(a >= b for a, b in zip(out, out[1:])):
        raise InputError(f"k-subset entries must strictly increase: {out}")
    return out


def parse_ksubset(text: str) -> KSubset:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"bad k-subset {text!r}") from None
    return make_ksubset(values)


def hamming_distance(a: KSubset, b: KSubset) -> int:
    """The number of positions where the increasing enumerations differ."""
    if len(a) != len(b):
        raise InputError(f"mismatched k: {len(a)} != {len(b)}")
    return sum(map(ne, a, b))


def johnson_distance(a: KSubset, b: KSubset) -> Fraction:
    """Half the symmetric-difference cardinality."""
    if len(a) != len(b):
        raise InputError(f"mismatched k: {len(a)} != {len(b)}")
    return Fraction(len(set(a) ^ set(b)), 2)


def metric_distance(
    kind: str, k: int, generator: Optional[SpaceExpr] = None, caps: Optional[Caps] = None
) -> Callable[[KSubset, KSubset], Fraction | float]:
    """The distance on [N]^k of a metric kind: hamming (as a Fraction),
    johnson, or d_e, the metric generated by the depth-1 `generator`."""
    if kind in ("hamming", "johnson") and generator is not None:
        raise InputError(f"metric {kind} takes no generator space")
    if kind == "hamming":
        fraction = lru_cache(maxsize=None)(Fraction)  # one object per distance
        return lambda a, b: fraction(hamming_distance(a, b))
    if kind == "johnson":
        return johnson_distance
    if kind == "d_e":
        if generator is None:
            raise InputError("metric d_e needs a generator space")
        return HammingSpace(k, generator, caps).distance
    raise InputError(f"unknown metric {kind!r}")


class HammingSpace:
    """[N]^k with the metric generated by the given depth-1 space."""

    def __init__(self, k: int, generator: SpaceExpr, caps: Optional[Caps] = None):
        if k < 1:
            raise InputError("k must be >= 1")
        if space_depth(generator) != 1:
            raise InputError("the generator basis must be a depth-1 space")
        self.k = k
        self.generator = generator
        self.engine = NormEngine(generator, caps or get_caps())
        # distance by differing-position tuple: at most 2^k - 1 entries
        self._distances: dict[tuple[int, ...], Fraction | float] = {}

    def _check(self, a: KSubset):
        if len(a) != self.k:
            raise InputError(f"expected a {self.k}-subset, got {a}")

    def distance(self, a: KSubset, b: KSubset):
        """The norm of the indicator of the differing-position set."""
        self._check(a)
        self._check(b)
        # the 1-based positions where the increasing enumerations differ
        F = tuple(compress(count(1), map(ne, a, b)))
        if not F:
            return Fraction(0)
        value = self._distances.get(F)
        if value is None:
            value = self._distances[F] = self.engine.norm(
                SparseVec({(j,): Fraction(1) for j in F})
            )
        return value

    def diameter(self):
        """The norm of e_1 + ... + e_k; the diameter of [M]^k for every
        infinite M.  Refused for k past the point budget."""
        if self.k > POINT_BUDGET:
            raise CapExceeded(f"point budget exceeded: k = {self.k} > {POINT_BUDGET}")
        return self.engine.norm(
            SparseVec({(j,): Fraction(1) for j in range(1, self.k + 1)})
        )

    def diameter_brute(self, n: int):
        """Max distance over all pairs in [n]^k by enumeration."""
        if n < 2 * self.k:
            raise InputError(f"need n >= 2k = {2 * self.k} to realize the diameter")
        return max(self.distance(a, b) for a, b in point_pairs(n, self.k))


def point_pairs(n: int, k: int) -> Iterator[tuple[KSubset, KSubset]]:
    """The pairs a < b of [n]^k in lexicographic order; refused when
    C(n, k)^2 exceeds the pair budget."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    count = comb(max(n, 0), k)
    if count * count > PAIR_BUDGET:
        raise CapExceeded(
            f"pair budget exceeded: C({n},{k})^2 = {count * count} > {PAIR_BUDGET}"
        )
    return combinations(combinations(range(1, n + 1), k), 2)
