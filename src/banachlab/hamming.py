"""Hamming and Johnson metrics on k-subsets, and the metrics generated
by a normalized 1-suppression unconditional basis: the distance between
two increasing k-tuples is the norm of the indicator vector of the set
of positions where they differ.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Optional

from .caps import Caps, get_caps
from .errors import CapExceeded, InputError
from .norms import NormEngine
from .spaces import SpaceExpr, space_depth
from .vectors import SparseVec

KSubset = tuple[int, ...]


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


def differing_positions(a: KSubset, b: KSubset) -> list[int]:
    """1-based positions where the increasing enumerations differ."""
    if len(a) != len(b):
        raise InputError(f"mismatched k: {len(a)} != {len(b)}")
    return [i + 1 for i, (x, y) in enumerate(zip(a, b)) if x != y]


def hamming_distance(a: KSubset, b: KSubset) -> int:
    return len(differing_positions(a, b))


def johnson_distance(a: KSubset, b: KSubset) -> Fraction:
    """Half the symmetric-difference cardinality."""
    if len(a) != len(b):
        raise InputError(f"mismatched k: {len(a)} != {len(b)}")
    return Fraction(len(set(a) ^ set(b)), 2)


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

    def _check(self, a: KSubset):
        if len(a) != self.k:
            raise InputError(f"expected a {self.k}-subset, got {a}")

    def distance(self, a: KSubset, b: KSubset):
        """The norm of the indicator of the differing-position set."""
        self._check(a)
        self._check(b)
        F = differing_positions(a, b)
        if not F:
            return Fraction(0)
        return self.engine.norm(SparseVec({(j,): Fraction(1) for j in F}))

    def diameter(self):
        """The norm of e_1 + ... + e_k; the diameter of [M]^k for every
        infinite M."""
        return self.engine.norm(
            SparseVec({(j,): Fraction(1) for j in range(1, self.k + 1)})
        )

    def diameter_brute(self, n: int, budget: int = 10**6):
        """Max distance over all pairs in [n]^k by enumeration."""
        if n < 2 * self.k:
            raise InputError(f"need n >= 2k = {2 * self.k} to realize the diameter")
        check_pair_budget(n, self.k, budget)
        points = list(combinations(range(1, n + 1), self.k))
        best = Fraction(0)
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                d = self.distance(a, b)
                if d > best:
                    best = d
        return best


def check_pair_budget(n: int, k: int, budget: int) -> None:
    """Refuse to enumerate the pairs of [n]^k when C(n, k)^2 exceeds
    the budget."""
    count = comb(n, k) if min(n, k) >= 0 else 0
    if count * count > budget:
        raise CapExceeded(
            f"pair budget exceeded: C({n},{k})^2 = {count * count} > {budget}"
        )
