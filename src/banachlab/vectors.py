"""Exact sparse vectors indexed by coordinate paths.

A coordinate path is a tuple of 1-based indices; depth 1 for primitive
spaces, depth 2 for a sum of primitive spaces, and so on.  Vectors are
immutable and hashable; equality is equality of the entry maps.

Every `SparseVec` is in canonical form: its paths are int tuples of one
depth (the zero vector carries its depth explicitly) and its values are
nonzero `fractions.Fraction`s, which keep themselves in lowest terms
with a positive denominator.  Equal vectors therefore have equal entry
maps and equal hashes, and every operation here is exact.

The public constructor `SparseVec(...)` is the one validating edge: it
converts paths and values and rejects bad paths, mixed depths and a
declared depth that the paths contradict.  Results built from vectors
that already exist (`+`, `-`, scalar `*`, negation, `leading_groups`,
`restrict`) are canonical by construction, because `Fraction`
arithmetic returns canonical `Fraction`s and each of these drops the
zeros it makes; they go through the unchecked `SparseVec._clean`.
`_clean` may only be given a fresh dict whose values are nonzero
`Fraction`s on int-tuple paths of exactly the depth it is passed; data
from anywhere else goes through `SparseVec(...)`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Tuple

from .errors import InputError, ParseError

Rational = Fraction
CoordPath = Tuple[int, ...]


def parse_rational(text: str) -> Fraction:
    """Parse an integer or `p/q` fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from None


class SparseVec:
    """Finitely supported vector with exact rational entries.

    Zero coefficients are never stored.  All paths must share one depth;
    the zero vector carries an explicit depth (default 1) so that it can
    still be validated against a space.
    """

    __slots__ = ("_entries", "_depth", "_hash")

    def __init__(self, entries: Mapping[CoordPath, Fraction] | Iterable = (), depth: int | None = None):
        items = dict(entries)
        clean: dict[CoordPath, Fraction] = {}
        for path, value in items.items():
            path = tuple(int(i) for i in path)
            if not path or any(i < 1 for i in path):
                raise InputError(f"coordinate path {path} must be nonempty with 1-based indices")
            value = Fraction(value)
            if value != 0:
                clean[path] = value
        depths = {len(p) for p in clean}
        if len(depths) > 1:
            raise InputError(f"mixed path depths {sorted(depths)} in one vector")
        if depths:
            found = depths.pop()
            if depth is not None and depth != found:
                raise InputError(f"declared depth {depth} != path depth {found}")
            depth = found
        self._entries = clean
        self._depth = depth if depth is not None else 1
        self._hash = None

    @classmethod
    def _clean(cls, entries: dict[CoordPath, Fraction], depth: int) -> "SparseVec":
        """Wrap entries that are already canonical, without checking them:
        a dict no one else holds, of nonzero `Fraction`s on int-tuple
        paths of length `depth`."""
        vec = object.__new__(cls)
        vec._entries = entries
        vec._depth = depth
        vec._hash = None
        return vec

    # -- basic protocol ------------------------------------------------

    @property
    def depth(self) -> int:
        return self._depth

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CoordPath]:
        return iter(self.support())

    def __getitem__(self, path: CoordPath) -> Fraction:
        return self._entries.get(tuple(path), Fraction(0))

    def items(self):
        return self._entries.items()

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVec) and self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._entries.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"SparseVec({format_vector(self)!r})"

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "SparseVec") -> "SparseVec":
        return self._merge(other, other._entries.items())

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return self._merge(other, ((p, -v) for p, v in other._entries.items()))

    def _merge(self, other: "SparseVec", terms) -> "SparseVec":
        """Add the (path, value) terms of `other`, dropping cancelled entries."""
        if other._depth != self._depth and self._entries and other._entries:
            raise InputError(f"depth mismatch {self.depth} != {other.depth}")
        out = dict(self._entries)
        for path, value in terms:
            old = out.get(path)
            if old is None:
                out[path] = value
            else:
                total = old + value
                if total:
                    out[path] = total
                else:
                    del out[path]
        return SparseVec._clean(out, self._depth if self._entries else other._depth)

    def __rmul__(self, scalar) -> "SparseVec":
        scalar = Fraction(scalar)
        if not scalar:
            return SparseVec._clean({}, self._depth)
        return SparseVec._clean({p: scalar * v for p, v in self._entries.items()}, self._depth)

    def __neg__(self) -> "SparseVec":
        return SparseVec._clean({p: -v for p, v in self._entries.items()}, self._depth)

    # -- supports and restrictions --------------------------------------

    def support(self) -> list[CoordPath]:
        """Support paths in lexicographic order."""
        return sorted(self._entries)

    def leading_support(self) -> list[int]:
        """Sorted distinct leading indices."""
        return sorted({p[0] for p in self._entries})

    def leading_groups(self) -> dict[int, "SparseVec"]:
        """Split by leading index, stripping it from each path.

        Only meaningful for depth >= 2; used by sum-space evaluators.
        """
        if self.depth < 2:
            raise InputError("leading_groups needs depth >= 2")
        groups: dict[int, dict] = {}
        for path, value in self._entries.items():
            groups.setdefault(path[0], {})[path[1:]] = value
        depth = self._depth - 1
        return {k: SparseVec._clean(v, depth) for k, v in sorted(groups.items())}


def unit(path: int | CoordPath) -> SparseVec:
    """The basis vector e_path."""
    if isinstance(path, int):
        path = (path,)
    return SparseVec({tuple(path): Fraction(1)})


def restrict(x: SparseVec, E: Iterable[int]) -> SparseVec:
    """Keep the entries whose leading index lies in E; idempotent."""
    keep = set(E)
    return SparseVec._clean({p: v for p, v in x.items() if p[0] in keep}, x.depth)


def inner_product(x: SparseVec, f: SparseVec) -> Fraction:
    """Exact bilinear pairing over the common support."""
    if x and f and x.depth != f.depth:
        raise InputError(f"depth mismatch {x.depth} != {f.depth}")
    small, large = (x, f) if len(x) <= len(f) else (f, x)
    total = Fraction(0)
    for path, value in small.items():
        other = large[path]
        if other:
            total += value * other
    return total


# -- text format -------------------------------------------------------
#
# Comma-separated `path:value` terms, e.g. `1:1,2:1/2` (depth 1) or
# `1.3:1,2.1:-2/3` (depth 2).


def parse_vector(text: str) -> SparseVec:
    text = text.strip()
    if not text or text == "0":
        return SparseVec()
    entries: dict[CoordPath, Fraction] = {}
    offset = 0
    for term in text.split(","):
        stripped = term.strip()
        if not stripped:
            raise ParseError("empty vector term", offset)
        head, sep, value = stripped.partition(":")
        if not sep:
            raise ParseError(f"missing ':' in term {stripped!r}", offset)
        try:
            path = tuple(int(i) for i in head.split("."))
        except ValueError:
            raise ParseError(f"bad path {head!r}", offset) from None
        if any(i < 1 for i in path):
            raise ParseError(f"path indices must be >= 1 in {head!r}", offset)
        coeff = parse_rational(value)
        entries[path] = entries.get(path, Fraction(0)) + coeff
        offset += len(term) + 1
    return SparseVec(entries)


def format_vector(x: SparseVec) -> str:
    if not x:
        return "0"
    terms = []
    for path in x.support():
        terms.append(f"{'.'.join(str(i) for i in path)}:{x[path]}")
    return ",".join(terms)
