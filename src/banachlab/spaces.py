"""Space-expression language for the Banach spaces under study.

Grammar (whitespace-insensitive):

    expr  := "T" | "T*" | "M" | "c0" | "l1"
           | "lp(" P ")" | "lpn(" P "," N ")" | "S(" gauge ")"
           | "sum(" expr "," inner ")"
    inner := "repeat(" expr ")" | "indexed(" expr-with-# ")"
    P     := positive rational or "inf"

`c0` is sugar for lp(inf) and `l1` for lp(1).  Inside `indexed(...)`
the placeholder `#` stands for the outer coordinate index and is
substituted textually before instantiation; instantiations are cached
per index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union

from .errors import InputError, ParseError
from .vectors import SparseVec, parse_rational

# p = None encodes infinity throughout this module.
PValue = Optional[Fraction]

# Sums nested in one space; the parser and the norm recursion take a few
# stack frames per sum, and this keeps them far from Python's limit.
MAX_NESTING = 64


@dataclass(frozen=True)
class FGauge:
    """Named gauge for the partition-scaled norm; f(l) >= 1, nondecreasing."""

    name: str
    fn: Callable[[int], float] = field(compare=False)

    def __call__(self, l: int) -> float:
        return self.fn(l)


def _log2_gauge(l: int) -> float:
    return math.log2(1 + l)


_GAUGES: dict[str, FGauge] = {}


def register_gauge(name: str, fn: Callable[[int], float]) -> FGauge:
    """Register a gauge after checking f(l) >= 1 and monotonicity on [2, 64]."""
    previous = None
    for l in range(2, 65):
        value = fn(l)
        if value < 1:
            raise InputError(f"gauge {name!r}: f({l}) = {value} < 1")
        if previous is not None and value < previous:
            raise InputError(f"gauge {name!r} is decreasing at l = {l}")
        previous = value
    gauge = FGauge(name, fn)
    _GAUGES[name] = gauge
    return gauge


register_gauge("log2", _log2_gauge)


def get_gauge(name: str) -> FGauge:
    try:
        return _GAUGES[name]
    except KeyError:
        raise InputError(f"unknown gauge {name!r}") from None


@dataclass(frozen=True)
class Lp:
    p: PValue  # None means infinity

    def __post_init__(self):
        if self.p is not None and self.p < 1:
            raise InputError(f"lp requires p >= 1, got {self.p}")


@dataclass(frozen=True)
class LpN:
    p: PValue
    n: int

    def __post_init__(self):
        if self.p is not None and self.p < 1:
            raise InputError(f"lpn requires p >= 1, got {self.p}")
        if self.n < 1:
            raise InputError(f"lpn requires n >= 1, got {self.n}")


@dataclass(frozen=True)
class Tsirelson:
    pass


@dataclass(frozen=True)
class TsirelsonDual:
    pass


@dataclass(frozen=True)
class ModifiedTsirelson:
    pass


@dataclass(frozen=True)
class Schlumprecht:
    gauge: FGauge


@dataclass(frozen=True)
class Repeat:
    inner: "SpaceExpr"


@dataclass(frozen=True)
class Indexed:
    """Template with `#` standing for the outer coordinate index."""

    template: str  # whitespace-stripped canonical text

    def __post_init__(self):
        # Instantiating at 1 catches template nonsense at construction time.
        self.at(1)

    def at(self, k: int) -> "SpaceExpr":
        if k < 1:
            raise InputError(f"coordinate index must be >= 1, got {k}")
        return _instantiate(self.template, k)


InnerFamily = Union[Repeat, Indexed]


@dataclass(frozen=True)
class Sum:
    outer: "SpaceExpr"
    inner: InnerFamily

    def __post_init__(self):
        if isinstance(self.outer, Sum):
            raise InputError("the outer space of a sum must be a depth-1 space")
        if space_depth(self) - 1 > MAX_NESTING:
            raise InputError(f"sums nested deeper than {MAX_NESTING}")

    def inner_at(self, k: int) -> "SpaceExpr":
        if isinstance(self.inner, Repeat):
            return self.inner.inner
        return self.inner.at(k)


SpaceExpr = Union[Lp, LpN, Tsirelson, TsirelsonDual, ModifiedTsirelson, Schlumprecht, Sum]


@lru_cache(maxsize=4096)
def _instantiate(template: str, k: int) -> SpaceExpr:
    return parse_space(template.replace("#", str(k)))


# -- parser ------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.sums = 0  # sums nest in a chain, so this is their nesting

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str):
        if self.peek() != char:
            self.error(f"expected {char!r}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "(),":
            self.pos += 1
        # whitespace-insensitive grammar: inner spaces never separate tokens
        return "".join(self.text[start:self.pos].split())

    def pvalue(self) -> PValue:
        token = self.word()
        if token == "inf":
            return None
        if not token:
            self.error("expected a rational or 'inf'")
        value = parse_rational(token)
        if value < 1:
            raise InputError(f"p must be >= 1 or inf, got {value}")
        return value

    def integer(self) -> int:
        token = self.word()
        try:
            return int(token)
        except ValueError:
            self.error(f"expected an integer, got {token!r}")

    def balanced(self) -> str:
        """Raw text up to the matching close paren of an already-open group."""
        self.skip_ws()
        start = self.pos
        level = 0
        while self.pos < len(self.text):
            char = self.text[self.pos]
            if char == "(":
                level += 1
            elif char == ")":
                if level == 0:
                    return self.text[start:self.pos]
                level -= 1
            self.pos += 1
        self.error("unbalanced parentheses")

    def expr(self) -> SpaceExpr:
        head = self.word()
        if head == "T":
            return Tsirelson()
        if head == "T*":
            return TsirelsonDual()
        if head == "M":
            return ModifiedTsirelson()
        if head == "c0":
            return Lp(None)
        if head == "l1":
            return Lp(Fraction(1))
        if head == "lp":
            self.expect("(")
            p = self.pvalue()
            self.expect(")")
            return Lp(p)
        if head == "lpn":
            self.expect("(")
            p = self.pvalue()
            self.expect(",")
            n = self.integer()
            self.expect(")")
            return LpN(p, n)
        if head == "S":
            self.expect("(")
            name = self.word()
            self.expect(")")
            return Schlumprecht(get_gauge(name))
        if head == "sum":
            self.sums += 1
            if self.sums > MAX_NESTING:
                self.error(f"sums nested deeper than {MAX_NESTING}")
            self.expect("(")
            outer = self.expr()
            self.expect(",")
            inner = self.inner_family()
            self.expect(")")
            return Sum(outer, inner)
        self.error(f"unknown space {head!r}")

    def inner_family(self) -> InnerFamily:
        head = self.word()
        if head == "repeat":
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return Repeat(inner)
        if head == "indexed":
            self.expect("(")
            template = self.balanced()
            self.expect(")")
            stripped = "".join(template.split())
            if "#" not in stripped:
                raise InputError("indexed(...) template must contain '#'")
            return Indexed(stripped)
        self.error(f"expected repeat(...) or indexed(...), got {head!r}")


def parse_space(text: str) -> SpaceExpr:
    parser = _Parser(text)
    expr = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input after space expression")
    return expr


def _format_p(p: PValue) -> str:
    return "inf" if p is None else str(p)


def format_space(expr: SpaceExpr) -> str:
    """Canonical formatter; parse_space(format_space(e)) == e."""
    if isinstance(expr, Lp):
        if expr.p is None:
            return "c0"
        if expr.p == 1:
            return "l1"
        return f"lp({expr.p})"
    if isinstance(expr, LpN):
        return f"lpn({_format_p(expr.p)},{expr.n})"
    if isinstance(expr, Tsirelson):
        return "T"
    if isinstance(expr, TsirelsonDual):
        return "T*"
    if isinstance(expr, ModifiedTsirelson):
        return "M"
    if isinstance(expr, Schlumprecht):
        return f"S({expr.gauge.name})"
    if isinstance(expr, Sum):
        if isinstance(expr.inner, Repeat):
            inner = f"repeat({format_space(expr.inner.inner)})"
        else:
            inner = f"indexed({expr.inner.template})"
        return f"sum({format_space(expr.outer)},{inner})"
    raise InputError(f"not a space expression: {expr!r}")


def space_depth(expr: SpaceExpr) -> int:
    """Coordinate-path depth of vectors in the space."""
    if isinstance(expr, Sum):
        return 1 + space_depth(expr.inner_at(1))
    return 1


def validate_vector(space: SpaceExpr, x: SparseVec) -> None:
    """Check every path of x against the space tree; raise on the first
    offending path (lexicographic order)."""
    if not x:
        return
    expected = space_depth(space)
    for path in x.support():
        if len(path) != expected:
            raise InputError(
                f"path {'.'.join(map(str, path))} has depth {len(path)}, "
                f"space has depth {expected}"
            )
        _validate_path(space, path, path)


def _validate_path(space: SpaceExpr, path: tuple, full: tuple) -> None:
    index = path[0]
    # the leading index runs along the outer basis of a sum
    bound = space.outer if isinstance(space, Sum) else space
    if isinstance(bound, LpN) and index > bound.n:
        raise InputError(
            f"path {'.'.join(map(str, full))}: index {index} exceeds "
            f"lpn width {bound.n}"
        )
    if isinstance(space, Sum):
        _validate_path(space.inner_at(index), path[1:], full)
