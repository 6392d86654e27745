"""Norm evaluators for every space expression.

The Tsirelson norm is computed by dynamic programming over sub-ranges of
the support.  The defining supremum runs over admissible families of
successive finite sets, but replacing each set by its interval hull
never decreases a part's norm (suppression unconditionality) and
preserves admissibility, so it suffices to search interval partitions of
a tail of the support; dropping leading support points is what buys a
larger admissible part count.  This reduction is *tested* against the
set-family oracle `brute_force_tsirelson`, not assumed; that oracle and
the other exhaustive reference routes live in `oracles`, apart from
these evaluators.

The DP runs bottom-up in integers.  Coefficients are scaled by
lcm(denominators) * 2^(m-1) for a support of size m; a functional's
depth is at most m-1, so every value is an integer and every halving is
an exact `>> 1`.  Only one part count is evaluated per start s of an
interval [i..j]: n = min(pos[s], j-s+1), the largest admissible one.
The best sum of part norms over splits into n chunks is nondecreasing
in n, because splitting a chunk cannot lower the sum (triangle
inequality), so the largest n attains the maximum over all n.  The
witness functional makes the choices a scan of every (coordinate, s, n,
split) with strict improvement would make: the first maximal coordinate
when it attains the norm, else the smallest s, the smallest n and the
first split attaining it.  These are recovered lazily, only along the
witness path.

The modified norm, a maximum over families of disjoint sets, is an
integer bitmask subset DP with the same scaling: support point i is bit
i, masks are filled in increasing order (every submask comes first),
and a partition of a mask into n parts is searched with the part
holding its lowest bit first.  As in the T DP, only the part counts
that can win are searched.  n parts on mask S use the points V_n of S
at positions >= n.  Splitting a part cannot lower the sum of part
norms, and V_k = V_n for n <= k <= min V_n, so k = min(|V_n|, min V_n)
dominates counts n..k.  When min supp >= |supp| only |supp| is left,
the split into points: M(x) = max(|x|_inf, |x|_1 / 2).  The
partition-scaled (gauge) norm is a bottom-up interval DP in floats,
shaped like the Tsirelson loop but without the admissibility
constraint: it fills every part count and weighs each by its own
1/f(k), so the two keep separate loops.
`lp_norm` evaluates lp vectors and the lp outer norms of sums alike, and
shares one float-range routine with the gauge norm.  Every recursion
bottoms out in coordinate absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import inf, isinf, lcm
from operator import add
from typing import Optional

from .caps import Caps, get_caps
from .classes import clipped_class
from .errors import InputError
from .spaces import (
    Lp,
    LpN,
    ModifiedTsirelson,
    Schlumprecht,
    SpaceExpr,
    Sum,
    Tsirelson,
    TsirelsonDual,
    validate_vector,
)
from .vectors import SparseVec, inner_product


# -- families of successive sets ----------------------------------------


def chunkings(seq: tuple, n: int):
    """Splits of a sorted tuple into n consecutive nonempty chunks."""
    m = len(seq)
    if n > m:
        return
    for cuts in combinations(range(1, m), n - 1):
        parts, prev = [], 0
        for cut in cuts + (m,):
            parts.append(seq[prev:cut])
            prev = cut
        yield parts


def nonempty_subsets(seq: tuple):
    """Nonempty subsets of a tuple by size, each in combinations order."""
    for r in range(1, len(seq) + 1):
        yield from combinations(seq, r)


# -- Tsirelson norm (interval DP) ----------------------------------------


class _TsirelsonDP:
    """Integer interval DP over the support of x, bottom-up.

    `table[i][j]` is the norm of x restricted to support points i..j,
    times `scale`.  A family candidate for [i..j] starts at some s >= i
    and takes n = min(pos[s], j-s+1) chunks of [s..j].  For a fixed
    right end j, `sums[k][a]` is the best sum of part norms over splits
    of [a..j] into k chunks (`sums[1]` is column j of the table).  It is
    filled only for the k a family can have left at a: at most
    min(pos[a], j-a+1), and at least min(pos[0]-a, j-a+1), since a family
    starting at s <= a has used at most a-s chunks before a.
    """

    def __init__(self, x: SparseVec):
        pos = self.pos = [p[0] for p in x.support()]
        coef = [x[(p,)] for p in pos]
        m = len(pos)
        self.negative = [c < 0 for c in coef]
        # depth is at most m-1, so every halving below stays exact
        self.scale = lcm(*(c.denominator for c in coef)) << max(m - 1, 0)
        mag = self.mag = [abs(c.numerator) * (self.scale // c.denominator) for c in coef]
        table = self.table = [[0] * m for _ in range(m)]
        self.sum_memo: dict = {}
        for j in range(m):
            sums = [[0] * (j + 2) for _ in range(min(pos[j], j + 1) + 1)]
            coord = family = 0
            for i in range(j, -1, -1):
                row = table[i]
                length = j - i + 1
                n = min(pos[i], length)
                # first chunk [i..t], then k-1 chunks of [t+1..j]
                for k in range(max(2, min(pos[0] - i, length)), n + 1):
                    sums[k][i] = max(map(add, row[i : j - k + 2], sums[k - 1][i + 1 : j - k + 3]))
                if mag[i] > coord:
                    coord = mag[i]
                if n >= 2 and sums[n][i] >> 1 > family:
                    family = sums[n][i] >> 1
                row[j] = sums[1][i] = max(coord, family)

    def value(self) -> Fraction:
        if not self.pos:
            return Fraction(0)
        return Fraction(self.table[0][-1], self.scale)

    def best_sum(self, s: int, j: int, n: int) -> int:
        """Max of sum of part norms over splits of [s..j] into n chunks;
        computed on demand for the witness path only."""
        if n == 1:
            return self.table[s][j]
        key = (s, j, n)
        if key not in self.sum_memo:
            row = self.table[s]
            self.sum_memo[key] = max(
                row[t] + self.best_sum(t + 1, j, n - 1) for t in range(s, j - n + 2)
            )
        return self.sum_memo[key]

    def witness(self, i: int, j: int, level: int, coeffs: dict) -> int:
        """Write the functional attaining norm(i, j), scaled by 2^-level,
        into coeffs and return its generation depth.

        The choice is the one a full scan over (coordinate, s, n, split)
        with strict improvement makes: the first maximal coordinate if it
        attains the norm, else the smallest s, then the smallest n, then
        the first split attaining it."""
        value = self.table[i][j]
        for t in range(i, j + 1):
            if self.mag[t] == value:
                coeffs[self.pos[t]] = Fraction(-1 if self.negative[t] else 1, 1 << level)
                return 0
        twice = 2 * value
        for s in range(i, j + 1):
            top = min(self.pos[s], j - s + 1)
            if top >= 2 and self.best_sum(s, j, top) == twice:
                break
        n = next(n for n in range(2, top + 1) if self.best_sum(s, j, n) == twice)
        depth = 0
        for left in range(n, 1, -1):
            total = self.best_sum(s, j, left)
            row = self.table[s]
            t = next(
                t for t in range(s, j - left + 2)
                if row[t] + self.best_sum(t + 1, j, left - 1) == total
            )
            depth = max(depth, self.witness(s, t, level + 1, coeffs))
            s = t + 1
        return max(depth, self.witness(s, j, level + 1, coeffs)) + 1


def tsirelson_norm(x: SparseVec) -> Fraction:
    if x and x.depth != 1:
        raise InputError("the Tsirelson norm is defined on depth-1 vectors")
    return _TsirelsonDP(x).value()


def tsirelson_norm_witness(x: SparseVec) -> tuple[Fraction, dict, int]:
    """Norm together with coefficients and depth of an attaining functional."""
    dp = _TsirelsonDP(x)
    value = dp.value()
    if not x:
        return value, {}, 0
    coeffs: dict = {}
    depth = dp.witness(0, len(dp.pos) - 1, 0, coeffs)
    return value, coeffs, depth


# -- modified Tsirelson norm ----------------------------------------------


def modified_norm(x: SparseVec, caps: Optional[Caps] = None) -> Fraction:
    """Max over families of disjoint nonempty sets, every part with
    minimum >= the part count, by an integer bitmask subset DP.

    `norm[S]` is the norm of x restricted to the support points in mask
    S, times lcm(denominators) * 2^(m-1).  A family of n parts may use
    the points S & elig[n] (position >= n), and uses all of them: the
    norm is unconditional, so adding a point to a part never lowers it.
    The module docstring shows which counts are searched.  The search
    over set partitions is exponential, hence the cap."""
    caps = caps or get_caps()
    if x and x.depth != 1:
        raise InputError("the modified norm is defined on depth-1 vectors")
    caps.check("modified", len(x))
    if not x:
        return Fraction(0)
    pos = [p[0] for p in x.support()]
    coef = [x[(p,)] for p in pos]
    m = len(pos)
    scale = lcm(*(c.denominator for c in coef)) << (m - 1)
    mag = [abs(c.numerator) * (scale // c.denominator) for c in coef]
    elig = [sum(1 << i for i in range(m) if pos[i] >= n) for n in range(m + 2)]
    size, total, top = [0] * (1 << m), [0] * (1 << m), [0] * (1 << m)
    for S in range(1, 1 << m):  # |S|, sum and max of mag from S minus its low bit
        rest = S & (S - 1)
        a = mag[(S ^ rest).bit_length() - 1]
        size[S] = size[rest] + 1
        total[S] = total[rest] + a
        top[S] = a if a > top[rest] else top[rest]
    norm = [0] * (1 << m)
    # parts[n][V]: best sum of part norms over partitions of V into n
    # parts, -1 until computed; one part is the norm itself
    parts = [norm, norm] + [[-1] * (1 << m) for _ in range(2, m + 1)]

    def best_partition(V: int, n: int) -> int:
        """Fill parts[n][V], total[V] if each part is a point.  Else the
        part holding the lowest bit of V comes first; the walk over its
        other members keeps the splits leaving n-1 points for the rest."""
        if size[V] == n:
            parts[n][V] = total[V]
            return total[V]
        low = V & -V
        rest = V ^ low
        tails = parts[n - 1]
        best = 0
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            remaining = rest ^ sub
            if size[remaining] >= n - 1:
                tail = tails[remaining]
                if tail < 0:
                    tail = best_partition(remaining, n - 1)
                cand = norm[low | sub] + tail
                if cand > best:
                    best = cand
        parts[n][V] = best
        return best

    for S in range(1, 1 << m):
        best, n = top[S], 2
        while size[V := S & elig[n]] >= n:
            n = min(size[V], pos[(V & -V).bit_length() - 1])  # the count that wins on V
            found = parts[n][V]
            if found < 0:
                found = best_partition(V, n)
            if found >> 1 > best:
                best = found >> 1
            n += 1
        norm[S] = best
    return Fraction(norm[-1], scale)


# -- partition-scaled (gauge) and finite lp norms -------------------------


def _in_float_range(kernel, values: list, name: str) -> float:
    """kernel(values as floats), or where a value or the result overflows,
    the maximum times kernel(values / maximum), each quotient exact until
    rounded; a result beyond the float range is an input error."""
    try:
        value = kernel([float(v) for v in values])
    except OverflowError:
        value = inf
    if isinf(value):
        top = Fraction(max(values))
        try:
            value = float(top) * kernel([float(Fraction(v) / top) for v in values])
        except OverflowError:
            value = inf
        if isinf(value):
            raise InputError(f"the {name} norm exceeds the float range")
    return value


def gauge_norm(x: SparseVec, gauge) -> float:
    """Interval DP without the admissibility constraint; each family of k
    successive parts is scaled by 1/f(k).  Float-valued since the gauges
    are irrational, and kept in the float range as `lp_norm` is."""
    if x and x.depth != 1:
        raise InputError("the gauge norm is defined on depth-1 vectors")
    coef = [abs(x[p]) for p in x.support()]
    f = [None, None] + [gauge(k) for k in range(2, len(coef) + 1)]
    # an overflowed part sum is inf and carries up to the whole support
    return _in_float_range(lambda mag: _gauge_dp(mag, f), coef, "gauge")


def _gauge_dp(mag: list, f: list) -> float:
    """Bottom-up like `_TsirelsonDP`: `table[i][j]` is the norm of the
    coefficients i..j, and for a fixed right end j, `sums[k][a]` is the
    best sum of part norms over splits of [a..j] into k chunks.  Every k
    is filled and weighed by 1/f[k]."""
    m = len(mag)
    table = [[0.0] * m for _ in range(m)]
    for j in range(m):
        sums = [[0.0] * (j + 2) for _ in range(j + 2)]
        coord = 0.0
        for i in range(j, -1, -1):
            row = table[i]
            coord = max(coord, mag[i])
            best = coord
            # first chunk [i..t], then k-1 chunks of [t+1..j]
            for k in range(2, j - i + 2):
                total = sums[k][i] = max(map(add, row[i : j - k + 2], sums[k - 1][i + 1 : j - k + 3]))
                best = max(best, total / f[k])
            row[j] = sums[1][i] = best
    return table[0][-1] if m else 0.0


def lp_norm(values, p) -> Fraction | float:
    """lp norm of nonnegative `Fraction`s or floats (p None for inf), a
    float if any value is one.  p = 1 sums the exact integer ratios over
    the lcm of their denominators and p = inf keeps the largest, each
    rounded once.  Other p drop zeros, return a lone value as it is, and
    take the float root of the sum of powers in `_in_float_range`."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    inexact = float in map(type, values)
    if p is None or p == 1:
        num, den = 0, 1
        for v in values:
            n, d = v.as_integer_ratio()
            if p is None:
                if n * den > num * d:
                    num, den = n, d
            elif den % d:
                common = lcm(den, d)
                num, den = num * (common // den) + n * (common // d), common
            else:
                num += n * (den // d)
        if inexact:
            return _rounded(num, den, "l1" if p else "linf")
        # an integer builds its Fraction without a gcd
        return Fraction(num) if den == 1 else Fraction(num, den)
    values = [v for v in values if v] or [Fraction(0)]
    if len(values) == 1:
        return float(values[0]) if inexact else values[0]
    expo = float(p)
    return _in_float_range(lambda floats: sum(v**expo for v in floats) ** (1.0 / expo), values, f"l{p}")


def _rounded(num: int, den: int, name: str) -> float:
    """num / den rounded once; an input error past the float range."""
    try:
        return num / den
    except OverflowError:
        raise InputError(f"the {name} norm exceeds the float range") from None


# -- the engine ---------------------------------------------------------------


_COSTLY = (Tsirelson, TsirelsonDual, ModifiedTsirelson, Schlumprecht)


class NormEngine:
    """Norm evaluator bound to one space expression.

    Only engines over T, T*, M and S(f) memoize: their evaluators are a
    DP, an LP or a partition search, and the parts of a `Sum` repeat
    across the vectors of a scan.  The top level of a `Sum` and the lp
    spaces evaluate directly: a scan seldom hands the top level one
    vector twice, and an lp norm of a few terms costs less than hashing
    its key.  M and S(f) key their memo by the vector, T and T* by the
    class of supp x at slack 0 (`classes`) paired with the |x_i|, and on
    a miss evaluate x itself.  `_TsirelsonDP` reads |x_i|, and positions
    only through part counts min(pos[s], j - s + 1), j - s + 1 <= m - s
    (its lowest count, from pos[0], skips only counts no family reaches).
    The T* LP is one program on each support of a class, and +-K_S is
    closed under sign flips, so the signs of x do not change its value.

    A distortion scan takes ||f(a) - f(b)|| over every pair without
    building f(a) - f(b).  `_split` cuts each image of a `Sum` into its
    summand parts once, splits each part in a nested `Sum` in turn, and
    interns the parts per summand (a split one by the identities of its
    own parts), so equal parts are one object at every level, alive as
    long as the engine.  A pair descends only into summands whose parts
    differ, and costs a few dict lookups on small ints:
    - each engine hands its norms to a pair path as codes, indices into
      `_values`, interned by (value, type), so Fraction(2) and 2.0 stay
      apart;
    - the pair memo maps (k, id(part of f(a)), id(part of f(b))) to
      (k, code of the part norm) for a summand that is not a nested
      `Sum`, and for a nested part that the other image lacks (at most
      2 P_k entries for P_k distinct parts in summand k).  Where the
      summand's engine memoizes, it holds at most P_k (P_k - 1)
      entries, as that engine's own memo may; over an lp summand, whose
      P_k can reach the number of images, it stops at `_memo_bound`.  A
      memo on the other nested pairs would grow with the pair count;
    - the pattern memo `_outers` maps the tuple of (k, code) over the
      differing summands in increasing k, a nested summand's code being
      its own engine's, to the code of the outer norm, and stops at
      `_memo_bound`, the number of parts interned.  A miss takes
      `_outer_norm` of the same part values in the same k order.
    `_pair_code` returns (code, value), the code None past a bound: the
    value is then neither stored nor interned, and a parent that meets
    it takes its own outer norm directly and returns that uncoded too.
    The summands of a `Repeat` share one engine.

    The outer norm of a `Sum` takes the part norms in increasing k, as
    they are through `lp_norm` for an lp outer, and through any other
    outer's engine as the vector of the nonzero ones.

    `norm` is the validating edge: it checks x against the space once
    and hands it to the unchecked `_norm`.  A valid vector of a `Sum`
    has valid parts and a valid outer vector, since validation walks
    every path through every level, so `_sum_norm` passes them on to
    `_norm` unchecked.

    Single-writer: the memo mutates, so share one instance per thread.
    Distinct instances over the same space produce identical values.
    """

    def __init__(self, space: SpaceExpr, caps: Optional[Caps] = None):
        self.space = space
        self.caps = caps or get_caps()
        self._memo: Optional[dict] = {} if isinstance(space, _COSTLY) else None
        self._by_class = isinstance(space, (Tsirelson, TsirelsonDual))
        self._outer = NormEngine(space.outer, self.caps) if isinstance(space, Sum) else None
        self._inner: dict[int, NormEngine] = {}
        self._nested = isinstance(space, Sum) and isinstance(space.inner_at(1), Sum)
        # for `_split` and `_pair_code` over a `Sum`
        self._parts: dict[tuple, SparseVec | dict] = {}
        self._pairs: dict[tuple, tuple] = {}
        self._outers: dict[tuple, int] = {}
        # the norms this engine has handed to a pair path, by code
        self._codes: dict[tuple, int] = {}
        self._values: list[Fraction | float] = []

    def norm(self, x: SparseVec) -> Fraction | float:
        validate_vector(self.space, x)
        return self._norm(x)

    def _norm(self, x: SparseVec) -> Fraction | float:
        """Memo lookup and evaluation, without checking x: give it only
        vectors already validated against this engine's space, or built
        by arithmetic from such vectors."""
        memo = self._memo
        if memo is None:
            return self._evaluate(x)
        key = x
        if self._by_class:
            items = sorted(x.items())
            key = tuple(zip(clipped_class([p for (p,), _ in items], 0), (abs(v) for _, v in items)))
        value = memo.get(key)
        if value is None:
            value = memo[key] = self._evaluate(x)
        return value

    def _evaluate(self, x: SparseVec):
        space = self.space
        if isinstance(space, (Lp, LpN)):
            return lp_norm((abs(v) for _, v in x.items()), space.p)
        if isinstance(space, Tsirelson):
            return tsirelson_norm(x)
        if isinstance(space, ModifiedTsirelson):
            return modified_norm(x, self.caps)
        if isinstance(space, Schlumprecht):
            return gauge_norm(x, space.gauge)
        if isinstance(space, TsirelsonDual):
            from .dual import dual_norm

            return dual_norm(x, self.caps).value
        if isinstance(space, Sum):
            return self._sum_norm(space, x)
        raise InputError(f"no norm evaluator for {space!r}")

    def _sum_norm(self, space: Sum, x: SparseVec):
        if not x:
            return Fraction(0)
        groups = x.leading_groups().items()
        return self._outer_norm({k: self._inner_engine(space, k)._norm(part) for k, part in groups})

    def _split(self, x: SparseVec) -> dict:
        """The parts of a valid vector of this `Sum` by summand, in
        increasing k, each interned per summand for `_pair_code`.  A part
        in a nested `Sum` is split in turn and interned as its split,
        under its summand indices and the identities of its own parts."""
        seen, split = self._parts, {}
        for k, part in (x.leading_groups().items() if x else ()):
            inner = self._inner_engine(self.space, k)
            if isinstance(inner.space, Sum):
                part = inner._split(part)
                key = (k, *part.keys(), *map(id, part.values()))
            else:
                key = (k, part)
            split[k] = seen.setdefault(key, part)
        return split

    def _pair_norm(self, a: dict, b: dict):
        """||x - y|| for the `_split`s a of x and b of y: the value
        `_sum_norm` gives, without building x - y."""
        return self._pair_code(a, b)[1]

    def _pair_code(self, a: dict, b: dict) -> tuple:
        """(code, ||x - y||) for the `_split`s a of x and b of y, the code
        that of the value in `_values`, or None where it is not stored."""
        pairs, inner = self._pairs, self._inner
        nested = self._nested
        pattern, loose = [], None
        for k in a.keys() if a.keys() == b.keys() else sorted(a.keys() | b.keys()):
            part_a = a.get(k)
            part_b = b.get(k)
            if part_a is part_b:
                continue
            if nested and part_a is not None and part_b is not None:
                code, value = inner[k]._pair_code(part_a, part_b)
                entry = (k, code)
            else:
                key = (k, id(part_a), id(part_b))
                entry = pairs.get(key)
                if entry is None:
                    entry, value = self._part_entry(key, inner[k], part_a, part_b)
            if entry[1] is None:
                if loose is None:
                    loose = {}
                loose[k] = value
            pattern.append(entry)
        pattern = tuple(pattern)
        outers = self._outers
        code = None if loose else outers.get(pattern)
        if code is None:
            value = self._outer_norm(
                {k: loose[k] if c is None else inner[k]._values[c] for k, c in pattern}
            )
            if loose or len(outers) >= self._memo_bound():
                return None, value
            code = outers[pattern] = self._code(value)
        return code, self._values[code]

    def _part_entry(self, key: tuple, engine: "NormEngine", part_a, part_b) -> tuple:
        """((k, code), value) of summand k's part norm for a pair missing
        from the pair memo, the entry stored there.  A nested summand
        comes here only for a part the other image lacks, at most 2 P_k
        entries, always stored; a summand whose engine keeps no memo of
        its own stores only below `_memo_bound`, and past it returns the
        entry (k, None) without interning the value."""
        if isinstance(engine.space, Sum):
            value = engine._pair_code(part_a or {}, part_b or {})[1]
        else:
            if part_a is None or part_b is None:
                value = engine._norm(-part_b if part_a is None else part_a)
            else:
                value = engine._norm(part_a - part_b)
            if engine._memo is None and len(self._pairs) >= self._memo_bound():
                return (key[0], None), value
        entry = self._pairs[key] = (key[0], engine._code(value))
        return entry, value

    def _memo_bound(self) -> int:
        """Most patterns `_outers` holds, and the pair memo size past which
        a summand whose engine keeps no memo stores no more: the number of
        parts `_split` has interned, so both grow with the images, not
        with the pairs."""
        return len(self._parts)

    def _code(self, value) -> int:
        """The code of a norm value in this engine's `_values`, keyed by
        its type too, so that Fraction(2) and 2.0 stay apart."""
        key = (value, type(value))
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self._values)
            self._values.append(value)
        return code

    def _outer_norm(self, part_norms: dict[int, Fraction | float]):
        """The outer norm of the inner norms by summand, given in
        increasing k; a float if any of them is one."""
        outer = self.space.outer
        if isinstance(outer, (Lp, LpN)):
            return lp_norm(part_norms.values(), outer.p)
        # the nonzero part norms as Fractions make a canonical outer vector
        entries = {(k,): Fraction(v) for k, v in part_norms.items() if v}
        value = self._outer._norm(SparseVec._clean(entries, 1))
        if isinstance(value, Fraction) and float in map(type, part_norms.values()):
            return _rounded(value.numerator, value.denominator, "outer")
        return value

    def _inner_engine(self, space: Sum, k: int) -> "NormEngine":
        if k not in self._inner:
            inner = space.inner_at(k)
            same = (e for e in self._inner.values() if e.space is inner)
            self._inner[k] = next(same, None) or NormEngine(inner, self.caps)
        return self._inner[k]


# -- norming set of the Tsirelson norm ---------------------------------------
#
# The minimal set K with {±e_j*} ⊆ K that is closed under
# f = (f_1 + ... + f_n)/2 over successive supports with n <= min supp(f_1).
# Every coefficient is ±2^-d; the enumeration of K is in `oracles`.


@dataclass(frozen=True)
class Functional:
    """Element of the norming set: rational coefficients, generation depth."""

    coefficients: SparseVec
    depth: int

    def __call__(self, y: SparseVec) -> Fraction:
        return inner_product(self.coefficients, y)

    def __neg__(self) -> "Functional":
        return Functional(-self.coefficients, self.depth)

    @cached_property
    def scaled_terms(self) -> tuple[tuple[int, int], ...]:
        """(p, 2^depth c_p) for the coefficients c_p of a depth-1
        functional: integers, since each c_p is +-2^-i with i <= depth."""
        scale = 1 << self.depth
        return tuple(
            (p, c.numerator * (scale // c.denominator))
            for (p,), c in self.coefficients.items()
        )
