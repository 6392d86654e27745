"""Clipped-position classes: the clip, its proof and its enumeration.

Sets S = {s_0 < ... < s_{m-1}} and S' of one size are in one class at
slack d when their clipped positions min(s_i, m - i + d) agree.

Order isomorphism (d = 0).  A functional of the Tsirelson norming set K
is +-e_p or 1/2 (f_1 + ... + f_n) with f_j in K of successive supports
and n <= min supp f_1.  If supp f_1 starts at s_i, then n <= m - i, so
n <= s_i iff n <= min(s_i, m - i).  That is every admissibility test in
a functional's tree, so the order isomorphism S -> S' maps K_S onto K_S'
term by term, with the same coefficients.

Prefix.  s_i rises while m - i + d falls, so the unclipped s_i < m - i + d
form a prefix u_0 < ... < u_{r-1}, and a class is m and that prefix.
Its members in [1, N] end in any m - r points of [L, N],
L = max(m - r + d, u_{r-1} + 1) (u_{-1} = 0): C(N - L + 1, m - r) sets,
the first in `nonempty_subsets` order ending in L, ..., L + m - r - 1.

Canonical positions (d = 0, m <= caps.dual).  rep(S) keeps the prefix
and puts r_i = 2 caps.dual - (m - 1 - i) past it.  It (a) increases
strictly up to 2 caps.dual, as the prefix lies below m <= caps.dual < r_i;
(b) lies in the class of S, as r_i >= m - i; (c) has rep(S)[1:] =
rep(S[1:]), as dropping s_0 leaves each later point its bound and r_i.
"""

from math import comb

from .caps import Caps


def clipped_class(positions, slack: int) -> tuple:
    """min(s_i, m - i + slack) over sorted positions s_0 < ... < s_{m-1}."""
    return tuple(min(p, len(positions) + slack - i) for i, p in enumerate(positions))


def canonical_positions(subset: tuple, caps: Caps) -> tuple:
    """rep(S) of sorted S: s_i where s_i < m - i, else 2 caps.dual - (m - 1 - i)."""
    m = len(subset)
    caps.check("dual", m)  # past it rep(S) need not increase
    return tuple(p if p < m - i else 2 * caps.dual - (m - 1 - i) for i, p in enumerate(subset))


def subset_classes(n: int, slack: int) -> list[tuple[int, tuple]]:
    """(size, first member) per class of the nonempty subsets of [1, n] at
    `slack`, found by extending prefixes by points below their bounds, in
    the `nonempty_subsets` order of the first members."""
    classes, stack = [], [((), m, 1) for m in range(1, n + 1)]
    while stack:
        prefix, tail, low = stack.pop()  # `tail` more points, each >= low
        top = min(tail + slack, n - tail + 2) if tail else low  # below the bound, with room
        stack += ((prefix + (v,), tail - 1, v + 1) for v in range(low, top))
        start = max(tail + slack, low)
        if start + tail - 1 <= n:
            classes.append((comb(n - start + 1, tail), prefix + tuple(range(start, start + tail))))
    return sorted(classes, key=lambda c: (len(c[1]), c[1]))
