"""Clipped-position classes of sets and order-type classes of pairs:
each with its proof and its enumeration.

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
from typing import Iterator

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


def packed_member(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """(a, b) with each value replaced by its rank in a | b: the packed
    member of the order type of (a, b) (`pair_classes`)."""
    rank = [0, *sorted({*a, *b})].index
    return tuple(map(rank, a)), tuple(map(rank, b))


def pair_classes(k: int, n: int) -> Iterator[tuple[tuple, tuple]]:
    """The packed member of each order type of pairs a < b of k-subsets
    whose u distinct values satisfy u <= n, in lexicographic order.

    The order type of (a, b) is the merge of a_1 < ... < a_k with
    b_1 < ... < b_k: a path of steps that take the next value of a only
    (an a-step), of b only (a b-step) or of both (a tie a_i = b_j).  Its
    packed member writes the u values of a | b as 1, ..., u.  It is the
    type's coordinatewise least member, so its first in lexicographic
    order, and it lies in [n] exactly when u <= n.  a < b exactly when the
    first step that is not a tie is an a-step.  Of the D(k) paths (the
    central Delannoy numbers, OEIS A001850) one is all ties, and the rest
    pair up as (a, b) and (b, a): (D(k) - 1) / 2 types, 1, 6, 31, 160, 841
    for k = 1, ..., 5, all present once n >= 2k.

    For `prop73` and `xpq` images under the hamming, johnson and every
    d_e metric, d(a, b) and ||f(a) - f(b)|| depend only on the type.
    Hamming and d_e read the indices i with a_i != b_i, johnson |a & b|,
    and the merge fixes both.  Copy i of a `prop73` difference holds
    e_{a_i} - e_{b_i} when a_i != b_i, of T* norm 2: at least 2 by
    y = e_s + e_t, of T norm 1, at most 2 by the triangle inequality, and
    T* is 1-unconditional.  So its outer lp norm reads only the set of
    differing copies.  The j-th `xpq` branch vector sits at the node that
    a_1, ..., a_j fix (through the gaps), so two images agree up to the
    first j with a_j != b_j, and from there lie in two disjoint subtrees
    of one shape, a's at the lower copy.  Every level is an lp-sum of
    copies of one space, so the norm, and the order in which its float
    sums meet their terms, depend on j only.  So the report over every
    pair of [n]^k is the one over these members in this order (the first
    pair attaining a ratio is the first member of its type), with
    C(C(n, k), 2) pairs.  Pure order type suffices only by the T* fact:
    parts of more points would need clipped positions in the key too.

    Of two k-subsets, the lexicographically first holds the first value
    where they differ.  So two depth-first passes over the merge steps
    give the members in order.  The first makes each value a value of a
    (an a-step or a tie, tried first) or a b-step, which fixes a; the
    second makes each value of a a tie (tried first) or an a-step, which
    fixes b, whose values left over are b-steps past max a.  A step is
    taken only if a member can follow, so the walk visits no path it
    does not yield: the first step that is not a tie is an a-step (1 is
    in a, and not every value of a below the first b-step is a tie), at
    most k values below max a are b-steps, and the steps left fit below n.
    """
    if k < 1 or n <= k:
        return
    walk = [((1,), 1)]  # (a so far, values decided)
    while walk:
        a, v = walk.pop()
        if len(a) < k:
            left = k - len(a)  # values of a still to come
            if v - len(a) < k and v + left < n:
                walk.append((a, v + 1))
            if v + left <= n:
                walk.append((a + (v + 1,), v + 1))
            continue
        top = a[-1]
        most = k - (top - k)  # ties: b holds the top - k b-steps below top
        fewest = most - (n - top)  # and at most n - top past it
        prefix = next((j for j in range(k) if a[j] != j + 1), k)  # a below the first b-step
        steps = [((), 0, 0, False)]  # (b so far, index into a, ties, an a-step taken)
        while steps:
            b, j, t, split = steps.pop()
            if j == k:
                yield a, b + tuple(range(top + 1, top + 1 + k - len(b)))
                continue
            b += tuple(range(a[j - 1] + 1 if j else 1, a[j]))  # the b-steps before a_j
            if t + k - j - 1 >= fewest:
                steps.append((b, j + 1, t, True))
            if t < most and (split or j < prefix - 1):
                steps.append((b + (a[j],), j + 1, t + 1, split))
