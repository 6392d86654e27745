"""Desk-scale verifiers for the quantitative block inequalities.

The dual-Tsirelson block bounds (2 for families past the first support,
3 past the second), the grid pigeonhole selection with its 1/k proximity
and sign-sum bound 2, and the rectangle decomposition argument are all
checked by exact enumeration or seeded sampling.  Bounds that involve
the equivalence constant between the plain and modified norms are only
known to exist, with no numeric value, so those verifiers report an
empirical maximum instead of asserting; only the explicit constants are
hard assertions.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .caps import Caps, get_caps
from .classes import subset_classes
from .dual import dual01_pool
from .embeddings import ell_infty_equivalence, max_sign_sum
from .errors import CapExceeded, InputError
from .norms import NormEngine, chunkings, modified_norm, nonempty_subsets, tsirelson_norm
from .report import VerifierReport
from .spaces import Repeat, SpaceExpr, Sum, TsirelsonDual, space_depth
from .vectors import SparseVec, format_vector, restrict

ONE = Fraction(1)
DEFAULT_SEED = 1729
RANDOM_MAX_SIZE = 6  # support size cap of the random vectors in `estimate_cm`
BAND_WIDTH = 2  # columns per block in the seeded grid instances
# most grid vectors (k^(k+1) per sample) one hat or c0-subseq run may
# build: one hat instance takes 0.5 s at k = 4, 9 s (50 MB peak) at 5
VECTOR_BUDGET = 10**4


def tt_space() -> SpaceExpr:
    """The dual-Tsirelson sum of dual-Tsirelson copies."""
    return Sum(TsirelsonDual(), Repeat(TsirelsonDual()))


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise InputError(f"{name} must be >= 1, got {value}")


def _grid_instance(k: int, vectors: Iterable[SparseVec]) -> list[SparseVec]:
    """The k^(k+1) vectors of one grid instance, as a list."""
    _require_positive("k", k)
    vecs = list(vectors)
    if len(vecs) != k ** (k + 1):
        raise InputError(f"need k^(k+1) = {k ** (k + 1)} vectors, got {len(vecs)}")
    return vecs


def _check_sampled(k: int, samples: int) -> None:
    """Check the sizes of a sampled hat or c0-subseq run and refuse it past
    the vector budget before building any instance (k^(k+1) is formed
    only while it is within the budget)."""
    _require_positive("k", k)
    _require_positive("samples", samples)
    vectors = samples
    for _ in range(k + 1):
        vectors *= k
        if vectors > VECTOR_BUDGET:
            raise CapExceeded(f"vector budget exceeded: {samples} x {k}^{k + 1} > {VECTOR_BUDGET}")


# -- block inequalities in the dual norm --------------------------------


def _blocks(union: tuple, variant: str) -> Iterator[list]:
    """The splits of `union` into consecutive blocks with the part count
    n at most min supp(x_1) (strict) or, for n > 1, at most min supp(x_2)
    (relaxed), by n and then in `chunkings` order."""
    m = len(union)
    if variant == "strict":
        for n in range(1, min(union[0], m) + 1):
            yield from chunkings(union, n)
        return
    yield [union]
    for n in range(2, m + 1):
        for k in range(1, m - n + 2):  # x_1 = union[:k]
            if n <= union[k]:
                for rest in chunkings(union[k:], n - 1):
                    yield [union[:k], *rest]


def _stirling2(m: int, n: int) -> int:
    """S(m, n): the partitions of m points into n nonempty blocks."""
    row = [1] + [0] * n  # S(i, 0..n), from i = 0
    for _ in range(m):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, n + 1)]
    return row[n]


def _max_disjoint_ratio(positions: tuple, n: int, norm: Callable[[tuple], Fraction]):
    """Max of norm(union) / max_j norm(part_j) over the families of n
    disjoint nonempty parts of `positions`, and the parts of the first
    family attaining it, in the lexicographic order of the labels of the
    positions (0 = unused; label j first appears after label j - 1).

    The walk is depth first in that order, on a set function `norm`
    monotone under inclusion.  Below a node, each union lies inside used
    + rest (the positions labelled so far and those not yet labelled) and
    each part contains its current points, so the node is pruned when
    norm(used + rest) / max_j norm(current part j) is at most the best
    ratio: only ties and worse families go.  At a leaf that bound is the
    family's ratio.  The recursion is len(positions) + 1 deep, at most
    caps.dual + 1 in `estimate_dm`."""
    m = len(positions)
    parts: list[list] = [[] for _ in range(n)]
    best, witness = Fraction(0), None

    def walk(i: int, used: tuple, opened: int, top: Fraction) -> None:
        nonlocal best, witness
        if n - opened > m - i:  # too few positions left to open every label
            return
        if top:
            bound = norm(used + positions[i:]) / top
            if bound <= best:
                return
            if i == m:
                best, witness = bound, [tuple(part) for part in parts]
                return
        walk(i + 1, used, opened, top)
        for label in range(min(opened + 1, n)):
            part = parts[label]
            part.append(positions[i])
            walk(i + 1, used + (positions[i],), max(opened, label + 1), max(top, norm(tuple(part))))
            part.pop()

    walk(0, (), 0, Fraction(0))
    del walk  # its self-reference would keep `norm` alive until a cyclic collection
    return best, witness


def verify_block_c0(
    max_support: int = 10, variant: str = "strict", caps: Optional[Caps] = None
) -> VerifierReport:
    """Compare ||sum x_j|| against max_j ||x_j|| in the dual norm over
    every 0/1 block family in [1, max_support].

    strict:  admissible when the part count n is at most min supp(x_1);
    relaxed: at most min supp(x_2).  The strict bound 2 and relaxed
    bound 3 are hard assertions.

    Only the first union U of each class at slack 1 (`classes`) is
    scanned, its families counted by the class size.  A block starting
    at u_i holds at most |U| - i points, so its slack-0 class is a
    function of the slack-1 class of U.  Relaxed admissibility needs the
    slack: if x_2 starts at u_k, n - 1 <= |U| - k, so n <= u_k binds up
    to n = |U| - k + 1.  A class's first union comes first, so the
    witness is the first attaining family of the full enumeration.  The
    dual norms are integer pairs, their ratios cross-multiplied.
    """
    caps = caps or get_caps()
    if variant not in ("strict", "relaxed"):
        raise InputError(f"unknown variant {variant!r}")
    _require_positive("max_support", max_support)
    caps.check("dual", max_support)
    bound = Fraction(2) if variant == "strict" else Fraction(3)
    dual01 = dual01_pool(caps)
    values: dict[tuple, tuple[int, int]] = {}

    def solve(subset: tuple) -> tuple[int, int]:
        value = dual01(subset)
        pair = values[subset] = (value.numerator, value.denominator)
        return pair

    best_num, best_den, witness, families = 0, 1, None, 0
    for size, union in subset_classes(max_support, 1):
        total_num, total_den = values.get(union) or solve(union)
        for parts in _blocks(union, variant):
            families += size
            top_num, top_den = 0, 1
            for part in parts:
                num, den = values.get(part) or solve(part)
                if num * top_den > top_num * den:
                    top_num, top_den = num, den
            num, den = total_num * top_den, total_den * top_num
            if num * best_den > best_num * den:
                best_num, best_den, witness = num, den, parts
    best = Fraction(best_num, best_den)
    return VerifierReport(
        lemma=f"block-c0-{variant}",
        params={"max_support": max_support, "variant": variant},
        samples=families,
        max_ratio=best,
        witness={"blocks": [list(part) for part in witness]},
        passed=bool(best <= bound),
        bound_claimed=str(bound),
    )


def estimate_dm(
    n: int = 2, max_support: int = 8, caps: Optional[Caps] = None
) -> VerifierReport:
    """Empirical lower bound on the disjoint-support constant: max of
    ||sum x_k|| / max ||x_k|| over families of n disjoint nonempty 0/1
    vectors supported in [n, max_support].  The constant has no known
    numeric value, so the outcome is reported, not asserted.  The
    families are the partitions of a subset of the m = max_support - n + 1
    positions into n blocks: sum_j C(m, j) S(j, n) = S(m + 1, n + 1) of
    them.  The 0/1 dual norms are monotone under inclusion, as the basis
    is 1-unconditional, so `_max_disjoint_ratio` may prune its walk."""
    caps = caps or get_caps()
    if n < 1:
        raise InputError("n must be >= 1")
    positions = tuple(range(n, max_support + 1))
    caps.check("dual", len(positions))  # every LP and the walk's depth span these
    if len(positions) < n:
        raise InputError(f"no family of {n} disjoint sets fits in [{n}, {max_support}]")
    best, parts = _max_disjoint_ratio(positions, n, dual01_pool(caps))
    return VerifierReport(
        lemma="dm",
        params={"n": n, "max_support": max_support},
        samples=_stirling2(len(positions) + 1, n + 1),
        max_ratio=best,
        witness={"parts": [list(part) for part in parts]},
        passed="reported",
        bound_claimed="D_M (no numeric value known)",
    )


def estimate_cm(
    max_support: int = 8,
    samples: int = 100,
    seed: int = DEFAULT_SEED,
    caps: Optional[Caps] = None,
) -> VerifierReport:
    """Empirical lower bound on the modified-vs-plain norm ratio over 0/1
    and seeded random rational vectors; the lower inequality (plain norm
    never exceeds the modified norm) is asserted exactly on every
    sample."""
    caps = caps or get_caps()
    _require_positive("max_support", max_support)
    if samples < 0:
        raise InputError(f"samples must be >= 0, got {samples}")
    caps.check("modified", max_support)
    rng = random.Random(seed)
    vectors = [
        SparseVec({(p,): ONE for p in subset})
        for subset in nonempty_subsets(tuple(range(1, max_support + 1)))
    ]
    for _ in range(samples):
        vectors.append(_random_vector(rng, max_support))
    best = Fraction(0)
    witness = None
    violated = None
    for vec in vectors:
        tn = tsirelson_norm(vec)
        mn = modified_norm(vec, caps)
        if tn > mn:
            violated = {"vector": format_vector(vec), "T": str(tn), "M": str(mn)}
            break
        ratio = mn / tn
        if ratio > best:
            best = ratio
            witness = {"vector": format_vector(vec)}
    return VerifierReport(
        lemma="cm",
        params={"max_support": max_support},
        samples=len(vectors),
        max_ratio=best,
        witness=violated if violated else witness,
        passed=False if violated else "reported",
        seed=seed,
        bound_claimed="C_M (no numeric value known); lower half exact",
    )


def _random_vector(rng: random.Random, max_support: int) -> SparseVec:
    size = rng.randint(1, min(RANDOM_MAX_SIZE, max_support))
    positions = rng.sample(range(1, max_support + 1), size)
    entries = {}
    for p in positions:
        num = rng.choice([v for v in range(-4, 5) if v])
        den = rng.randint(1, 4)
        entries[(p,)] = Fraction(num, den)
    return SparseVec(entries)


# -- rectangle decomposition (grid) verifiers ------------------------------


def verify_lemma_l2(
    k: int,
    cuts: Sequence[int],
    samples: int = 50,
    seed: int = DEFAULT_SEED,
    ceiling: int = 12,
    caps: Optional[Caps] = None,
) -> VerifierReport:
    """Sample normalized grid vectors z_j supported in the rectangle
    differences ((k, n_j] x [1, n_j]) \\ previous and report the max of
    ||sum a_j z_j|| over sign vectors.  The bound is symbolic (three
    times the disjoint-support constant), so only a configurable sanity
    ceiling is asserted."""
    caps = caps or get_caps()
    _require_positive("k", k)
    _require_positive("samples", samples)
    # the z_j are normalized with disjoint supports in a 1-unconditional
    # norm, so every signed sum has norm >= 1
    _require_positive("ceiling", ceiling)
    cuts = [int(c) for c in cuts]
    if len(cuts) != k + 1 or cuts[0] != k or any(
        a >= b for a, b in zip(cuts, cuts[1:])
    ):
        raise InputError(
            f"cuts must be k+1 strictly increasing integers starting at k, got {cuts}"
        )
    engine = NormEngine(tt_space(), caps)
    rng = random.Random(seed)
    best = Fraction(0)
    witness = None
    for _ in range(samples):
        zs = []
        for j in range(1, k + 1):
            region = _l2_region(k, cuts, j)
            zs.append(_random_normalized(rng, region, engine))
        value, signs = max_sign_sum(engine, zs)
        if value > best:
            best = value
            witness = {"z": [format_vector(z) for z in zs], "signs": signs}
    return VerifierReport(
        lemma="l2",
        params={"k": k, "cuts": cuts, "ceiling": ceiling},
        samples=samples,
        max_ratio=best,
        witness=witness,
        passed=False if best > ceiling else "reported",
        seed=seed,
        bound_claimed="3*D_M (no numeric value known)",
    )


def _l2_region(k: int, cuts: Sequence[int], j: int) -> list[tuple[int, int]]:
    nj, nprev = cuts[j], cuts[j - 1]
    cells = []
    for row in range(k + 1, nj + 1):
        for col in range(1, nj + 1):
            if row <= nprev and col <= nprev:
                continue
            cells.append((row, col))
    return cells


def _random_normalized(
    rng: random.Random, region: list[tuple[int, int]], engine: NormEngine
) -> SparseVec:
    count = rng.randint(1, min(3, len(region)))
    cells = rng.sample(region, count)
    entries = {}
    for cell in cells:
        if rng.random() < 0.5:
            entries[cell] = ONE
        else:
            entries[cell] = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    vec = SparseVec(entries, depth=2)
    norm = engine.norm(vec)
    return (1 / norm) * vec


# -- the grid pigeonhole selection -----------------------------------------


def hat_select(
    k: int, w_list: Sequence, engine: Optional[NormEngine] = None
) -> tuple[list[int], tuple, VerifierReport]:
    """Pigeonhole selection of k indices whose row-norm profiles land in
    one grid cube of side 1/k, plus exact verification of the proximity
    bound 1/k and the sign-sum bound 2.  The sign-sum bound is checked,
    not proven: `verify hat --k 4 --samples 9` fails it with 52018/21255
    (about 2.45) in instance 3, and `--k 3 --samples 30` with 16/7.

    Expects k^(k+1) grid vectors, the j-th supported in rows [1, k] and a
    column band that lies strictly after the previous one (first band
    past column k), each with norm at most 1 in `engine` (by default a
    new `NormEngine(tt_space())`).

    The report's `max_ratio` is the sign sum of the selected vectors, one
    norm since their bands are disjoint (`max_sign_sum`), its verdict is
    True when both bounds hold and False otherwise, and its witness is
    the selected indices, their cell and the signs [1, ..., 1].
    """
    engine = engine or NormEngine(tt_space())
    vecs = _grid_instance(k, w_list)
    last_col = k
    for j, vec in enumerate(vecs, start=1):
        rows = {p[0] for p in vec.support()}
        if any(r > k for r in rows):
            raise InputError(f"vector {j} has support outside rows [1, {k}]")
        cols = {p[1] for p in vec.support()}
        if cols:
            if min(cols) <= last_col:
                raise InputError(
                    f"vector {j} has support outside its column band "
                    f"(column {min(cols)} <= {last_col})"
                )
            last_col = max(cols)
        if engine.norm(vec) > 1:
            raise InputError(f"vector {j} has norm > 1")

    profiles = []
    for vec in vecs:
        profile = []
        for i in range(1, k + 1):
            profile.append(engine.norm(restrict(vec, (i,))))
        profiles.append(tuple(profile))

    def cube(value: Fraction) -> int:
        return 1 if value == 0 else math.ceil(value * k)

    cells: dict[tuple, list[int]] = {}
    selected = None
    cell_key = None
    for j, profile in enumerate(profiles, start=1):
        key = tuple(cube(v) for v in profile)
        bucket = cells.setdefault(key, [])
        bucket.append(j)
        if len(bucket) == k and selected is None:
            selected, cell_key = list(bucket), key
    if selected is None:
        raise RuntimeError(
            "pigeonhole failure: no grid cube holds k profiles; "
            "preconditions must have been violated"
        )

    passed = True
    base = profiles[selected[0] - 1]
    for j in selected:
        for i in range(k):
            if abs(profiles[j - 1][i] - base[i]) > Fraction(1, k):
                passed = False
    best, sign_witness = max_sign_sum(engine, [vecs[j - 1] for j in selected])
    if best > 2:
        passed = False
    report = VerifierReport(
        lemma="hat",
        params={"k": k, "M": len(vecs)},
        samples=len(vecs),
        max_ratio=best,
        witness={"indices": selected, "cell": list(cell_key), "signs": sign_witness},
        passed=passed,
        bound_claimed="2",
    )
    return selected, cell_key, report


def select_c0_subsequence(
    k: int, x_list: Sequence, engine: Optional[NormEngine] = None
) -> tuple[list[int], tuple, VerifierReport]:
    """Split each normalized block x_j into its hat part (rows up to k)
    and its rectangle part, select indices through the grid pigeonhole on
    the hat parts, and measure the exact finite-linfty equivalence
    constants of the selected blocks, all in `engine` (by default a new
    `NormEngine(tt_space())`)."""
    engine = engine or NormEngine(tt_space())
    vecs = _grid_instance(k, x_list)
    n_prev = k
    for j, vec in enumerate(vecs, start=1):
        if engine.norm(vec) != 1:
            raise InputError(f"vector {j} is not normalized")
        extent = n_prev
        for p in vec.support():
            if p[0] <= n_prev and p[1] <= n_prev:
                raise InputError(
                    f"vector {j} meets the previous square [1,{n_prev}]^2 at {p}"
                )
            extent = max(extent, p[0], p[1])
        n_prev = max(n_prev + 1, extent)

    hats = [restrict(vec, range(1, k + 1)) for vec in vecs]
    selected, cell, hat_report = hat_select(k, hats, engine)
    chosen = [vecs[j - 1] for j in selected]
    c_low, c_up = ell_infty_equivalence(chosen, engine)
    passed: Union[bool, str] = "reported"
    if c_low < 1 or hat_report.passed is not True:
        passed = False
    report = VerifierReport(
        lemma="c0-subseq",
        params={"k": k, "M": len(vecs)},
        samples=len(vecs),
        max_ratio=c_up,
        witness={
            "indices": selected,
            "cell": list(cell),
            "c_low": str(c_low),
            "c_up": str(c_up),
        },
        passed=passed,
        bound_claimed="3*D_M + 2 (no numeric value known)",
    )
    return selected, (c_low, c_up), report


# -- seeded instance generators (CLI and acceptance harnesses) -------------


def random_hat_instance(k: int, rng: random.Random, engine: NormEngine) -> list[SparseVec]:
    """k^(k+1) vectors satisfying the hat-selection preconditions, with
    norms exactly 1 or a random fraction of 1."""
    M = k ** (k + 1)
    out = []
    start = k + 1
    for _ in range(M):
        band = list(range(start, start + BAND_WIDTH))
        entries = {}
        rows = rng.sample(range(1, k + 1), rng.randint(1, k))
        for row in rows:
            for col in rng.sample(band, rng.randint(1, BAND_WIDTH)):
                entries[(row, col)] = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        vec = SparseVec(entries, depth=2)
        scale = 1 / engine.norm(vec)
        if rng.random() < 0.3:
            scale = scale * Fraction(rng.randint(1, 4), 4)
        out.append(scale * vec)
        start += BAND_WIDTH
    return out


def random_c0_instance(k: int, rng: random.Random, engine: NormEngine) -> list[SparseVec]:
    """k^(k+1) normalized blocks for the subsequence selection, each
    living between consecutive squares [1, n_j]^2."""
    M = k ** (k + 1)
    out = []
    n_prev = k
    for _ in range(M):
        n_j = n_prev + BAND_WIDTH
        cells = []
        # a couple of hat cells (rows <= k, columns past n_prev)
        for _ in range(rng.randint(1, 2)):
            cells.append((rng.randint(1, k), rng.randint(n_prev + 1, n_j)))
        # a couple of rectangle cells (rows past max(k, n_prev))
        for _ in range(rng.randint(0, 2)):
            cells.append(
                (rng.randint(max(k, n_prev) + 1, n_j), rng.randint(1, n_j))
            )
        entries = {}
        for cell in cells:
            entries[cell] = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        vec = SparseVec(entries, depth=2)
        out.append((1 / engine.norm(vec)) * vec)
        n_prev = n_j
    return out


def _sampled_report(
    make_instance, select, k: int, samples: int, seed: int, caps: Optional[Caps]
) -> VerifierReport:
    """Run `select` on `samples` instances drawn by `make_instance` from
    one `random.Random(seed)`, both in one `NormEngine(tt_space(), caps)`,
    and merge their reports.

    `max_ratio` is the largest instance value.  The verdict is False once
    any instance fails and otherwise the instances' own.  The witness is
    the instance with the largest ratio (the first to reach it) or, once
    an instance has failed, the last instance that failed.
    """
    _check_sampled(k, samples)
    engine = NormEngine(tt_space(), caps)
    rng = random.Random(seed)
    best = Fraction(0)
    witness = None
    failed = False
    for index in range(samples):
        report = select(k, make_instance(k, rng, engine), engine)[2]
        if report.passed is False or (not failed and report.max_ratio > best):
            witness = {"instance": index, **report.to_dict()["witness"]}
        failed = failed or report.passed is False
        best = max(best, report.max_ratio)
    return dataclasses.replace(
        report,
        samples=samples,
        max_ratio=best,
        witness=witness,
        passed=False if failed else report.passed,
        seed=seed,
    )


def hat_sampled_report(
    k: int = 2, samples: int = 100, seed: int = DEFAULT_SEED, caps: Optional[Caps] = None
) -> VerifierReport:
    """The grid pigeonhole selection on seeded random instances."""
    return _sampled_report(random_hat_instance, hat_select, k, samples, seed, caps)


def c0_sampled_report(
    k: int = 2, samples: int = 20, seed: int = DEFAULT_SEED, caps: Optional[Caps] = None
) -> VerifierReport:
    """The block subsequence selection on seeded random instances."""
    return _sampled_report(random_c0_instance, select_c0_subsequence, k, samples, seed, caps)


# -- spreading-model witnesses ----------------------------------------------


def spreading_witness(
    space: SpaceExpr,
    block_gen: str = "unit",
    k: int = 2,
    shift: int = 4,
    caps: Optional[Caps] = None,
) -> tuple:
    """Finite-linfty equivalence constants of k named blocks pushed
    `shift` components along the space: an upper-bound witness for the
    spreading-model constant, never a proof of the limit statement."""
    if not 1 <= k <= 12:  # `ell_infty_equivalence` takes 1 to 12 vectors
        raise InputError(f"k must be between 1 and 12, got {k}")
    if shift < 0:
        raise InputError(f"shift must be >= 0, got {shift}")
    engine = NormEngine(space, caps)
    return ell_infty_equivalence(_named_blocks(engine, block_gen, k, shift), engine)


def spreading_report(
    space: SpaceExpr,
    blocks: str = "unit",
    k: int = 2,
    shift: int = 4,
    caps: Optional[Caps] = None,
    space_text: str = "",
) -> VerifierReport:
    """`spreading_witness` as a report; `samples` is 2^(k-1), the sign
    patterns that the one norm c_up covers."""
    c_low, c_up = spreading_witness(space, blocks, k, shift, caps)
    return VerifierReport(
        lemma="spreading",
        params={"space": space_text, "blocks": blocks, "k": k, "shift": shift},
        samples=2 ** (k - 1),
        max_ratio=c_up / c_low,
        witness={"c_low": str(c_low), "c_up": str(c_up)},
        passed="reported",
        bound_claimed="6 (consistency with the spreading-model constant)",
    )


def _unit_path(space: SpaceExpr, leading: int) -> tuple[int, ...]:
    return (leading,) + (1,) * (space_depth(space) - 1)


def _named_blocks(engine: NormEngine, name: str, k: int, shift: int) -> list[SparseVec]:
    space = engine.space
    if name == "unit":
        return [
            SparseVec({_unit_path(space, shift + i): ONE}) for i in range(1, k + 1)
        ]
    if name == "doubleton":
        out = []
        for i in range(1, k + 1):
            a = _unit_path(space, shift + 2 * i - 1)
            b = _unit_path(space, shift + 2 * i)
            vec = SparseVec({a: ONE, b: ONE})
            out.append((1 / engine.norm(vec)) * vec)
        return out
    raise InputError(f"unknown block family {name!r}")
