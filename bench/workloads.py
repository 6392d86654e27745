"""The benchmark's workloads: seeded inputs, the timed library calls, and
the correctness checks that run after timing.

Each workload turns a seed into a list of `Op`s.  An op is one library
call together with the number of input operations it covers (families,
evaluations or pairs, counted from the input alone), an
encoder that turns its result into canonical JSON-able data, and an
invariant check.  `run_ops` times the calls; `check_ops` runs the
untimed checks and counts the input operations of every call that
raised, broke an invariant, or differs from the frozen expected output.

Frozen outputs live in `expected.json`.  They were computed at the
default seed and full size, and are compared there, and at every seed
for workloads whose inputs do not depend on the seed.  Regenerate them
with `python3 bench/workloads.py --freeze` only when an output change is
intended.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Any, Callable

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)  # the checkout's own banachlab, not an installed one

import banachlab as bl  # noqa: E402

DEFAULT_SEED = 1729
SIZES = ("full", "tiny")
EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Op:
    key: str
    count: int
    call: Callable[[], Any]
    encode: Callable[[Any], Any]
    check: Callable[[Any], list]


def frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def report_dict(report) -> Any:
    """A verifier or distortion report's public dict, normalised through JSON."""
    return json.loads(json.dumps(report.to_dict(), sort_keys=True))


# -- block_c0 -----------------------------------------------------------


def block_families(max_support: int, variant: str) -> int:
    """Number of 0/1 block families `verify_block_c0` enumerates, counted
    from the admissibility rule alone."""
    total = 0
    for k in range(1, max_support + 1):
        for s in combinations(range(1, max_support + 1), k):
            if variant == "strict":
                total += sum(comb(k - 1, n - 1) for n in range(1, min(s[0], k) + 1))
            else:
                total += 1 + sum(
                    comb(k - i - 1, n - 2)
                    for i in range(1, k)
                    for n in range(2, min(s[i], k - i + 1) + 1)
                )
    return total


def block_c0(seed: int, size: str) -> list[Op]:
    max_support = 9 if size == "full" else 4
    caps = bl.Caps()
    ops = []
    for variant, bound in (("strict", 2), ("relaxed", 3)):
        families = block_families(max_support, variant)

        def check(report, families=families, bound=bound) -> list:
            problems = []
            if report.passed is not True or report.max_ratio > bound:
                problems.append(f"bound {bound} not verified: {report.max_ratio}")
            if report.samples != families:
                problems.append(f"{report.samples} families, expected {families}")
            return problems

        ops.append(Op(
            key=variant,
            count=families,
            call=lambda v=variant: bl.verify_block_c0(max_support, v, caps),
            encode=report_dict,
            check=check,
        ))
    return ops


# -- wide_support ---------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))


def _seeded_vec(rng: random.Random, size: int, lo: int, hi: int) -> bl.SparseVec:
    """A vector with `size` distinct seeded positions in [lo, hi)."""
    positions = sorted(rng.sample(range(lo, hi), size))
    return bl.SparseVec({(p,): _rational(rng) for p in positions})


def _bounded_by_coords(x: bl.SparseVec, value) -> list:
    """max |x_i| <= value <= sum |x_i|, which every norm here satisfies."""
    mags = [abs(v) for _, v in x.items()]
    if not max(mags) <= value <= sum(mags) * (1 + 1e-12):
        return [f"{value} outside [max |x_i|, sum |x_i|]"]
    return []


def wide_support(seed: int, size: str) -> list[Op]:
    rng = random.Random(seed)
    full = size == "full"
    gauge = bl.parse_space("S(log2)").gauge
    caps = bl.Caps(dual=16)
    ops = []
    # the T DP's work depends on the positions (min E bounds the part
    # count), so positions are fixed at m..2m-1, where no bound bites, and
    # only the coefficients come from the seed
    for m in (range(28, 34) if full else range(6, 8)):
        x = _seeded_vec(rng, m, m, 2 * m)
        ops.append(Op(f"T.{m}", 1, lambda x=x: bl.tsirelson_norm(x), frac,
                      lambda v, x=x: _bounded_by_coords(x, v)))
        ops.append(Op(f"S.{m}", 1, lambda x=x: bl.gauge_norm(x, gauge), repr,
                      lambda v, x=x: _bounded_by_coords(x, v)))
    # positions >= 10 make every part eligible at every part count, so the
    # partition search does the same work whatever the seed
    m_size = 10 if full else 5
    for i in range(4 if full else 2):
        x = _seeded_vec(rng, m_size, m_size, 4 * m_size)

        def check_m(v, x=x) -> list:
            problems = _bounded_by_coords(x, v)
            if bl.tsirelson_norm(x) > v:
                problems.append("T > M")
            return problems

        ops.append(Op(f"M.{i}", 1, lambda x=x: bl.modified_norm(x, caps), frac, check_m))
    # the LP's rounds and pivots swing fourfold with the data, so the
    # rational LP input is drawn from the default seed, not the run's seed
    d_size = 14 if full else 5
    ones = bl.SparseVec({(p,): 1 for p in range(1, d_size + 1)})
    rational = _seeded_vec(random.Random(DEFAULT_SEED), d_size, 1, 2 * d_size + 1)
    for key, x in (("dual.ones", ones), ("dual.rational", rational)):

        def check_dual(result, x=x) -> list:
            problems = []
            if bl.tsirelson_norm(result.witness) > 1:
                problems.append("dual witness has ||y||_T > 1")
            if bl.inner_product(x, result.witness) != result.value:
                problems.append("<x, y> != dual value")
            return problems

        ops.append(Op(key, 1, lambda x=x: bl.dual_norm(x, caps),
                      lambda r: frac(r.value), check_dual))
    return ops


# -- distortion -------------------------------------------------------------


def distortion(seed: int, size: str) -> list[Op]:
    full = size == "full"
    caps = bl.Caps()
    t_space = bl.parse_space("T")
    ops = []
    for k, metric, n in ((2, "hamming", 20 if full else 6), (3, "d_e", 10 if full else 6)):
        spec = bl.Prop73(Fraction(1), k)
        metric_space = t_space if metric == "d_e" else None
        pairs = comb(comb(n, k), 2)

        def check(report, spec=spec, metric=metric, pairs=pairs, metric_space=metric_space) -> list:
            problems = []
            if report.pairs != pairs:
                problems.append(f"{report.pairs} pairs, expected {pairs}")
            if not 0 < report.lower <= report.upper or report.distortion != report.upper / report.lower:
                problems.append("inconsistent lower, upper and distortion")
            engine = bl.NormEngine(bl.prop73_space(spec.p, spec.k), caps)
            if metric == "hamming":
                dist = lambda a, b: Fraction(bl.hamming_distance(a, b))
            else:
                dist = bl.HammingSpace(spec.k, metric_space, caps).distance
            for (a, b), want in ((report.argmin, report.lower), (report.argmax, report.upper)):
                image = bl.prop73_embed(spec.p, spec.k, a) - bl.prop73_embed(spec.p, spec.k, b)
                if engine.norm(image) / dist(a, b) != want:
                    problems.append(f"pair {a}, {b} does not reproduce {want}")
            return problems

        ops.append(Op(
            key=f"prop73.k{k}.{metric}.n{n}",
            count=pairs,
            call=lambda spec=spec, metric=metric, n=n, ms=metric_space: bl.measure_distortion(
                spec, metric, n, caps, metric_space=ms
            ),
            encode=report_dict,
            check=check,
        ))
    return ops


# -- registry, timing and checks ----------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str], list[Op]]
    uses_seed: bool


WORKLOADS = {
    "block_c0": Workload(block_c0, uses_seed=False),
    "wide_support": Workload(wide_support, uses_seed=True),
    "distortion": Workload(distortion, uses_seed=False),
}


def run_ops(ops: list[Op]) -> tuple[dict, dict, float]:
    """Call every op once; returns (results, errors, wall seconds)."""
    results, errors = {}, {}
    start = time.perf_counter()
    for op in ops:
        try:
            results[op.key] = op.call()
        except Exception as exc:  # a raising op is a failed op, not a crash
            errors[op.key] = f"{type(exc).__name__}: {exc}"
    return results, errors, time.perf_counter() - start


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def expected_for(name: str, seed: int, size: str, frozen: dict) -> dict | None:
    """The frozen outputs that apply to this run, if any."""
    if size != "full" or (WORKLOADS[name].uses_seed and seed != DEFAULT_SEED):
        return None
    return frozen[name]


def check_ops(ops: list[Op], results: dict, errors: dict, expected: dict | None):
    """Untimed checks; returns (encoded outputs, failed ops, problems)."""
    outputs, failed, problems = {}, 0, []
    for op in ops:
        if op.key in errors:
            failed += op.count
            problems.append(f"{op.key}: {errors[op.key]}")
            continue
        found = []
        try:
            outputs[op.key] = op.encode(results[op.key])
            found = op.check(results[op.key])
        except Exception as exc:
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if expected is not None and outputs.get(op.key) != expected.get(op.key):
            found.append(f"output {outputs.get(op.key)!r} != expected {expected.get(op.key)!r}")
        if found:
            failed += op.count
            problems.extend(f"{op.key}: {p}" for p in found)
    return outputs, failed, problems


def freeze() -> dict:
    """Outputs of every workload at the default seed and full size."""
    frozen = {}
    for name, workload in WORKLOADS.items():
        ops = workload.setup(DEFAULT_SEED, "full")
        results, errors, _ = run_ops(ops)
        outputs, failed, problems = check_ops(ops, results, errors, None)
        if failed:
            raise SystemExit(f"{name}: cannot freeze failing outputs: {problems}")
        frozen[name] = outputs
    return frozen


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        raise SystemExit("usage: python3 bench/workloads.py --freeze")
    EXPECTED_PATH.write_text(json.dumps(freeze(), indent=1, sort_keys=True) + "\n")
