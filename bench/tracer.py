"""Per-layer spans around banachlab's entry points, patched in from outside.

The library has no instrumentation of its own yet, so `Tracer` replaces
functions and methods with timing wrappers for the duration of a `with`
block and puts every original back on exit.  A function is patched in
every banachlab module that holds it (the package namespace, `norms`,
`dual`, `verifiers`, ...), so calls through a name imported with
`from .x import f` are seen too.  Two of the wrapped names are private
and may move without notice: `StandardFormSimplex._pivot` and
`NormEngine._evaluate`.

One span stack gives every span its self time: its duration minus the
durations of the spans opened inside it.  Spans are aggregated per
(name, parent name), which is how separation (the T DP called from the
dual LP) and LP rounds are told apart from other calls.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (metric, unit) in report order; the units tell counts from timings
PER_LAYER = [
    ("simplex.solve_s", "s"),
    ("simplex.solve_calls", "count"),
    ("simplex.pivots", "count"),
    ("simplex.pivots_per_solve", "ratio"),
    ("simplex.set_basis_s", "s"),
    ("dual.lp_calls", "count"),
    ("dual.lp_s", "s"),
    ("dual.rounds", "count"),
    ("dual.rounds_per_lp", "ratio"),
    ("dual.columns", "count"),
    ("dual.separation_s", "s"),
    ("norms.tdp_calls", "count"),
    ("norms.tdp_s", "s"),
    ("norms.tdp_coords", "count"),
    ("norms.gauge_calls", "count"),
    ("norms.gauge_s", "s"),
    ("norms.modified_calls", "count"),
    ("norms.modified_s", "s"),
    ("norms.engine_calls", "count"),
    ("norms.engine_hits", "count"),
    ("norms.engine_hit_ratio", "ratio"),
    ("norms.engine_self_s", "s"),
    ("vectors.new_calls", "count"),
    ("vectors.arith_s", "s"),
    ("spaces.parse_s", "s"),
    ("spaces.validate_calls", "count"),
    ("spaces.validate_s", "s"),
    ("hamming.distance_calls", "count"),
    ("hamming.distance_s", "s"),
    ("embeddings.pairs", "count"),
    ("embeddings.self_s", "s"),
    ("verifiers.self_s", "s"),
    ("verifiers.families", "count"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        # (name, parent) -> [calls, self seconds, inclusive seconds]
        self.spans: dict[tuple, list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, before=None, after=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if before is not None:
                before(self.counts, args)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = spans.get((name, parent))
                if record is None:
                    record = spans[(name, parent)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed - frame[1]
                record[2] += elapsed
            if after is not None:
                after(self.counts, result)
            return result

        return wrapper

    def function(self, fn, name: str, before=None, after=None) -> None:
        """Wrap `fn` under every banachlab module attribute bound to it."""
        wrapper = self._wrap(name, fn, before, after)
        for module_name, module in list(sys.modules.items()):
            if module_name != "banachlab" and not module_name.startswith("banachlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def method(self, cls, attr: str, name: str) -> None:
        fn = cls.__dict__[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(name, fn))

    def __enter__(self) -> "Tracer":
        from banachlab import (
            dual, embeddings, hamming, norms, simplex, spaces, vectors, verifiers,
        )

        def coords(counts, args):
            counts["tdp_coords"] += len(args[0])

        def families(counts, report):
            counts["families"] += report.samples

        def pairs(counts, report):
            counts["pairs"] += report.pairs

        self.function(norms.tsirelson_norm, "norms.tdp", before=coords)
        self.function(norms.tsirelson_norm_witness, "norms.tdp", before=coords)
        self.function(norms.gauge_norm, "norms.gauge")
        self.function(norms.modified_norm, "norms.modified")
        self.method(norms.NormEngine, "norm", "norms.engine")
        self.method(norms.NormEngine, "_evaluate", "norms.engine_eval")
        self.function(dual.dual_norm, "dual.lp")
        for attr in ("solve", "set_basis", "add_column", "_pivot"):
            self.method(simplex.StandardFormSimplex, attr, f"simplex.{attr.lstrip('_')}")
        for attr in ("__init__", "__add__", "__sub__", "__rmul__", "__neg__", "leading_groups"):
            self.method(vectors.SparseVec, attr, "vectors.new" if attr == "__init__" else "vectors.arith")
        self.function(spaces.parse_space, "spaces.parse")
        self.function(spaces.validate_vector, "spaces.validate")
        self.method(hamming.HammingSpace, "distance", "hamming.distance")
        self.function(embeddings.measure_distortion, "embeddings.distortion", after=pairs)
        self.function(verifiers.verify_block_c0, "verifiers.block_c0", after=families)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- aggregation ------------------------------------------------------

    def _sum(self, field: int, name: str, parent: str | None = "*") -> float:
        return sum(
            record[field]
            for (span, span_parent), record in self.spans.items()
            if span == name and (parent == "*" or span_parent == parent)
        )

    def calls(self, name, parent="*") -> int:
        return self._sum(0, name, parent)

    def self_s(self, name, parent="*") -> float:
        return self._sum(1, name, parent)

    def inclusive_s(self, name, parent="*") -> float:
        """Only meaningful for spans that never nest inside themselves."""
        return self._sum(2, name, parent)

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_s, which needs an
        untraced run to compare with."""
        solves = self.calls("simplex.solve")
        lps = self.calls("dual.lp")
        rounds = self.calls("simplex.solve", parent="dual.lp")
        engine = self.calls("norms.engine")
        hits = engine - self.calls("norms.engine_eval")
        return {
            "simplex.solve_s": self.inclusive_s("simplex.solve"),
            "simplex.solve_calls": solves,
            "simplex.pivots": self.calls("simplex.pivot"),
            "simplex.pivots_per_solve": self.calls("simplex.pivot") / solves if solves else 0.0,
            "simplex.set_basis_s": self.inclusive_s("simplex.set_basis"),
            "dual.lp_calls": lps,
            "dual.lp_s": self.inclusive_s("dual.lp"),
            "dual.rounds": rounds,
            "dual.rounds_per_lp": rounds / lps if lps else 0.0,
            "dual.columns": self.calls("simplex.add_column", parent="dual.lp"),
            "dual.separation_s": self.inclusive_s("norms.tdp", parent="dual.lp"),
            "norms.tdp_calls": self.calls("norms.tdp"),
            "norms.tdp_s": self.inclusive_s("norms.tdp"),
            "norms.tdp_coords": self.counts["tdp_coords"],
            "norms.gauge_calls": self.calls("norms.gauge"),
            "norms.gauge_s": self.inclusive_s("norms.gauge"),
            "norms.modified_calls": self.calls("norms.modified"),
            "norms.modified_s": self.inclusive_s("norms.modified"),
            "norms.engine_calls": engine,
            "norms.engine_hits": hits,
            "norms.engine_hit_ratio": hits / engine if engine else 0.0,
            "norms.engine_self_s": self.self_s("norms.engine") + self.self_s("norms.engine_eval"),
            "vectors.new_calls": self.calls("vectors.new"),
            "vectors.arith_s": self.self_s("vectors.new") + self.self_s("vectors.arith"),
            "spaces.parse_s": self.inclusive_s("spaces.parse"),
            "spaces.validate_calls": self.calls("spaces.validate"),
            "spaces.validate_s": self.self_s("spaces.validate"),
            "hamming.distance_calls": self.calls("hamming.distance"),
            "hamming.distance_s": self.self_s("hamming.distance"),
            "embeddings.pairs": self.counts["pairs"],
            "embeddings.self_s": self.self_s("embeddings.distortion"),
            "verifiers.self_s": self.self_s("verifiers.block_c0"),
            "verifiers.families": self.counts["families"],
        }
