"""banachlab benchmark: cold-process runs of one workload, checked and timed.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every sample is a fresh single-threaded
interpreter (`child.py`), because every CLI invocation pays cold memos.
The run keeps starting samples until the next one would overrun
`--seconds` (at least MIN_RUNS of them) and reports medians.

--trace 0 prints the end-to-end metrics: wall_s, ops_per_s, setup_s and
peak_rss_mb.  Extra set-up-only children after every sample give
setup_s enough samples for a steady median.
--trace 1 alternates untraced and traced samples and prints the
per-layer metrics of `tracer.PER_LAYER`; counters must repeat exactly
across traced samples, and traced outputs must equal untraced outputs.

The next-to-last stdout line is a full record (context, per-metric
quartiles and sample counts, problems); the last line is the result
object {correct, attempted, failed, metrics}.  Exits 2 without a result
if the checkout has no banachlab source or a sample crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "banachlab"
WORKLOADS = ("block_c0", "wide_support", "distortion")
END_TO_END = {"wall_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
DEFAULT_SEED = 1729
MIN_RUNS = 3  # plain samples per run with --trace 0
MIN_TRACED = 2  # plain and traced pairs per run with --trace 1
SETUP_ONLY_PER_RUN = 2
TIME_LIMIT = 170  # seconds; one run must end within 180


class BenchError(Exception):
    pass


def child(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one cold child and return its JSON record."""
    args = ["child.py", "--workload", workload, "--seed", str(seed), *flags]
    return _python(args, deadline, f"{workload} sample", stamp=True)


def _python(args: list[str], deadline: float, what: str, stamp: bool = False) -> dict:
    """Run a bench script in a fresh interpreter and parse its last line."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "BANACHLAB_"))}
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, "-s", "-S", str(BENCH / args[0]), *args[1:]]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            command + (["--spawned", repr(time.monotonic())] if stamp else []),
            capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} ran past the {TIME_LIMIT} s limit") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{what} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values), "n": len(values)}


def context(seed: int) -> dict:
    """Where and on what the result was measured; recorded, never gated."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in PACKAGE.rglob("*.py")),
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    start = time.monotonic()
    deadline, hard_deadline = start + seconds, start + TIME_LIMIT
    child(workload, seed, hard_deadline, "--setup-only")  # warm bytecode and file caches
    plain, traced, setups, took = [], [], [], []
    while True:
        began = time.monotonic()
        record = child(workload, seed, hard_deadline)
        plain.append(record)
        setups.append(record["setup_s"])
        if trace:
            traced.append(child(workload, seed, hard_deadline, "--trace"))
        else:
            for _ in range(SETUP_ONLY_PER_RUN):
                setups.append(child(workload, seed, hard_deadline, "--setup-only")["setup_s"])
        took.append(time.monotonic() - began)
        enough = len(plain) >= (MIN_TRACED if trace else MIN_RUNS)
        if enough and time.monotonic() + statistics.median(took) > deadline:
            break

    samples = plain + traced
    attempted = sum(r["ops"] for r in samples)
    failed = sum(r["failed"] for r in samples)
    problems = sorted({p for r in samples for p in r["problems"]})
    digests = {r["digest"] for r in samples}
    if len(digests) > 1:
        problems.append("outputs differ between samples (traced or untraced)")
        failed += sum(r["ops"] for r in samples if r["digest"] != samples[0]["digest"])

    wall = [r["wall_s"] for r in plain]
    stats = {
        "wall_s": quartiles(wall),
        "setup_s": quartiles(setups),
        "peak_rss_mb": quartiles([r["rss_mb"] for r in plain]),
    }
    values = {name: stats[name]["median"] for name in stats}
    values["ops_per_s"] = plain[0]["ops"] / values["wall_s"]  # same inputs in every sample
    if trace:
        units = dict(PER_LAYER)
        layers = {}
        for name, unit in PER_LAYER[:-1]:
            seen = [r["layers"][name] for r in traced]
            if unit == "s":
                layers[name] = statistics.median(seen)
            else:  # counts and their ratios must repeat exactly
                if len(set(seen)) > 1:
                    problems.append(f"{name} differs between traced samples: {seen}")
                layers[name] = seen[0]
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = traced_wall - values["wall_s"]
        stats["traced_wall_s"] = quartiles([r["wall_s"] for r in traced])
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "context": context(seed),
        "stats": stats,
        "samples": {"wall_s": wall, "setup_s": setups},
        "ops_per_s": values["ops_per_s"],
        "fail_frac": failed / attempted,
        "problems": problems,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: no banachlab source at {PACKAGE}; run from a checkout", file=sys.stderr)
        return 2
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
