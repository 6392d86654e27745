"""One cold run of one workload, in its own interpreter.

    python3 bench/child.py --workload NAME --seed N --spawned T [--trace] [--setup-only] [--size tiny]

`--spawned` is the parent's `time.monotonic()` just before it started
this process, so `setup_s` covers interpreter start, imports, parsing
and input generation.  Prints one JSON line: setup_s, and unless
--setup-only also wall_s (the timed library calls only), rss_mb, ops,
failed, problems, a digest of the encoded outputs and, with --trace, the
per-layer metrics.  The correctness checks run after timing and after
the tracer is removed.
"""

import time  # first, so that setup timing starts as early as possible

import argparse
import contextlib
import hashlib
import json
import resource

from workloads import SIZES, WORKLOADS, check_ops, expected_for, load_expected, run_ops
from tracer import Tracer


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else contextlib.nullcontext()
    with tracer:  # entered before set-up, so that parsing is traced
        ops = WORKLOADS[args.workload].setup(args.seed, args.size)
        setup_s = time.monotonic() - args.spawned
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        results, errors, wall_s = run_ops(ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = expected_for(args.workload, args.seed, args.size, load_expected())
    outputs, failed, problems = check_ops(ops, results, errors, expected)
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "ops": sum(op.count for op in ops),
        "failed": failed,
        "problems": problems,
        "digest": digest,
    }
    if args.trace:
        record["layers"] = tracer.layer_metrics()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
