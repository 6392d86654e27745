"""Command-line front end.

Every command is pure: identical invocations produce byte-identical
output (fixed seeds, sorted JSON keys).  Exit codes: 0 success or
reported, 1 hard-assertion failure or any other library error, 2 usage
or input error, 3 refusal because a support cap or enumeration budget
was exceeded.  Library errors print one `error:` or `refused:` line to
stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .caps import get_caps
from .dual import dual_norm
from .embeddings import (
    ArrayEmbed,
    Prop73,
    XpqBranch,
    distortion_pairs,
    distortion_report,
    measure_distortion,
)
from .errors import BanachLabError, CapExceeded, InputError
from .hamming import HammingSpace, metric_distance, parse_ksubset
from .norms import NormEngine
from .oracles import brute_force_tsirelson
from .report import encode_value
from .spaces import Tsirelson, format_space, parse_space
from .vectors import format_vector, parse_vector, parse_rational
from .verifiers import (
    DEFAULT_SEED,
    c0_sampled_report,
    estimate_cm,
    estimate_dm,
    hat_sampled_report,
    spreading_report,
    verify_block_c0,
    verify_lemma_l2,
)


def _decimal(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        try:
            value = float(value)
        except OverflowError:
            # beyond the float range: round to 10 digits in decimal
            with localcontext() as ctx:
                ctx.prec = 10
                value = Decimal(value.numerator) / value.denominator
    return f"{value:.10g}"


def _print_norm(value) -> None:
    if isinstance(value, Fraction):
        print(f"{_decimal(value)} (= {value.numerator}/{value.denominator})")
    else:
        print(_decimal(value))


def _print_plain(value) -> None:
    if isinstance(value, (Fraction, int)):
        print(value)
    else:
        print(_decimal(value))


def cmd_norm(args) -> int:
    space = parse_space(args.space)
    vec = parse_vector(args.vec)
    value = NormEngine(space, get_caps()).norm(vec)
    if args.oracle:
        if not isinstance(space, Tsirelson):
            raise InputError("--oracle is available for space T only")
        reference = brute_force_tsirelson(vec, get_caps())
        if reference != value:
            print(f"oracle mismatch: engine {value}, brute force {reference}", file=sys.stderr)
            return 1
    _print_norm(value)
    return 0


def cmd_dual_norm(args) -> int:
    space = parse_space(args.space)
    if not isinstance(space, Tsirelson):
        raise InputError("dual-norm computes the dual of T; pass --space T")
    result = dual_norm(parse_vector(args.vec), get_caps())
    _print_norm(result.value)
    if args.witness:
        print(f"witness: {format_vector(result.witness)}")
    return 0


def cmd_metric(args) -> int:
    if args.k < 1:
        raise InputError(f"k must be >= 1, got {args.k}")
    a = parse_ksubset(args.a)
    b = parse_ksubset(args.b)
    if len(a) != args.k or len(b) != args.k:
        raise InputError(f"tuples must have k = {args.k} entries")
    space = parse_space(args.space) if args.kind == "d_e" else None
    _print_plain(metric_distance(args.kind, args.k, space, get_caps())(a, b))
    return 0


def cmd_diameter(args) -> int:
    space = parse_space(args.space)
    hs = HammingSpace(args.k, space, get_caps())
    value = hs.diameter()
    if args.check is not None:
        brute = hs.diameter_brute(args.check)
        if brute != value:
            print(f"diameter mismatch: formula {value}, brute force {brute}", file=sys.stderr)
            return 1
    _print_plain(value)
    return 0


def cmd_parse(args) -> int:
    print(format_space(parse_space(args.space)))
    return 0


# The parameters each named embedding takes; any other is an input error.
EMBEDDING_PARAMS = {"prop73": ("p", "k"), "xpq": ("p", "q", "k")}


def _parse_embedding(text: str):
    name, _, params_text = text.partition(":")
    if name == "array":
        return _load_array_embedding(params_text)
    if name not in EMBEDDING_PARAMS:
        raise InputError(f"unknown embedding spec {text!r}")
    params = {}
    for item in params_text.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in EMBEDDING_PARAMS[name]:
            raise InputError(f"embedding {name!r} has no parameter {key!r}")
        params[key] = value.strip()
    def param(key):
        if key not in params:
            raise InputError(f"embedding {name!r} needs parameter {key!r}")
        return params[key]
    def pvalue(key):
        value = param(key)
        return None if value == "inf" else parse_rational(value)
    def ivalue(key):
        value = param(key)
        try:
            return int(value)
        except ValueError:
            raise InputError(f"parameter {key!r} must be an integer, got {value!r}") from None
    if name == "prop73":
        return Prop73(pvalue("p"), ivalue("k"))
    return XpqBranch(pvalue("p"), pvalue("q"), ivalue("k"))


def _load_array_embedding(path: str) -> ArrayEmbed:
    """Array file: `space: <expr>` and `k: <int>` headers, then rows
    `i j path:value,...`; blank lines and # comments are skipped."""
    space = None
    k = None
    array = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read array file {path!r}: {exc}") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("space:"):
            space = parse_space(line[len("space:"):])
            continue
        try:
            if line.startswith("k:"):
                k = int(line[len("k:"):])
                continue
            i, j, vec = line.split(None, 2)
            key = (int(i), int(j))
        except ValueError:
            raise InputError(f"bad array line {line!r}") from None
        array[key] = parse_vector(vec)
    if space is None or k is None:
        raise InputError("array file needs `space:` and `k:` headers")
    return ArrayEmbed(array, k, space)


def _write_rows(pairs, handle):
    """Write one CSV row for each distortion pair and pass it on as its
    ratio over the unit distance: the report reads only value / d, so
    the division is made once."""
    handle.write("a,b,metric,embedded,ratio\n")
    for a, b, d, value in pairs:
        ratio = value / d
        handle.write(
            f"{' '.join(map(str, a))},{' '.join(map(str, b))},"
            f"{encode_value(d)},{encode_value(value)},{encode_value(ratio)}\n"
        )
        yield a, b, 1, ratio


def _check_decimal(args) -> None:
    if args.decimal is not None and args.decimal < 0:
        raise InputError(f"--decimal must be >= 0, got {args.decimal}")


def cmd_distortion(args) -> int:
    _check_decimal(args)
    spec = _parse_embedding(args.embedding)
    metric, _, generator = args.metric.partition(":")
    metric_space = parse_space(generator) if generator else None
    if args.csv:
        pairs = distortion_pairs(spec, metric, args.n, get_caps(), metric_space=metric_space)
        try:
            handle = open(args.csv, "w", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write csv file {args.csv!r}: {exc}") from None
        with handle:
            report = distortion_report(_write_rows(pairs, handle))
    else:
        report = measure_distortion(spec, metric, args.n, get_caps(), metric_space=metric_space)
    data = report.to_dict()
    data["embedding"] = args.embedding
    data["metric"] = args.metric
    data["n"] = args.n
    if args.decimal is not None:
        data["distortion_decimal"] = round(float(report.distortion), args.decimal)
    print(json.dumps(data, sort_keys=True, separators=(",", ":")))
    return 0


# The argparse settings of every `verify` option, with its CLI default.
VERIFY_OPTIONS = {
    "max_support": dict(type=int, default=10),
    "variant": dict(choices=["strict", "relaxed"], default="strict"),
    "n": dict(type=int, default=2),
    "k": dict(type=int, default=2),
    "cuts": dict(default="2,4,8"),
    "samples": dict(type=int, default=None),
    "seed": dict(type=int, default=DEFAULT_SEED),
    "ceiling": dict(type=int, default=12),
    "shift": dict(type=int, default=4),
    "blocks": dict(default="unit"),
    "space": dict(default="sum(T*,indexed(sum(lpn(1,#),repeat(T*))))"),
}

# Each lemma's verifier and the options it reads, passed as the keywords
# of the same name; any other option is a usage error.
LEMMAS = {
    "block-c0": (verify_block_c0, ("max_support", "variant")),
    "dm": (estimate_dm, ("n", "max_support")),
    "cm": (estimate_cm, ("max_support", "samples", "seed")),
    "l2": (verify_lemma_l2, ("k", "cuts", "samples", "seed", "ceiling")),
    "hat": (hat_sampled_report, ("k", "samples", "seed")),
    "c0-subseq": (c0_sampled_report, ("k", "samples", "seed")),
    "spreading": (spreading_report, ("space", "blocks", "k", "shift")),
}


def cmd_verify(args) -> int:
    _check_decimal(args)
    caps = get_caps()
    verifier, names = LEMMAS[args.lemma]
    # --samples, the one None default, is passed only when given, so
    # each verifier keeps its own default sample count
    options = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    if "cuts" in options:
        try:
            options["cuts"] = [int(c) for c in args.cuts.split(",")]
        except ValueError:
            raise InputError(f"--cuts must be comma-separated integers, got {args.cuts!r}") from None
    if "space" in options:
        options["space"] = parse_space(args.space)
        options["space_text"] = args.space
    report = verifier(caps=caps, **options)
    print(report.to_json(decimals=args.decimal))
    return 0 if report.passed in (True, "reported") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banachlab",
        description="Exact computation in Tsirelson-family Banach spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="norm of a vector in a space")
    p.add_argument("--space", required=True)
    p.add_argument("--vec", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check against the brute-force evaluator")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("dual-norm", help="dual Tsirelson norm via exact LP")
    p.add_argument("--space", default="T")
    p.add_argument("--vec", required=True)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_dual_norm)

    p = sub.add_parser("metric", help="distance between two k-subsets")
    p.add_argument("--space", default="l1")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--kind", choices=["hamming", "johnson", "d_e"], default="d_e")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("diameter", help="diameter of the metric on [N]^k")
    p.add_argument("--space", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--check", type=int, default=None, metavar="N",
                   help="brute-check against all pairs of [N]^k")
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("distortion", help="distortion of an embedding on [n]^k")
    p.add_argument("--embedding", required=True,
                   help="prop73:p=1,k=2 | xpq:p=2,q=1,k=2 | array:<file>")
    p.add_argument("--metric", default="hamming",
                   help="hamming | johnson | d_e:<space>")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--decimal", type=int, default=None)
    p.set_defaults(func=cmd_distortion)

    p = sub.add_parser("verify", help="run a lemma verifier, emit a JSON report")
    lemmas = p.add_subparsers(dest="lemma", required=True)
    for lemma, (_, names) in LEMMAS.items():
        q = lemmas.add_parser(lemma)
        for name in names:
            q.add_argument("--" + name.replace("_", "-"), **VERIFY_OPTIONS[name])
        q.add_argument("--decimal", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("parse", help="canonical form of a space expression")
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_parse)

    # each command, and each lemma of `verify`, reports its own usage errors
    for command in (*sub.choices.values(), *lemmas.choices.values()):
        command.set_defaults(parser=command)
    return parser


def main(argv=None) -> int:
    # arguments left over are reported by the parser of the command that
    # ran, so its usage line is the one printed
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except BanachLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1


if __name__ == "__main__":
    sys.exit(main())
