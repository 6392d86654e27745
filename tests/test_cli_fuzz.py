"""Grammar fuzzing of the CLI error contract: every argument list, valid
or not, ends with exit code 0, 1, 2 or 3 and never with a traceback.
The same grammar draws sum spaces of depth 2 and 3 for the norm axioms.

Spaces come from the README grammar and vectors have the depth of their
space; sizes stay small, far below the caps, except `diameter --k`,
which is also drawn past its point budget.  A quarter of the argument
lists then get one value replaced by junk, so that each argument is
also tried malformed.  The search is derandomized, so every run replays
the same examples."""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachlab.cli import main
from banachlab.errors import InputError
from banachlab.hamming import POINT_BUDGET
from banachlab.norms import NormEngine
from banachlab.spaces import parse_space, space_depth, validate_vector
from banachlab.vectors import SparseVec

P = st.sampled_from(["1", "2", "3/2", "inf"])
LEAVES = st.one_of(
    st.sampled_from(["T", "T*", "M", "c0", "l1", "S(log2)"]),
    st.builds("lp({})".format, P),
    st.builds("lpn({},{})".format, P, st.integers(1, 3)),
)


# the summands of an indexed template hold no `indexed`: its `#` would
# be taken by the outer one
REPEATS = st.recursive(LEAVES, lambda inner: st.builds("sum({},repeat({}))".format, LEAVES, inner),
                       max_leaves=2)


def _sums(children):
    inner = st.one_of(
        st.builds("repeat({})".format, children),
        # `#` is the outer index: the k-th summand has width k
        st.builds("indexed(lpn({},#))".format, P),
        st.builds("indexed(sum(lpn({},#),repeat({})))".format, P, REPEATS),
    )
    return st.builds("sum({},{})".format, LEAVES, inner)  # the outer space has depth 1


SPACES = st.recursive(LEAVES, _sums, max_leaves=4)
VALUES = st.one_of(
    st.integers(1, 3).map(str),
    st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 4)).map(lambda t: f"{t[0]}/{t[1]}"),
)
JUNK = st.sampled_from(
    ["", "0", "-1", "x", "1/0", "1:1/0", "0:1", "1.1:1", "1:", "lp(1/2)", "lpn(1,0)",
     "sum(T,", "sum(T,indexed(T))", "S(nope)", "1,1", "3,2", "inf", f"1:{10**400}/3"]
)


def _vector(draw, depth, points=5):
    path = st.lists(st.integers(1, 3), min_size=depth, max_size=depth)
    terms = draw(st.dictionaries(path.map(tuple), VALUES, min_size=1, max_size=points))
    return ",".join(".".join(map(str, p)) + ":" + value for p, value in terms.items())


def _subset(draw, k):
    values = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k, unique=True))
    return ",".join(map(str, sorted(values)))


def _options(draw, pairs):
    """Each (flag, strategy) pair drawn as `flag value`, or left out."""
    argv = []
    for flag, values in pairs:
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    return argv


def _command(draw, command):
    """A well-formed argument list for `command` (a verify lemma for
    `verify`)."""
    if command in ("norm", "parse"):
        space = draw(SPACES)
        if command == "parse":
            return ["parse", "--space", space]
        vec = _vector(draw, space_depth(parse_space(space)))
        oracle = ["--oracle"] if space == "T" and draw(st.booleans()) else []
        return ["norm", "--space", space, "--vec", vec, *oracle]
    if command == "dual-norm":
        return ["dual-norm", "--vec", _vector(draw, 1), *draw(st.sampled_from([[], ["--witness"]]))]
    if command == "metric":
        k = draw(st.integers(1, 4))
        return ["metric", "--space", draw(LEAVES), "--k", str(k), "--a", _subset(draw, k),
                "--b", _subset(draw, k), "--kind", draw(st.sampled_from(["hamming", "johnson", "d_e"]))]
    if command == "diameter":
        k = draw(st.one_of(st.integers(1, 3), st.integers(POINT_BUDGET + 1, 10**400)))
        return ["diameter", "--space", draw(LEAVES), "--k", str(k),
                *_options(draw, [("--check", st.integers(2 * k, 2 * k + 2))])]
    if command == "distortion":
        p, q, k = draw(P), draw(P), draw(st.integers(1, 2))
        embedding = draw(st.sampled_from(
            [f"prop73:p={p},k={k}", f"xpq:p={p},q={q},k={k}", f"xpq:p={p},q={q},k={k},w=3"]
        ))
        metric = draw(st.one_of(
            st.sampled_from(["hamming", "johnson"]), LEAVES.map("d_e:{}".format)
        ))
        return ["distortion", "--embedding", embedding, "--metric", metric,
                "--n", str(draw(st.integers(k, 4))), *_options(draw, [("--decimal", st.integers(0, 4))])]
    # the verifiers, each with its sizes below the defaults
    sizes = {
        "block-c0": [("--max-support", st.integers(1, 6)),
                     ("--variant", st.sampled_from(["strict", "relaxed"]))],
        "dm": [("--n", st.integers(1, 3)), ("--max-support", st.integers(3, 7))],
        "cm": [("--max-support", st.integers(1, 4)), ("--samples", st.integers(0, 2))],
        "l2": [("--samples", st.integers(1, 2)), ("--ceiling", st.integers(1, 12))],
        "hat": [("--k", st.integers(1, 2)), ("--samples", st.integers(1, 2))],
        "c0-subseq": [("--k", st.integers(1, 2)), ("--samples", st.integers(1, 2))],
        "spreading": [("--space", SPACES), ("--k", st.integers(1, 4)),
                      ("--shift", st.integers(0, 5)),
                      ("--blocks", st.sampled_from(["unit", "doubleton"]))],
    }[command]
    defaults = {"block-c0": ["--max-support", "4"], "dm": ["--max-support", "6"],
                "cm": ["--max-support", "3", "--samples", "1"], "l2": draw(st.sampled_from([["--k", "1", "--cuts", "1,2"], ["--k", "2", "--cuts", "2,3,5"]])),
                "hat": ["--samples", "1"], "c0-subseq": ["--samples", "1"]}
    argv = ["verify", command, *defaults.get(command, []), *_options(draw, sizes)]
    return argv + _options(draw, [("--decimal", st.integers(0, 4))])


@st.composite
def argument_lists(draw, command):
    argv = _command(draw, command)
    if draw(st.integers(0, 3)) == 0:
        values = [i for i, word in enumerate(argv) if i and not word.startswith("--")]
        argv[draw(st.sampled_from(values))] = draw(JUNK)
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


COMMANDS = ["norm", "dual-norm", "metric", "diameter", "distortion", "parse",
            "block-c0", "dm", "cm", "l2", "hat", "c0-subseq", "spreading"]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_argument_list_keeps_the_exit_contract(command):
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(argument_lists(command))
    def check(argv):
        code, _, err = _run(argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)

    check()


# -- norm axioms on sum spaces ------------------------------------------------

# sums of depth 2 and 3, with every leaf space
DEPTH2 = st.one_of(
    st.builds("sum({},repeat({}))".format, LEAVES, LEAVES),
    st.builds("sum({},indexed(lpn({},#)))".format, LEAVES, P),
)
SUM_SPACES = st.one_of(
    DEPTH2,
    st.builds("sum({},repeat({}))".format, LEAVES, DEPTH2),
    st.builds("sum({},indexed(sum(lpn({},#),repeat({}))))".format, LEAVES, P, LEAVES),
)
SUM_VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def _is_valid(space, x) -> bool:
    try:
        validate_vector(space, x)
    except InputError:
        return False
    return True


@st.composite
def sum_space_vectors(draw):
    """A sum space and two vectors of at most 4 terms that it validates."""
    space = parse_space(draw(SUM_SPACES))
    path = st.tuples(*[st.integers(1, 3)] * space_depth(space))

    def vector():
        # the first 4 candidate paths that the space validates
        paths = draw(st.lists(path, min_size=4, max_size=12, unique=True))
        paths = [p for p in paths if _is_valid(space, SparseVec({p: 1}))][:4]
        return SparseVec({p: draw(SUM_VALUES) for p in paths})

    return space, vector(), vector()


def _agree(a, b) -> bool:
    """Exact for two Fractions, else within a relative 1e-12."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@given(sum_space_vectors())
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_sum_norm_homogeneity_and_triangle(drawn):
    space, x, y = drawn
    engine = NormEngine(space)
    nx, ny = engine.norm(x), engine.norm(y)
    for c in (Fraction(-2), Fraction(1, 3), Fraction(3, 2)):
        assert _agree(engine.norm(c * x), abs(c) * nx), (c, x)
    total = nx + ny
    assert engine.norm(x + y) <= total * (1 + 1e-12 if isinstance(total, float) else 1)

