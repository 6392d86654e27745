"""The value classes on their `records` base.

The reprs, errors and comparisons below were pinned from the earlier
`@dataclass` versions of these classes; the reprs appear in `InputError`
messages, so they must stay byte for byte.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import banachlab
from banachlab import (
    ArrayEmbed,
    Caps,
    DistortionReport,
    FGauge,
    Functional,
    Indexed,
    InputError,
    LPResult,
    Lp,
    LpN,
    ModifiedTsirelson,
    Prop73,
    Repeat,
    Schlumprecht,
    SparseVec,
    Sum,
    Tsirelson,
    TsirelsonDual,
    VerifierReport,
    XpqBranch,
    parse_space,
)
from banachlab.spaces import get_gauge

F = Fraction
LOG2 = get_gauge("log2")
T_SUM = parse_space("sum(l1,repeat(T))")
ENTRY = SparseVec({(1, 1): 1})


def make():
    """One instance of each of the 18 classes, built anew on each call,
    with its pinned repr."""
    return [
        (Caps(dual=14), "Caps(tsirelson=10, modified=12, dual=14)"),
        (
            LPResult(F(3, 2), SparseVec({(1,): F(1, 2)}), ()),
            "LPResult(value=Fraction(3, 2), witness=SparseVec('1:1/2'), certificate=())",
        ),
        (
            Functional(SparseVec({(2,): F(1, 2), (3,): F(-1, 2)}), 1),
            "Functional(coefficients=SparseVec('2:1/2,3:-1/2'), depth=1)",
        ),
        (
            VerifierReport("l", {"k": 2}, 3, F(1, 3), None, True),
            "VerifierReport(lemma='l', params={'k': 2}, samples=3, max_ratio=Fraction(1, 3), "
            "witness=None, passed=True, seed=None, bound_claimed='')",
        ),
        (FGauge("log2", LOG2.fn), f"FGauge(name='log2', fn={LOG2.fn!r})"),
        (Lp(F(2)), "Lp(p=Fraction(2, 1))"),
        (LpN(F(3, 2), 4), "LpN(p=Fraction(3, 2), n=4)"),
        (Tsirelson(), "Tsirelson()"),
        (TsirelsonDual(), "TsirelsonDual()"),
        (ModifiedTsirelson(), "ModifiedTsirelson()"),
        (Schlumprecht(LOG2), f"Schlumprecht(gauge=FGauge(name='log2', fn={LOG2.fn!r}))"),
        (Repeat(Tsirelson()), "Repeat(inner=Tsirelson())"),
        (Indexed("lpn(2,#)"), "Indexed(template='lpn(2,#)')"),
        (
            Sum(Lp(None), Indexed("lpn(2,#)")),
            "Sum(outer=Lp(p=None), inner=Indexed(template='lpn(2,#)'))",
        ),
        (Prop73(F(1), 3), "Prop73(p=Fraction(1, 1), k=3)"),
        (
            ArrayEmbed({(1, 3): ENTRY}, space=T_SUM),
            "ArrayEmbed(array={(1, 3): SparseVec('1.1:1')}, k=1, space=Sum(outer=Lp(p=Fraction(1, 1)), "
            "inner=Repeat(inner=Tsirelson())))",
        ),
        (XpqBranch(F(2), None, 3), "XpqBranch(p=Fraction(2, 1), q=None, k=3)"),
        (
            DistortionReport(F(1), 2.0, 2.0, ((1, 2), (1, 3)), ((1, 2), (2, 3)), 10),
            "DistortionReport(lower=Fraction(1, 1), upper=2.0, distortion=2.0, "
            "argmin=((1, 2), (1, 3)), argmax=((1, 2), (2, 3)), pairs=10)",
        ),
    ]


IDS = [type(obj).__name__ for obj, _ in make()]


@pytest.mark.parametrize("index", range(18), ids=IDS)
def test_repr_and_equality(index):
    (obj, text), (twin, _) = make()[index], make()[index]
    assert repr(obj) == text
    assert obj is not twin and obj == twin and not obj != twin
    for other, _ in make():
        if type(other) is not type(obj):
            assert obj != other and other != obj
    if not isinstance(obj, VerifierReport):
        assert hash(obj) == hash(twin)


@pytest.mark.parametrize("index", range(18), ids=IDS)
def test_fields_are_frozen(index):
    obj = make()[index][0]
    if isinstance(obj, VerifierReport):
        obj.samples = 4
        assert obj.samples == 4 and obj != make()[index][0]
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
        return
    fields = obj.__match_args__
    for name in fields or ("p",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 1)
        if fields:
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)
    assert repr(obj) == make()[index][1]


def test_keyword_and_default_construction():
    assert Caps() == Caps(10, 12, 10) == Caps(tsirelson=10, dual=10, modified=12)
    assert Caps(dual=14).dual == 14 and Caps(dual=14).tsirelson == 10
    embed = ArrayEmbed({(1, 3): ENTRY}, space=T_SUM)
    assert embed == ArrayEmbed(array={(1, 3): ENTRY}, k=1, space=T_SUM)
    assert embed.k == 1
    report = VerifierReport(lemma="l", params={}, samples=1, max_ratio=None, witness=None, passed="reported")
    assert report.seed is None and report.bound_claimed == ""
    assert LPResult(value=F(1), witness=SparseVec(), certificate=()).value == 1
    assert Functional(depth=0, coefficients=ENTRY).depth == 0
    assert Sum(inner=Repeat(Tsirelson()), outer=Lp(F(1))) == T_SUM
    assert DistortionReport(pairs=1, lower=1, upper=1, distortion=1, argmin=(), argmax=()).pairs == 1
    assert LpN(n=2, p=None) == parse_space("lpn(inf,2)")
    assert Prop73(k=2, p=F(1)) == Prop73(F(1), 2)
    assert XpqBranch(k=2, q=F(1), p=F(2)) == XpqBranch(F(2), F(1), 2)
    with pytest.raises(TypeError):
        Caps(other=1)
    with pytest.raises(TypeError):
        Tsirelson(1)


def test_comparisons_by_chosen_fields():
    # a gauge compares and hashes by its name only
    other = FGauge("log2", lambda l: 2.0)
    assert other == LOG2 and hash(other) == hash(LOG2)
    assert FGauge("log3", LOG2.fn) != LOG2
    # an array embedding compares its array but does not hash it
    a = ArrayEmbed({(1, 3): ENTRY}, space=T_SUM)
    b = ArrayEmbed({(1, 5): ENTRY}, space=T_SUM)
    assert a != b and hash(a) == hash(b)
    assert Tsirelson() != TsirelsonDual() != ModifiedTsirelson()
    assert hash(Tsirelson()) == hash(TsirelsonDual()) == hash(())
    assert Lp(None) != LpN(None, 1) and Prop73(F(2), 3) != XpqBranch(F(2), F(2), 3)


def test_scaled_terms_is_cached():
    f = Functional(SparseVec({(2,): F(1, 2), (3,): F(-1, 4)}), 2)
    assert f.scaled_terms == ((2, 2), (3, -1))
    assert f.scaled_terms is f.scaled_terms
    assert f == Functional(f.coefficients, 2)  # the cache is not compared


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Lp(F(1, 2)), "lp requires p >= 1, got 1/2"),
        (lambda: LpN(F(1, 2), 3), "lpn requires p >= 1, got 1/2"),
        (lambda: LpN(None, 0), "lpn requires n >= 1, got 0"),
        (lambda: Indexed("foo#"), r"unknown space 'foo1' \(at byte 4\)"),
        (lambda: Indexed("lpn(2,#"), r"expected '\)' \(at byte 7\)"),
        (lambda: Sum(T_SUM, Repeat(Tsirelson())), "the outer space of a sum must be a depth-1 space"),
        (lambda: ArrayEmbed({(1, 3): ENTRY}), "an array embedding needs its ambient space"),
        (lambda: ArrayEmbed({(1, 3): 2 * ENTRY}, 1, T_SUM), r"array entry \(1, 3\) is not normalized"),
    ],
)
def test_construction_validates(build, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        build()


def test_nesting_bound_at_construction():
    space = Lp(None)
    for _ in range(64):
        space = Sum(Lp(None), Repeat(space))
    with pytest.raises(InputError, match="sums nested deeper than 64"):
        Sum(Lp(None), Repeat(space))


def test_import_loads_no_dataclasses_or_inspect():
    src = str(Path(banachlab.__file__).resolve().parents[1])
    code = "import sys, banachlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
