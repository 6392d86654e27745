"""Space DSL: grammar, canonical formatting, vector validation."""

from fractions import Fraction

import pytest

from banachlab.errors import InputError, ParseError
from banachlab.spaces import (
    MAX_NESTING,
    Indexed,
    Lp,
    LpN,
    ModifiedTsirelson,
    Repeat,
    Sum,
    Tsirelson,
    TsirelsonDual,
    format_space,
    parse_space,
    register_gauge,
    space_depth,
    validate_vector,
)
from banachlab.vectors import parse_vector

VALID = [
    "T",
    "T*",
    "M",
    "c0",
    "l1",
    "lp(2)",
    "lp(3/2)",
    "lp(inf)",
    "lpn(1,4)",
    "lpn(inf,2)",
    "S(log2)",
    "sum(T*, repeat(T*))",
    "sum(T*, indexed(sum(lpn(1,#), repeat(T*))))",
    "sum(lpn(1,2), repeat(T*))",
    " sum( c0 , repeat( lp( 2 ) ) ) ",
]


class TestParse:
    def test_base_cases(self):
        assert parse_space("T") == Tsirelson()
        assert parse_space("T*") == TsirelsonDual()
        assert parse_space("M") == ModifiedTsirelson()
        assert parse_space("c0") == Lp(None)
        assert parse_space("l1") == Lp(Fraction(1))
        assert parse_space("lp(inf)") == Lp(None)

    def test_dual_sum_composition(self):
        space = parse_space("sum(T*, repeat(T*))")
        assert space == Sum(TsirelsonDual(), Repeat(TsirelsonDual()))

    def test_indexed_tower(self):
        space = parse_space("sum(T*, indexed(sum(lpn(1,#), repeat(T*))))")
        assert isinstance(space.inner, Indexed)
        third = space.inner_at(3)
        assert third == Sum(LpN(Fraction(1), 3), Repeat(TsirelsonDual()))

    def test_whitespace_insensitive(self):
        assert parse_space("sum(T*,repeat(T*))") == parse_space(" sum( T* , repeat( T* ) )")
        assert parse_space("lp( 3 / 2 )") == parse_space("lp(3/2)")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as info:
            parse_space("sum(T*")
        assert info.value.offset == 6
        with pytest.raises(ParseError):
            parse_space("bogus")
        with pytest.raises(ParseError):
            parse_space("T extra")

    def test_semantic_errors(self):
        with pytest.raises(InputError):
            parse_space("lp(1/2)")
        with pytest.raises(InputError):
            parse_space("lpn(2,0)")
        with pytest.raises(InputError):
            parse_space("S(nope)")
        with pytest.raises(InputError):
            parse_space("sum(T*, indexed(T))")  # no placeholder

    def test_roundtrip_through_canonical_formatter(self):
        for text in VALID:
            once = parse_space(text)
            assert parse_space(format_space(once)) == once

    def test_indexed_instantiations_valid_up_to_64(self):
        space = parse_space("sum(T*, indexed(sum(lpn(1,#), repeat(T*))))")
        for k in range(1, 65):
            inner = space.inner_at(k)
            assert inner.outer.n == k
            assert space_depth(inner) == 2


class TestDepthAndValidation:
    def test_depths(self):
        assert space_depth(parse_space("T")) == 1
        assert space_depth(parse_space("sum(T*, repeat(T*))")) == 2
        assert space_depth(parse_space("sum(T*, indexed(sum(lpn(1,#), repeat(T*))))")) == 3

    def test_validate_ok(self):
        validate_vector(parse_space("T"), parse_vector("1:1,2:1"))
        validate_vector(parse_space("sum(T*,repeat(T*))"), parse_vector("3.5:1/2"))

    def test_depth_mismatch_reported(self):
        with pytest.raises(InputError) as info:
            validate_vector(parse_space("T"), parse_vector("1.2:1"))
        assert "depth" in str(info.value)

    def test_lpn_bound_enforced(self):
        validate_vector(parse_space("lpn(1,3)"), parse_vector("3:1"))
        with pytest.raises(InputError):
            validate_vector(parse_space("lpn(1,3)"), parse_vector("4:1"))

    def test_nested_lpn_bound(self):
        space = parse_space("sum(T*, indexed(sum(lpn(1,#), repeat(T*))))")
        validate_vector(space, parse_vector("3.2.5:1"))
        with pytest.raises(InputError):
            validate_vector(space, parse_vector("3.4.5:1"))

    def test_zero_vector_always_valid(self):
        validate_vector(parse_space("T"), parse_vector("0"))

    def test_nesting_is_capped_in_the_parser_and_in_code(self):
        def text(n):
            return "sum(T,repeat(" * n + "T" + "))" * n

        assert space_depth(parse_space(text(MAX_NESTING))) == MAX_NESTING + 1
        for n in (MAX_NESTING + 1, 499):
            with pytest.raises(ParseError, match="nested deeper"):
                parse_space(text(n))
        # the template's sums count with the ones around it
        template = "sum(lpn(1,#),repeat(" + text(MAX_NESTING - 1) + "))"
        with pytest.raises(InputError, match="nested deeper"):
            parse_space(f"sum(T,indexed({template}))")
        space = parse_space(text(MAX_NESTING))
        with pytest.raises(InputError, match="nested deeper"):
            Sum(Tsirelson(), Repeat(space))


class TestGauges:
    def test_log2_values(self):
        gauge = parse_space("S(log2)").gauge
        assert gauge(1) == 1.0
        assert abs(gauge(3) - 2.0) < 1e-12

    def test_registration_rejects_bad_gauges(self):
        with pytest.raises(InputError):
            register_gauge("bad-small", lambda l: 0.5)
        with pytest.raises(InputError):
            register_gauge("bad-decreasing", lambda l: 100.0 - l)
