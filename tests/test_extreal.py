"""Extended-real arithmetic: sign conventions, formatting, parsing."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepdet.extreal import (
    FLOAT_TOL,
    NEG_INF,
    POS_INF,
    close,
    fmt,
    is_exact,
    is_finite,
    is_neg_inf,
    is_pos_inf,
    parse,
    pos_part,
    resolve_tolerance,
    sub,
)

rationals = st.fractions(max_denominator=64)


class TestPredicates:
    def test_infinity_signs(self):
        assert is_pos_inf(POS_INF) and not is_pos_inf(NEG_INF)
        assert is_neg_inf(NEG_INF) and not is_neg_inf(POS_INF)
        assert not is_pos_inf(10**18) and not is_neg_inf(Fraction(-1, 3))

    def test_is_finite(self):
        assert is_finite(0) and is_finite(Fraction(7, 2)) and is_finite(1.5)
        assert not is_finite(POS_INF) and not is_finite(NEG_INF)

    def test_is_exact(self):
        assert is_exact(3) and is_exact(Fraction(1, 3))
        assert not is_exact(0.5) and not is_exact(True)


class TestResolveTolerance:
    @pytest.mark.parametrize("tol, values, want", [
        (None, (3, Fraction(3)), 0),  # an exact pair compares exactly
        (None, (2.5, 3), FLOAT_TOL),  # a finite float on either side
        (None, (3, 2.5), FLOAT_TOL),
        (None, (POS_INF, NEG_INF), 0),  # infinities alone compare exactly
        (None, (POS_INF, Fraction(1, 3)), 0),
        (None, (NEG_INF, 0.5), FLOAT_TOL),
        (None, (), 0),  # a skipped check compares nothing
        (Fraction(1, 10), (2.5, 3), Fraction(1, 10)),  # a set tolerance wins
        (0, (2.5, 3.5), 0),
        (0.5, (1, 2), 0.5),
    ])
    def test_the_rule_table(self, tol, values, want):
        got = resolve_tolerance(tol, *values)
        assert got == want and type(got) is type(want)


class TestConventions:
    def test_pos_part(self):
        assert pos_part(Fraction(3, 2)) == Fraction(3, 2)
        assert pos_part(-2) == 0
        assert pos_part(0) == 0
        assert pos_part(POS_INF) == POS_INF
        assert pos_part(NEG_INF) == 0

    def test_sub_matching_infinities_cancel(self):
        # the value convention: same-signed infinities subtract to 0
        assert sub(POS_INF, POS_INF) == 0
        assert sub(NEG_INF, NEG_INF) == 0

    def test_sub_mixed(self):
        assert sub(POS_INF, 3) == POS_INF
        assert sub(3, POS_INF) == NEG_INF
        assert sub(POS_INF, NEG_INF) == POS_INF
        assert sub(Fraction(5, 2), 1) == Fraction(3, 2)

    @pytest.mark.parametrize("big", [10 ** 400, -10 ** 400, Fraction(10 ** 400, 3)],
                             ids=["int", "negative int", "fraction"])
    def test_sub_keeps_an_infinity_against_an_exact_value_of_any_size(self, big):
        # a - b turns big into a float first, which overflows
        assert sub(POS_INF, big) == POS_INF and sub(NEG_INF, big) == NEG_INF
        assert sub(big, POS_INF) == NEG_INF and sub(big, NEG_INF) == POS_INF
        assert math.isnan(sub(POS_INF, math.nan)) and math.isnan(sub(math.nan, NEG_INF))

    @given(rationals, rationals)
    def test_sub_finite_agrees_with_minus(self, a, b):
        assert sub(a, b) == a - b


class TestClose:
    def test_exact(self):
        assert close(Fraction(1, 3), Fraction(2, 6))
        assert not close(1, 2)

    def test_tolerance(self):
        assert close(1.0, 1.0 + 1e-13, 1e-12)
        assert not close(1.0, 1.0 + 1e-9, 1e-12)

    def test_infinities_only_match_same_sign(self):
        assert close(POS_INF, POS_INF)
        assert close(NEG_INF, NEG_INF)
        assert not close(POS_INF, NEG_INF)
        assert not close(POS_INF, 10**9, 10**9)

    def test_an_exact_value_past_the_floats_compares_exactly_with_a_float(self):
        # a - b would convert the exact side to float, which overflows
        assert not close(10**999, 0.5)
        assert not close(0.25, Fraction(-10**400, 3), 1e308)
        assert close(10**400, 1.5, 10**400) and not close(10**400, 1.5, 10**400 - 2)
        assert close(Fraction(10**400 + 1, 2), 0.5, Fraction(10**400, 2))


class TestFormatRoundtrip:
    @pytest.mark.parametrize("v,expect", [
        (POS_INF, "inf"),
        (NEG_INF, "-inf"),
        (Fraction(3, 2), "3/2"),
        (Fraction(4, 2), "2"),
        (7, 7),
        (0.25, 0.25),
    ])
    def test_fmt(self, v, expect):
        assert fmt(v) == expect

    @given(rationals)
    def test_parse_inverts_fmt_on_rationals(self, q):
        assert parse(fmt(q)) == q

    def test_parse_infinities(self):
        assert is_pos_inf(parse("inf")) and is_pos_inf(parse("+inf"))
        assert is_neg_inf(parse("-inf"))

    def test_parse_numbers_pass_through(self):
        assert parse(5) == 5
        assert parse(0.5) == 0.5
        assert parse("7/4") == Fraction(7, 4)
        assert parse("2.5e-3") == Fraction(1, 400)
        assert parse("1e4300") == 10**4300  # at the interpreter's int digit bound

    @pytest.mark.parametrize("bad", ["seven", "1/0", None, True, [1], float("nan"), "nan",
                                     "1e999999999", "-1E-4301", "1e" + "9" * 5000])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse(bad)
