"""Extended-real arithmetic helpers.

Values are plain Python numbers: int, Fraction, or float, with the two float
infinities standing in for +/-inf.  Fraction mixes exactly with the float
infinities under comparison and max/min, and sub subtracts them without a
float() that overflows past the floats, so no wrapper type is needed.  The
helpers below pin down the two conventions the variational formulas rely on:

  * pos_part(s) is s for s > 0 and 0 otherwise (so pos_part(+inf) = +inf),
  * sub(a, b) is a - b except that inf - inf = 0 for same-signed infinities.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Optional, Union

Num = Union[int, float, Fraction]

POS_INF = float("inf")
NEG_INF = float("-inf")

# Comparison tolerance used whenever a value chain passed through floats.
FLOAT_TOL = 1e-12


def is_pos_inf(v: Num) -> bool:
    return isinstance(v, float) and math.isinf(v) and v > 0


def is_neg_inf(v: Num) -> bool:
    return isinstance(v, float) and math.isinf(v) and v < 0


def is_finite(v: Num) -> bool:
    return not (isinstance(v, float) and math.isinf(v))


def is_exact(v: Num) -> bool:
    """True when v carries no rounding: int or Fraction (bool excluded)."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def pos_part(s: Num) -> Num:
    return s if s > 0 else 0


def sub(a: Num, b: Num) -> Num:
    """a - b with inf - inf = 0 (either sign); +-inf against any number skips
    float(), and an exact side past the floats against a float subtracts exactly."""
    if isinstance(a, float) and math.isinf(a) and b == b:
        return 0 if a == b else a
    if isinstance(b, float) and math.isinf(b) and a == a:
        return -b
    try:
        return a - b
    except OverflowError:  # an exact side past the floats: a finite float is a Fraction exactly
        return Fraction(a) - Fraction(b)


def resolve_tolerance(tol: Optional[Num], *values: Num) -> Num:
    """tol when set; unset, FLOAT_TOL when a compared value is a finite float, else 0."""
    if tol is not None:
        return tol
    return FLOAT_TOL if any(not is_exact(v) and is_finite(v) for v in values) else 0


def close(a: Num, b: Num, tol: Num = 0) -> bool:
    """Equality up to tol; infinities only match infinities of the same sign."""
    if is_pos_inf(a) or is_pos_inf(b):
        return is_pos_inf(a) and is_pos_inf(b)
    if is_neg_inf(a) or is_neg_inf(b):
        return is_neg_inf(a) and is_neg_inf(b)
    try:
        return abs(a - b) <= tol
    except OverflowError:  # an exact side past the floats: a finite float is a Fraction exactly
        return abs(Fraction(a) - Fraction(b)) <= tol


def fmt(v: Num):
    """JSON-safe encoding: infinities and Fractions become strings."""
    if is_pos_inf(v):
        return "inf"
    if is_neg_inf(v):
        return "-inf"
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


def _check_exponent(v: str, s: str) -> None:
    """Reject a decimal exponent whose value would have more digits than the
    interpreter allows in an int string: Fraction would expand it in full."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    try:
        exponent = int(s.lower().rpartition("e")[2])
    except ValueError:  # no exponent after all; Fraction reads or rejects s
        return
    if abs(exponent) > limit:
        raise ValueError(f"{v!r} would expand to more than {limit} digits")


def parse(v) -> Num:
    """Inverse of fmt, also accepting plain JSON numbers.

    Strings may be "inf", "-inf", an integer or decimal literal, or "p/q".
    NaN, which fmt never writes, is rejected.
    """
    if isinstance(v, bool) or (isinstance(v, float) and math.isnan(v)):
        raise ValueError(f"not a number: {v!r}")
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        s = v.strip()
        if s in ("inf", "+inf", "Infinity"):
            return POS_INF
        if s in ("-inf", "-Infinity"):
            return NEG_INF
        if "e" in s or "E" in s:
            _check_exponent(v, s)
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a number: {v!r}") from exc
    raise ValueError(f"not a number: {v!r}")
