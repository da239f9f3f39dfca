"""Dual-mode scalars.

Exact mode works over `fractions.Fraction`; float mode over `float`.  A
coefficient set never mixes the two: the mode is a property of the whole
tuple, decided when the input is parsed.
"""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import ParseError, TooManyDigits

Scalar = Fraction | float

EXACT = "exact"
FLOAT = "float"

# exact zero, shared: a Fraction is immutable
EXACT_ZERO = Fraction(0)


# the decimal exponent of any text Fraction reads
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\Z")


def parse_scalar(value, mode: str) -> Scalar:
    """Parse one JSON/CSV cell: int, "p/q" string, decimal string, or float.

    Floats (JSON numbers with a fractional part) are rejected in exact mode;
    a decimal *string* like "0.25" is exact and allowed in either mode.  Float
    mode returns only finite floats: NaN, an infinity, or a value beyond the
    float range raises ParseError.  A decimal exponent of magnitude beyond
    the int-to-str digit limit raises ParseError in either mode, as a longer
    integer does, before any power of ten is built.
    """
    if type(value) is str and value.isascii():
        # fast path for an unpadded ASCII integer or "p/q" (q > 0), same
        # value as Fraction(text), or in float mode as float(Fraction(text)):
        # the int quotient, rounded once; anything else (padding, "+", "_",
        # decimals, q = 0, digits beyond int()'s limit) falls through
        num, slash, den = value.partition("/")
        if (num.removeprefix("-").isdigit()
                and (not slash or den.isdigit() and den.strip("0"))):
            try:
                if mode != EXACT:
                    return _finite(int(num), int(den) if slash else 1, value)
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            except ValueError:
                pass
    if type(value) is float and mode != EXACT and math.isfinite(value):
        return value
    if isinstance(value, bool):
        raise ParseError(f"boolean is not a coefficient: {value!r}")
    if isinstance(value, int):
        return Fraction(value) if mode == EXACT else _finite(value)
    if isinstance(value, float):
        if mode == EXACT:
            raise ParseError(
                f"float literal {value!r} in exact mode; pass a string like \"1/3\" or \"0.25\"")
        return _finite(value)
    if isinstance(value, str):
        text = value.strip()
        exponent = _EXPONENT.search(text)
        if exponent:
            _check_exponent(exponent.group(1), value)
        try:
            frac = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(
                f"cannot parse coefficient {value!r:.40}: {exc!s:.160}") from exc
        return frac if mode == EXACT else _finite(frac, 1, value)
    raise ParseError(f"unsupported coefficient type {type(value).__name__}: {value!r}")


def _check_exponent(exponent: str, raw) -> None:
    """ParseError naming the cell raw when the decimal exponent's magnitude
    exceeds the int-to-str digit limit (none when the limit is off, or on a
    Python before 3.10.7, which has none): the power of ten Fraction(text)
    builds would take seconds.  An exponent int() cannot read is left to
    Fraction, which refuses it at once."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        beyond = limit and abs(int(exponent)) > limit
    except ValueError:
        beyond = False
    if beyond:
        raise ParseError(f"cannot parse coefficient {raw!r:.40}: decimal exponent "
                         f"beyond the int-to-str digit limit ({limit})")


def _finite(value, den: int = 1, raw=None) -> float:
    """value / den as a finite float (an int quotient rounded once), or
    ParseError naming the cell raw."""
    try:
        v = float(value) if den == 1 else value / den
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        shown = f"{value if raw is None else raw!r:.40}"
        raise ParseError(f"coefficient {shown} is not a finite float")
    return v


# an int of at most 2000 bits has at most 603 decimal digits, under the
# lowest int-to-str digit limit Python allows (640)
_SHORT_BITS = 2000


def format_scalar(v: Scalar):
    """JSON-friendly form: Fractions as int or "p/q" string, ints as ints,
    floats as floats.
    TooManyDigits when an exact value has a part too long to convert to str
    (an int would otherwise fail only later, in json.dumps)."""
    if type(v) is float:
        return v
    if v is EXACT_ZERO:    # a vanishing exact residual
        return 0
    if isinstance(v, Fraction) or type(v) is int:
        num, den = v.numerator, v.denominator
        if num.bit_length() > _SHORT_BITS or den.bit_length() > _SHORT_BITS:
            try:
                str(num), str(den)
            except ValueError:
                raise TooManyDigits("exact value beyond the int-to-str digit "
                                    "limit; use --float") from None
        if den == 1:
            return num
        return f"{num}/{den}"
    return float(v)


def exact_sqrt(v: Fraction):
    """Square root of a nonnegative rational if it is rational, else None."""
    if v < 0:
        return None
    num, den = v.numerator, v.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
