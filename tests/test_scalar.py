"""Exact parsing: the fast path for ASCII integers and "p/q" strings gives
the value and type of `Fraction(text)`, and every other text keeps its
`Fraction(text)` result or error."""
from fractions import Fraction

import pytest

from cyclide.errors import ParseError
from cyclide.scalar import EXACT, parse_scalar

CASES = ["3/4", "-3/4", " 7 ", "+3/4", "3/04", "0/5", "-0", "3/0", "3/-4",
         "1_000/3", "١/٢", "0.25", "1e3", "", "/3", "3/",
         # beyond int()'s default 4300-digit limit
         "1" * 4301, "-2/" + "3" * 4301]


def fraction_of(text):
    """The exact parse by Fraction(text) alone: the value, or the ParseError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return ParseError(f"cannot parse coefficient {text!r}: {exc}")


@pytest.mark.parametrize("text", CASES, ids=lambda text: repr(text)[:12])
def test_exact_parse_agrees_with_fraction(text):
    want = fraction_of(text)
    if isinstance(want, ParseError):
        with pytest.raises(ParseError) as err:
            parse_scalar(text, EXACT)
        assert str(err.value) == str(want)
    else:
        got = parse_scalar(text, EXACT)
        assert type(got) is Fraction and got == want
