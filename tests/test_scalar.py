"""Exact parsing: the fast path for ASCII integers and "p/q" strings gives
the value and type of `Fraction(text)`, and every other text keeps its
`Fraction(text)` result or error."""
from fractions import Fraction

import pytest

from cyclide.errors import ParseError, TooManyDigits
from cyclide.scalar import EXACT, format_scalar, parse_scalar

CASES = ["3/4", "-3/4", " 7 ", "+3/4", "3/04", "0/5", "-0", "3/0", "3/-4",
         "1_000/3", "١/٢", "0.25", "1e3", "", "/3", "3/",
         "007/010", "1/0", "1_0", "/2", "2/", "３", "-", "--3", "3/4/5",
         # at and beyond int()'s default 4300-digit limit
         "7" * 4300, "1" * 4301, "-2/" + "3" * 4301]


def fraction_of(text):
    """The exact parse by Fraction(text) alone: the value, or the ParseError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return ParseError(f"cannot parse coefficient {text!r:.40}: {exc!s:.160}")


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


@pytest.mark.parametrize("text", ["9" * 5001, "x" * 5001], ids=["digits", "junk"])
def test_long_cell_message_is_cut(text):
    """The message shows 40 characters of the cell, not all of it."""
    with pytest.raises(ParseError) as err:
        parse_scalar(text, EXACT)
    assert str(err.value).startswith(f"cannot parse coefficient '{text[:39]}: ")
    assert len(str(err.value)) < 250


@pytest.mark.parametrize("value, want", [
    (7, Fraction(7)),
    (-10 ** 50, Fraction(-10 ** 50)),
    (True, "boolean is not a coefficient: True"),
    (0.5, "float literal 0.5 in exact mode"),
    (None, "unsupported coefficient type NoneType"),
], ids=["int", "long int", "bool", "float", "None"])
def test_exact_non_string_cells(value, want):
    """An int cell is its Fraction; bool, float and other cells are refused."""
    if isinstance(want, Fraction):
        got = parse_scalar(value, EXACT)
        assert type(got) is Fraction and got == want
    else:
        with pytest.raises(ParseError, match=want):
            parse_scalar(value, EXACT)


@pytest.mark.parametrize("v, want", [
    (Fraction(10 ** 1000), 10 ** 1000),
    (Fraction(-1, 10 ** 1000), f"-1/{10 ** 1000}"),
    (Fraction(10 ** 5000), TooManyDigits),
    (Fraction(10 ** 5000, 3), TooManyDigits),
    (Fraction(3, 10 ** 5000), TooManyDigits),
], ids=["int", "p/q", "long int", "long p", "long q"])
def test_format_scalar_refuses_what_cannot_be_printed(v, want):
    """Parts beyond the int-to-str digit limit (4300 by default) raise
    TooManyDigits in place of the ValueError that printing them would."""
    if want is TooManyDigits:
        with pytest.raises(TooManyDigits, match="use --float"):
            format_scalar(v)
    else:
        assert format_scalar(v) == want
