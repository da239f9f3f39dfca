"""Parsing and formatting: the fast path for ASCII integers and "p/q"
strings gives the value and type of `Fraction(text)` in exact mode and of
`float(Fraction(text))` in float mode, and every other text keeps its
`Fraction(text)` result or error; the float fast paths of `parse_scalar`
and `format_scalar` keep every refusal of the general path, and a decimal
exponent beyond the int-to-str digit limit is refused before any power of
ten is built.  An exact int prints as an int."""
import json
import math
import random
from fractions import Fraction

import pytest

from cyclide import DarbouxCoefficients
from cyclide.errors import ParseError, TooManyDigits
from cyclide.scalar import EXACT, FLOAT, format_scalar, parse_scalar
from cyclide.serialize import coefficients_to_json

CASES = ["3/4", "-3/4", " 7 ", "+3/4", "3/04", "0/5", "-0", "3/0", "3/-4",
         "1_000/3", "١/٢", "0.25", "1e3", "", "/3", "3/",
         "007/010", "1/0", "1_0", "/2", "2/", "３", "-", "--3", "3/4/5",
         # at and beyond int()'s default 4300-digit limit
         "7" * 4300, "1" * 4301, "-2/" + "3" * 4301,
         # decimal literals, plain and otherwise
         ".5", "5.", "1E5", "+.5e+3", "1e-400", "-1e-400", "1e400", "-0.0",
         "-0e5", "-.0E-7", "0.123456789", "2.5e-324", "1.7976931348623159e308",
         " 0.25 ", "1_0.5", "1e1_0", "1.5e", "e5", ".", "1..5", "-+1.5",
         "inf", "nan", "1." + "3" * 700, "0." + "1" * 4301]


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


@pytest.mark.parametrize("v", [0, 9, -10, 10 ** 1000],
                         ids=["zero", "nine", "minus ten", "long"])
def test_format_scalar_prints_an_int_as_itself(v):
    assert type(format_scalar(v)) is int and format_scalar(v) == v


def test_an_exact_int_slot_prints_as_an_int():
    # the int R=2, r=1 torus: its slots are exact, so none prints as a float
    torus = DarbouxCoefficients(1, 0, 0, 0, -10, -10, 6, 0, 0, 0, 0, 0, 0, 9)
    out = coefficients_to_json(torus)
    assert out == {"a0": 1, "c1": -10, "c2": -10, "c3": 6, "f0": 9}
    assert all(type(v) is int for v in out.values())
    with pytest.raises(TooManyDigits):
        format_scalar(10 ** 5000)


def float_of(text):
    """The float parse by Fraction(text) alone: its float, or the ParseError."""
    want = fraction_of(text)
    if isinstance(want, ParseError):
        return want
    try:
        return float(want)
    except OverflowError:
        return ParseError(f"coefficient {text!r:.40} is not a finite float")


@pytest.mark.parametrize("text", CASES + ["9" * 400, "-1/" + "3" * 400, "2" * 400 + "/3"],
                         ids=lambda text: repr(text)[:12])
def test_float_parse_agrees_with_fraction(text):
    want = float_of(text)
    if isinstance(want, ParseError):
        with pytest.raises(ParseError) as err:
            parse_scalar(text, FLOAT)
        assert str(err.value) == str(want)
    else:
        got = parse_scalar(text, FLOAT)
        assert type(got) is float and got.hex() == want.hex()


def test_float_parse_of_p_over_q_is_rounded_once():
    """The int quotient of the fast path is float(Fraction(p, q)) to the bit,
    for quotients near and far from a rounding boundary."""
    rng = random.Random(16)
    for _ in range(2000):
        num = rng.randrange(-10 ** rng.randint(1, 40), 10 ** rng.randint(1, 40))
        den = rng.randrange(1, 10 ** rng.randint(1, 40))
        if rng.random() < 0.3:
            den = 3 ** rng.randint(1, 60)
            num = den * rng.randint(-2 ** 53, 2 ** 53) + rng.choice((-1, 1))
        got = parse_scalar(f"{num}/{den}", FLOAT)
        assert got.hex() == float(Fraction(num, den)).hex(), (num, den)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("text", ["1e4000000", "-1e-4000000", " 1e4000000 ", "1_0e4000000",
                                  "0.5E+4301", "1e4_301"])
def test_huge_decimal_exponent_is_refused_at_once(text, mode, monkeypatch):
    """Fraction(text) would build 10**exponent, seconds of work for a short
    cell; an exponent beyond the digit limit never reaches it."""
    def refuse(*args):
        raise AssertionError("Fraction called")

    monkeypatch.setattr("cyclide.scalar.Fraction", refuse)
    with pytest.raises(ParseError) as err:
        parse_scalar(text, mode)
    assert str(err.value) == (f"cannot parse coefficient {text!r:.40}: decimal exponent "
                              "beyond the int-to-str digit limit (4300)")


def test_decimal_exponent_at_the_digit_limit_is_read():
    assert parse_scalar("1e4300", EXACT) == 10 ** 4300
    assert parse_scalar("-1e-4300", FLOAT).hex() == "-0x0.0p+0"
    with pytest.raises(ParseError, match="is not a finite float"):
        parse_scalar("1e4300", FLOAT)


def test_decimal_exponent_without_a_digit_limit_is_read(monkeypatch):
    """A Python without the limit (before 3.10.7) reads any exponent, as
    the parse did before the guard."""
    monkeypatch.delattr("sys.get_int_max_str_digits")
    assert parse_scalar("1e4301", EXACT) == 10 ** 4301
    assert parse_scalar("-1e-4301", FLOAT).hex() == "-0x0.0p+0"


@pytest.mark.parametrize("value, want", [
    (math.nan, "coefficient nan is not a finite float"),
    (math.inf, "coefficient inf is not a finite float"),
    (-math.inf, "coefficient -inf is not a finite float"),
    (json.loads("1e400"), "coefficient inf is not a finite float"),
    (json.loads("-1e400"), "coefficient -inf is not a finite float"),
    (10 ** 400, "is not a finite float"),
    (True, "boolean is not a coefficient: True"),
    (False, "boolean is not a coefficient: False"),
    (None, "unsupported coefficient type NoneType"),
    ([1.0], "unsupported coefficient type list"),
    (1j, "unsupported coefficient type complex"),
], ids=["nan", "inf", "-inf", "json 1e400", "json -1e400", "long int", "True",
        "False", "None", "list", "complex"])
def test_float_mode_refusals(value, want):
    """The float fast path returns finite floats only: NaN, an infinity (a
    JSON 1e400 parses to one), booleans and other types are refused."""
    with pytest.raises(ParseError, match=want):
        parse_scalar(value, FLOAT)


@pytest.mark.parametrize("value", [0.5, -0.0, 1e-320, 1.7976931348623157e308, 3.0])
def test_exact_mode_refuses_float_literals(value):
    with pytest.raises(ParseError) as err:
        parse_scalar(value, EXACT)
    assert str(err.value) == (f"float literal {value!r} in exact mode; "
                              "pass a string like \"1/3\" or \"0.25\"")


@pytest.mark.parametrize("value", [0.5, -0.0, 1e-320, -1.7976931348623157e308, 3.0])
def test_float_cells_and_reports_keep_their_float(value):
    got = parse_scalar(value, FLOAT)
    assert type(got) is float and got.hex() == value.hex()
    out = format_scalar(got)
    assert type(out) is float and out.hex() == value.hex()


def test_float_subclass_cells_and_reports_are_plain_floats():
    class Half(float):
        pass

    for got in (parse_scalar(Half(0.5), FLOAT), format_scalar(Half(0.5))):
        assert type(got) is float and got == 0.5
