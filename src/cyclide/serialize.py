"""Coefficient JSON/CSV parsing and report serialization.

Coefficient objects carry the keys a0, b1..b3, c1..c3, d1..d3, e1..e3, f0;
values are integers, "p/q" rational strings, or decimal strings.  Unknown
keys are rejected; missing keys default to 0.  Rationals serialize back as
"p/q" strings so pipelines stay lossless.
"""
from __future__ import annotations

from collections.abc import Iterable

from .core import COEFF_FIELDS, DarbouxCoefficients
from .errors import ParseError
from .recognizer import Verdict
from .scalar import EXACT, EXACT_ZERO, format_scalar, parse_scalar


_FIELD_SET = frozenset(COEFF_FIELDS)
# the default of a key's lookup: no JSON value is this object
_MISSING = object()


def parse_coefficients(obj, mode: str = EXACT) -> DarbouxCoefficients:
    """Parse a coefficient mapping (or a {"coefficients": ...} wrapper, as
    emitted by the generator, nested to any depth)."""
    while isinstance(obj, dict) and "coefficients" in obj:
        obj = obj["coefficients"]
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    if not _FIELD_SET.issuperset(obj):
        unknown = sorted(set(obj) - _FIELD_SET)
        raise ParseError(f"unknown coefficient key(s): {', '.join(unknown)}")
    values = []
    zero = EXACT_ZERO if mode == EXACT else 0.0  # a missing key: parse_scalar(0, mode)
    get = obj.get
    for key in COEFF_FIELDS:
        value = get(key, _MISSING)
        try:
            values.append(zero if value is _MISSING else parse_scalar(value, mode))
        except ParseError as exc:
            raise ParseError(f"key {key!r}: {exc}") from exc
    return DarbouxCoefficients._make(values)


def coefficients_to_json(c: DarbouxCoefficients) -> dict:
    return {k: format_scalar(v) for k, v in c._asdict().items() if v != 0}


def error_text(exc: Exception) -> str:
    """The "Type: message" text of an error field, top-level or nested."""
    return f"{type(exc).__name__}: {exc}"


def verdict_to_json(v: Verdict) -> dict:
    out = {"kind": v.kind, "case": v.case_label or "none"}
    if v.witness is not None:
        out["witness"] = {"name": v.witness[0], "value": format_scalar(v.witness[1])}
    out["residuals"] = {k: format_scalar(val) for k, val in v.residuals.items()}
    if v.notes:
        out["notes"] = list(v.notes)
    return out


CSV_HEADER = list(COEFF_FIELDS)


def read_csv_coefficients(text: str, mode: str = EXACT) -> Iterable[DarbouxCoefficients]:
    """14-column CSV with header a0,b1,...,f0 (spreadsheet interchange).
    A line the csv module refuses (a field over its size limit) is a
    ParseError."""
    import csv
    import io
    reader = csv.reader(io.StringIO(text))
    try:
        yield from _csv_rows(reader, mode)
    except csv.Error as exc:
        raise ParseError(f"CSV line {reader.line_num}: {exc}") from None


def _csv_rows(reader, mode: str) -> Iterable[DarbouxCoefficients]:
    try:
        header = next(reader)
    except StopIteration:
        return
    header = [h.strip() for h in header]
    if header != CSV_HEADER:
        raise ParseError(
            f"CSV header must be {','.join(CSV_HEADER)}, got {','.join(header)}")
    for row in reader:
        lineno = reader.line_num  # the row's last line; a quoted cell may span lines
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 14:
            raise ParseError(f"CSV line {lineno}: expected 14 columns, got {len(row)}")
        values = []
        for key, cell in zip(CSV_HEADER, row):
            cell = cell.strip()
            try:
                values.append(parse_scalar(cell if cell else 0, mode))
            except ParseError as exc:
                raise ParseError(f"CSV line {lineno}, column {key}: {exc}") from exc
        yield DarbouxCoefficients._make(values)
