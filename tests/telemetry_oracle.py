"""The telemetry reader as it was before the one-pattern fast path: the oracle.

``parse_telemetry``, ``_parse_value_field`` and ``exact_number`` below are
the code that ``iotsla.monitor`` and ``iotsla.constraints`` replaced, kept
unchanged but for absolute imports; ``_trusted_record`` builds each record
as ``TelemetryRecord(timestamp, target_id, metric, value)``.
Every line goes through the same split, timestamp check and value
partition, and every numeral through the one general conversion (no plain
branch).  ``test_telemetry_oracle.py`` checks that the reader gives the
same records and skip count, or the same ``TelemetryFormatError``, on
generated line soups.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable

from iotsla.constraints import DECIMAL_RE, TypedValue, _trusted_numeric
from iotsla.errors import TelemetryFormatError
from iotsla.monitor import TelemetryRecord


def exact_number(text: str) -> Fraction:
    """Exact value of a numeral such as ``12.5`` or JSON's ``-1.25e3``.

    The one conversion from numeral text to a Fraction: the agreement
    parser, telemetry and the JSON reader all call it.  The numeral is
    read as the integer of its digits, with its sign, times the power of
    ten its point and exponent give: ``-1.25e3`` is -125 × 10**1, and
    ``12.50`` is 1250/10**2.

    A number whose digits are all zero is 0, whatever its length or
    exponent.  Any other number raises ValueError, before any large
    arithmetic, when written out with no exponent it has more digits than
    Python's int string limit (4300 by default, and where the limit is off
    or absent).  The limit is read on every call.  Every reader shares the
    bound, so what :func:`decimal_repr` writes of a number read here reads
    back.
    """
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, fraction = mantissa.lstrip("-").partition(".")
    digits = whole + fraction
    if not digits.strip("0"):
        return Fraction(0)
    shift = int(exponent or 0)
    point = len(whole) + shift
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    # the bound is at least len(digits), so int() below stays in the limit
    if max(point, 1) + max(len(digits) - point, 0) > limit:
        raise ValueError(f"number too long: more than {limit} digits")
    numerator = -int(digits) if mantissa.startswith("-") else int(digits)
    shift -= len(fraction)
    if shift < 0:
        return Fraction(numerator, 10 ** -shift)
    return Fraction(numerator * 10 ** shift)


_BOOLEANS = {"true": TypedValue.boolean(True), "false": TypedValue.boolean(False)}


def _parse_value_field(text: str) -> TypedValue | None:
    """Interpret the value column; None when uninterpretable."""
    boolean = _BOOLEANS.get(text)
    if boolean is not None:
        return boolean
    numeral, space, unit = text.partition(" ")
    if DECIMAL_RE.fullmatch(numeral):
        if space and (not unit or " " in unit):
            return None
        try:
            magnitude = exact_number(numeral)
        except ValueError:  # more digits than exact_number takes
            return None
        return _trusted_numeric(magnitude, unit or None)
    if not space and text:
        return TypedValue.text(text)
    return None


def parse_telemetry(source: str | Iterable[str]) -> tuple[list[TelemetryRecord], int]:
    """Read line-delimited telemetry.

    Line format: ``timestamp<TAB>target_id<TAB>metric<TAB>value[ unit]``.
    Blank lines are ignored.  Structural problems (wrong field count, bad
    timestamp) raise :class:`TelemetryFormatError`; an uninterpretable
    value column only skips that record.  Returns (records, skipped_count).
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source
    records: list[TelemetryRecord] = []
    skipped = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise TelemetryFormatError(
                line_no, f"expected 4 tab-separated fields, found {len(fields)}"
            )
        ts_text, target_id, metric, value_text = fields
        try:
            if not (ts_text.isascii() and ts_text.lstrip("-").isdigit()):
                raise ValueError
            timestamp = int(ts_text)
        except ValueError:
            raise TelemetryFormatError(line_no, f"bad timestamp {ts_text!r}") from None
        if timestamp < 0:
            raise TelemetryFormatError(line_no, "timestamp must be non-negative")
        if not target_id or not metric:
            raise TelemetryFormatError(line_no, "empty target or metric field")
        value = _parse_value_field(value_text)
        if value is None:
            skipped += 1
            continue
        records.append(_trusted_record(timestamp, target_id, metric, value))
    return records, skipped


def _trusted_record(timestamp: int, target_id: str, metric: str,
                    value: TypedValue) -> TelemetryRecord:
    return TelemetryRecord(timestamp, target_id, metric, value)
