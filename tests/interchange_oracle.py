"""The JSON writer ``iotsla.interchange`` used before its one-buffer emitter.

``_emit_str`` below is the code ``iotsla.interchange`` replaced with
``json.encoder.encode_basestring``, kept unchanged: it escapes ``"``,
``\\``, the five control characters JSON has short escapes for, and every
other code point below 0x20 as ``\\u00XX``, and passes everything else
through, lone surrogates included.  ``test_interchange.py`` checks that
``emit_json`` writes every code point as it does.

``_emit`` and ``decimal_str_or_fraction`` are the recursive emitter, which
joined each level into its own string, and the number writer, which copied
its argument into a Fraction and wrote every integer through ``Decimal``,
both kept unchanged.  ``test_writer_oracle.py`` checks that ``emit_json``,
``to_interchange`` and ``iotsla.constraints.decimal_str_or_fraction``
write what they write, byte for byte.
"""

from __future__ import annotations

from datetime import date
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Any, Union

Magnitude = Union[Fraction, int]

_STR_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
    "\b": "\\b", "\f": "\\f",
}


def _emit_str(value: str) -> str:
    out = ['"']
    for char in value:
        if char in _STR_ESCAPES:
            out.append(_STR_ESCAPES[char])
        elif ord(char) < 0x20:
            out.append(f"\\u{ord(char):04x}")
        else:
            out.append(char)
    out.append('"')
    return "".join(out)


def _emit(value: Any, indent: int) -> str:
    # strings, objects and arrays first: they skip Fraction's costly ABC check
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = "  " * indent
        inner = pad + "  "
        parts = [
            f"{inner}{encode_basestring(key)}: {_emit(item, indent + 1)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        pad = "  " * indent
        inner = pad + "  "
        parts = [f"{inner}{_emit(item, indent + 1)}" for item in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        text = decimal_str_or_fraction(value)
        return encode_basestring(text) if "/" in text else text  # "4/3": exact
    if isinstance(value, date):
        return encode_basestring(value.isoformat())
    raise TypeError(f"cannot emit {type(value).__name__} as JSON")


def decimal_str_or_fraction(value: Magnitude) -> str:
    """Exact rendering of a Fraction: "99.95" for 1999/20, and "n/d" such
    as "4/3" when there is no finite decimal.  Digits go through
    ``Decimal``, which, unlike ``str`` of an int, has no length limit.
    """
    num, den = Fraction(value).as_integer_ratio()
    if den == 1:
        return str(Decimal(num))
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{Decimal(num)}/{Decimal(den)}"
    # the smallest such ``places`` leaves no trailing zero
    places = max(twos, fives)
    digits = str(Decimal(abs(num) * 10**places // den)).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"
