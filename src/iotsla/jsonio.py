"""The package's JSON toolkit: one writer, one reader and the checks its
readers share.

Interchange documents, offers, ``--weights`` files, catalog overlays, the
catalog export and every ``--json`` report go through here, so a number is
written and read one way everywhere.  Writing is done by a small emitter
rather than ``json.dumps`` to keep control of number formatting: Fractions
print their exact decimal digits.  Strings go through json's C-coded
escaper, which writes non-ASCII text as it is, so the output is UTF-8.

A reader that refuses its input raises :class:`SchemaViolationError` at a
JSON pointer (RFC 6901): each key from the input is escaped by
:func:`_pointer_key`, and the root is written ``/``.

This module sits beneath the catalog: it imports only the standard library,
:mod:`errors` and :mod:`constraints`.
"""

from __future__ import annotations

import json
from datetime import date
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Any

from .constraints import TypedValue, _is_name, decimal_str_or_fraction, exact_number
from .errors import SchemaViolationError

# -- writing -----------------------------------------------------------------


def _emit(value: Any, pad: str, out: list[str]) -> None:
    """Append the JSON text of ``value`` to ``out``, inner lines past ``pad``."""
    # strings, objects and arrays by exact type first: they skip the checks
    # below, Fraction's costly ABC check among them
    kind = type(value)
    if kind is str or isinstance(value, str):
        out.append(encode_basestring(value))
    elif kind is dict or isinstance(value, dict):
        inner, lead = pad + "  ", "{\n"
        for key, item in value.items():
            out.append(f"{lead}{inner}{encode_basestring(key)}: ")
            _emit(item, inner, out)
            lead = ",\n"
        out.append("{}" if lead == "{\n" else f"\n{pad}}}")  # "{}": no items
    elif kind is list or isinstance(value, list):
        inner, lead = pad + "  ", "[\n"
        for item in value:
            out.append(lead + inner)
            _emit(item, inner, out)
            lead = ",\n"
        out.append("[]" if lead == "[\n" else f"\n{pad}]")
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, Fraction)):
        text = decimal_str_or_fraction(value)
        out.append(encode_basestring(text) if "/" in text else text)  # "4/3": exact
    elif isinstance(value, date):
        out.append(encode_basestring(value.isoformat()))
    else:
        raise TypeError(f"cannot emit {type(value).__name__} as JSON")


def emit_json(value: Any) -> str:
    """Render a report structure as JSON with exact numbers.

    Accepts the usual JSON shapes plus Fraction and date.  Fractions print
    their exact decimal digits; ones with no finite decimal form become
    ``"n/d"`` strings rather than rounded floats.
    """
    out: list[str] = []
    _emit(value, "", out)
    return "".join(out)


def _value_fields(value: TypedValue) -> dict:
    if value.tag == "numeric":
        fields: dict[str, Any] = {"value": value.magnitude}
        if value.unit is not None:
            fields["unit"] = value.unit
        return fields
    # booleans stay booleans; text and enumerated both become JSON strings
    return {"value": value.value}


def _constraint_dict(constraint) -> dict:  # a model.MetricConstraint
    return {
        "metric": constraint.metric,
        "comparator": constraint.comparator,
        **_value_fields(constraint.value),
    }


# -- reading -----------------------------------------------------------------


def read_json(text: str | bytes) -> Any:
    """Decode ``str`` or UTF-8 ``bytes`` as JSON, numbers as exact Fractions.

    Total: bad UTF-8, bad JSON, nesting too deep for the decoder and numbers
    longer than :func:`~iotsla.constraints.exact_number` takes all raise
    :class:`SchemaViolationError` at ``/``.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text, parse_float=exact_number, parse_int=exact_number)
    except UnicodeDecodeError:
        raise SchemaViolationError("/", "input is not valid UTF-8") from None
    except (ValueError, RecursionError) as exc:
        raise SchemaViolationError("/", f"invalid JSON: {exc}") from None


def _pointer_key(key: str) -> str:
    """``key`` as one step of a JSON pointer: ``~`` as ``~0``, ``/`` as ``~1``."""
    return key.replace("~", "~0").replace("/", "~1")


def _want(data: dict, key: str, pointer: str) -> Any:
    if key not in data:
        raise SchemaViolationError(f"{pointer}/{key}", "missing required field")
    return data[key]


def _as_str(value: Any, pointer: str) -> str:
    """``value`` if it is a string UTF-8 can encode: JSON escapes can spell
    lone surrogates (``"\\ud800"``), which no UTF-8 output could carry.
    """
    if not isinstance(value, str):
        raise SchemaViolationError(pointer, "must be a string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaViolationError(pointer, "must not hold a lone surrogate") from None
    return value


def _want_str(data: dict, key: str, pointer: str) -> str:
    value = _want(data, key, pointer)
    if type(value) is str and value.isascii():  # it passes: build no pointer for it
        return value
    return _as_str(value, f"{pointer}/{key}")


_IDENT_RULE = "must be a lowercase identifier ([a-z][a-z0-9_]*) and not a keyword"


def _want_ident(data: dict, key: str, pointer: str) -> str:
    value = _want_str(data, key, pointer)
    if not _is_name(value):
        raise SchemaViolationError(f"{pointer}/{key}", _IDENT_RULE)
    return value


def _want_list(data: dict, key: str, pointer: str, default: list | None = None) -> list:
    value = _want(data, key, pointer) if default is None or key in data else default
    if not isinstance(value, list):
        raise SchemaViolationError(f"{pointer}/{key}", "must be an array")
    return value


def _want_object(value: Any, pointer: str, allowed: set[str] | None = None) -> dict:
    """``value`` if it is an object with no key outside ``allowed``, when
    that is given; a root ``pointer`` of "" reports at "/"."""
    if not isinstance(value, dict):
        raise SchemaViolationError(pointer or "/", "must be an object")
    if allowed is not None and not value.keys() <= allowed:
        key = next(key for key in value if key not in allowed)  # the first unknown
        raise SchemaViolationError(f"{pointer}/{_pointer_key(key)}", "unknown field")
    return value


def _objects(data: dict, key: str, pointer: str, allowed: set[str],
             default: list | None = None):
    """(pointer, object) for each item of the array under ``key``, each an
    object with no key outside ``allowed``."""
    for i, item in enumerate(_want_list(data, key, pointer, default)):
        at = f"{pointer}/{key}/{i}"
        yield at, _want_object(item, at, allowed)


def _read_typed_value(data: dict, pointer: str) -> TypedValue:
    raw = _want(data, "value", pointer)
    unit = data.get("unit")
    # the text form writes a unit as a bare word after its number
    if unit is not None and not _is_name(_as_str(unit, f"{pointer}/unit")):
        raise SchemaViolationError(f"{pointer}/unit", _IDENT_RULE)
    if isinstance(raw, bool):
        if unit is not None:
            raise SchemaViolationError(f"{pointer}/unit", "booleans carry no unit")
        return TypedValue.boolean(raw)
    if isinstance(raw, Fraction):  # read_json reads every number as one
        if raw.numerator < 0:  # the sign, without Fraction's ABC check on 0
            raise SchemaViolationError(f"{pointer}/value", "must be non-negative")
        return TypedValue("numeric", raw, unit)
    if isinstance(raw, str):
        if unit is not None:
            raise SchemaViolationError(f"{pointer}/unit", "text values carry no unit")
        return TypedValue.text(_as_str(raw, f"{pointer}/value"))
    raise SchemaViolationError(f"{pointer}/value", "must be a number, boolean, or string")


def _read_choice(data: dict, key: str, pointer: str, choices: tuple[str, ...]) -> str:
    value = _want_str(data, key, pointer)
    if value not in choices:
        raise SchemaViolationError(f"{pointer}/{key}", f"must be one of {', '.join(choices)}")
    return value
