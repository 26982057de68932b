"""Typed values, measurement units, and constraint checking.

Magnitudes are :class:`fractions.Fraction` throughout, so every comparison
and unit conversion is exact: ``99.95 percent`` means 1999/20, not the
nearest binary float.

Units are grouped into families.  Conversion is defined only inside a
family; asking for anything else raises.  The abstract ``time_unit`` is
deliberately its own family: documents written against abstract time do not
silently mix with wall-clock milliseconds.
"""

from __future__ import annotations

import operator
import re
import sys
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Union

from .errors import (
    DomainError,
    IncompatibleUnitsError,
    TypeMismatchError,
    UnitMismatchError,
)

__all__ = [
    "COMPARATORS",
    "UNIT_FAMILIES",
    "KNOWN_UNITS",
    "VALUE_TAGS",
    "SATISFIED",
    "VIOLATED",
    "UNSPECIFIED",
    "TypedValue",
    "unit_family",
    "units_convertible",
    "convert",
    "normalize_unit",
    "type_mismatch",
    "canonical_factor",
    "canonical_bound",
    "check_constraint_against_value",
    "decimal_repr",
]

# Comparators accepted in constraints, in source form, each with the
# function that applies it: the one statement of what each one means.
OPERATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
             "==": operator.eq}
COMPARATORS = tuple(OPERATORS)

# Value tags a TypedValue may carry.
VALUE_TAGS = ("numeric", "boolean", "enumerated", "text")

# Sample tags each value type compares against: textual metrics take
# both enumerated and text values.
COMPARABLE_TAGS = {"numeric": ("numeric",), "boolean": ("boolean",),
                   "enumerated": ("enumerated", "text"), "text": ("enumerated", "text")}

# Constraint verdicts.  UNSPECIFIED only appears in matching, where an offer
# may simply not mention a metric.
SATISFIED = "satisfied"
VIOLATED = "violated"
UNSPECIFIED = "unspecified"

# Each family maps unit name -> scale factor relative to the family's base
# unit.  A value of ``m`` in unit ``u`` equals ``m * factor[u]`` base units.
#
# "ratio" lives in the percent family with factor 100: a ratio of 0.5 is
# the same quantity as 50 percent.
UNIT_FAMILIES: dict[str, dict[str, Fraction]] = {
    "abstract_time": {"time_unit": Fraction(1)},
    "si_time": {"ms": Fraction(1), "s": Fraction(1000)},
    "bytes": {
        "bytes": Fraction(1),
        "kb": Fraction(10**3),
        "mb": Fraction(10**6),
        "gb": Fraction(10**9),
        "tb": Fraction(10**12),
        "kib": Fraction(2**10),
        "mib": Fraction(2**20),
        "gib": Fraction(2**30),
    },
    "percent": {"percent": Fraction(1), "ratio": Fraction(100)},
    "frequency": {
        "hz": Fraction(1),
        "khz": Fraction(10**3),
        "mhz": Fraction(10**6),
        "ghz": Fraction(10**9),
    },
    "data_rate": {
        "bytes_per_s": Fraction(1),
        "kb_per_s": Fraction(10**3),
        "mb_per_s": Fraction(10**6),
        "gb_per_s": Fraction(10**9),
    },
    "count": {"count": Fraction(1)},
    "dimensionless": {"dimensionless": Fraction(1)},
}

_UNIT_TO_FAMILY: dict[str, str] = {
    unit: family for family, units in UNIT_FAMILIES.items() for unit in units
}

KNOWN_UNITS = frozenset(_UNIT_TO_FAMILY)

Magnitude = Union[Fraction, int]


class TypedValue(namedtuple("TypedValue", "tag value unit")):
    """A scalar with a value-type tag and, for numerics, an optional unit.

    Exactly one payload style is legal per tag:

    * ``numeric``    -- ``value`` is a Fraction, ``unit`` optional
    * ``boolean``    -- ``value`` is a bool, no unit
    * ``enumerated`` -- ``value`` is a lowercase token, no unit
    * ``text``       -- ``value`` is any string, no unit

    A value is the tuple ``(tag, value, unit)``: it equals, and hashes as,
    that plain tuple.  Every way to build one, ``_replace``, ``_make``,
    pickle and copy included, goes through the checks.
    """

    __slots__ = ()

    def __new__(cls, tag: str, value: Fraction | bool | str, unit: str | None = None):
        if tag not in VALUE_TAGS:
            raise ValueError(f"unknown value tag: {tag!r}")
        if tag == "numeric":
            if not isinstance(value, Fraction) or isinstance(value, bool):
                raise ValueError("numeric values must be Fraction")
            # Unit names are not checked here: source text may carry any
            # identifier as a unit, and the validator reports bad ones.
        else:
            if unit is not None:
                raise ValueError(f"{tag} values cannot carry a unit")
            if tag == "boolean" and not isinstance(value, bool):
                raise ValueError("boolean values must be bool")
            if tag in ("enumerated", "text") and not isinstance(value, str):
                raise ValueError(f"{tag} values must be str")
        return tuple.__new__(cls, (tag, value, unit))

    @classmethod
    def _make(cls, fields: Iterable) -> "TypedValue":
        return cls(*fields)

    @classmethod
    def numeric(cls, value: Magnitude | str, unit: str | None = None) -> "TypedValue":
        return cls("numeric", Fraction(value), unit)

    @classmethod
    def boolean(cls, value: bool) -> "TypedValue":
        return cls("boolean", bool(value))

    @classmethod
    def text(cls, value: str) -> "TypedValue":
        return cls("text", value)

    @classmethod
    def enumerated(cls, value: str) -> "TypedValue":
        return cls("enumerated", value)

    @property
    def magnitude(self) -> Fraction:
        if self.tag != "numeric":
            raise TypeMismatchError(f"{self.tag} value has no magnitude")
        return self.value


def _trusted_numeric(magnitude: Fraction, unit: str | None) -> TypedValue:
    return TypedValue("numeric", magnitude, unit)


def unit_family(unit: str) -> str:
    """Family name for ``unit``; raises IncompatibleUnitsError if unknown."""
    try:
        return _UNIT_TO_FAMILY[unit]
    except KeyError:
        raise IncompatibleUnitsError(f"unknown unit: {unit!r}") from None


def units_convertible(a: str, b: str) -> bool:
    """True when the two unit names belong to the same family."""
    return (
        a in _UNIT_TO_FAMILY
        and b in _UNIT_TO_FAMILY
        and _UNIT_TO_FAMILY[a] == _UNIT_TO_FAMILY[b]
    )


_UNIT_FACTORS: dict[tuple[str, str], Fraction] = {}


def unit_factor(from_unit: str, to_unit: str) -> Fraction:
    """The exact factor that takes a magnitude in ``from_unit`` to ``to_unit``.

    Cached when first asked for.  Only same-family pairs of known units are
    cached, so :data:`UNIT_FAMILIES` bounds the cache; others raise each time.
    """
    factor = _UNIT_FACTORS.get((from_unit, to_unit))
    if factor is None:
        fam_a = unit_family(from_unit)
        fam_b = unit_family(to_unit)
        if fam_a != fam_b:
            raise IncompatibleUnitsError(
                f"cannot convert {from_unit!r} ({fam_a}) to {to_unit!r} ({fam_b})"
            )
        table = UNIT_FAMILIES[fam_a]
        factor = _UNIT_FACTORS[from_unit, to_unit] = table[from_unit] / table[to_unit]
    return factor


def convert(magnitude: Magnitude, from_unit: str, to_unit: str) -> Fraction:
    """Convert a bare magnitude between units of one family, exactly."""
    return Fraction(magnitude) * unit_factor(from_unit, to_unit)


def normalize_unit(value: TypedValue, target_unit: str) -> TypedValue:
    """Re-express a numeric value in ``target_unit``.

    The value must already carry a unit in the same family as the target.
    """
    if value.tag != "numeric":
        raise TypeMismatchError(f"cannot normalize a {value.tag} value to a unit")
    if value.unit is None:
        raise IncompatibleUnitsError("value carries no unit to normalize from")
    return TypedValue.numeric(convert(value.magnitude, value.unit, target_unit), target_unit)


def _compare(comparator: str, left: Magnitude, right: Magnitude) -> bool:
    try:
        compare = OPERATORS[comparator]
    except (KeyError, TypeError):  # TypeError: an unhashable comparator
        raise ValueError(f"unknown comparator: {comparator!r}") from None
    return compare(left, right)


def type_mismatch(entry, metric: str, comparator: str, value: TypedValue) -> str | None:
    """Why ``metric <comparator> value`` does not fit ``entry``'s value type,
    or None when it does.

    The one statement of the rule: numeric terms take numbers under any
    comparator; boolean and textual terms take only ``==`` and a value of
    their own kind.  The validator reports the reason as V008.
    """
    if entry.value_type != "numeric" and comparator != "==":
        return (
            f"metric '{metric}' is {entry.value_type}; "
            f"only '==' applies, not {comparator!r}"
        )
    if value.tag not in COMPARABLE_TAGS[entry.value_type]:
        return f"metric '{metric}' is {entry.value_type} but the value is {value.tag}"
    return None


_ONE = Fraction(1)  # the factor of a value in no unit or the canonical one


def canonical_factor(entry, metric: str, comparator: str, value: TypedValue,
                     what: str) -> Fraction | None:
    """The factor that takes ``value``'s magnitude into ``entry``'s canonical
    unit, where no unit means canonical; None for a term that is not numeric.

    The one fit rule of the validator, the checker, the monitor, the
    matcher and ``load_offer``: a value that does not fit the term's value
    type raises :class:`TypeMismatchError` with :func:`type_mismatch`'s
    reason (V008), and a number in another unit family or an unknown unit
    raises :class:`UnitMismatchError` naming ``what`` and the term (V007).
    """
    if (reason := type_mismatch(entry, metric, comparator, value)) is not None:
        raise TypeMismatchError(reason)
    if entry.value_type != "numeric":
        return None
    if value.unit is None or value.unit == entry.canonical_unit:
        return _ONE
    try:
        return unit_factor(value.unit, entry.canonical_unit)
    except IncompatibleUnitsError as exc:
        raise UnitMismatchError(f"{what} for {entry.term!r}: {exc}") from None


def _scaled(magnitude: Fraction, factor: Fraction) -> Fraction:
    """``magnitude`` times a :func:`canonical_factor`, skipping a factor of 1."""
    return magnitude if factor is _ONE else magnitude * factor


def canonical_bound(constraint, entry) -> Fraction | None:
    """A numeric term's bound in ``entry``'s canonical unit, None for other
    terms: :func:`canonical_factor` applied to the constraint."""
    factor = canonical_factor(entry, constraint.metric, constraint.comparator,
                              constraint.value, "constraint")
    return None if factor is None else _scaled(constraint.value.value, factor)


def check_constraint_against_value(constraint, value: TypedValue, entry) -> str:
    """Evaluate one constraint against one observed value.

    ``constraint`` is a :class:`iotsla.model.MetricConstraint`; ``entry`` is
    the :class:`iotsla.vocabulary.VocabularyEntry` the metric resolves to.
    Returns ``SATISFIED`` or ``VIOLATED``.  Never returns ``UNSPECIFIED``:
    absence of data is the caller's concern.  The whole bound is checked
    first, then the value, each by :func:`canonical_factor`.
    """
    if not entry.matches_term(constraint.metric):
        raise ValueError(
            f"constraint metric {constraint.metric!r} does not name entry {entry.term!r}"
        )
    want = canonical_bound(constraint, entry)
    factor = canonical_factor(entry, constraint.metric, constraint.comparator, value,
                              "observed value")
    if factor is None:
        return SATISFIED if value.value == constraint.value.value else VIOLATED
    got = _scaled(value.value, factor)
    return SATISFIED if _compare(constraint.comparator, got, want) else VIOLATED


# The token patterns of ``.sla`` text, each spelt once: the numeral, also of
# telemetry values (ASCII digits with an optional fraction, no sign, no
# exponent; JSON numbers keep JSON's grammar), the date, which interchange
# reads too, and the identifier of ids, terms, units and keywords.
DECIMAL_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?")
DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")

# The words of the agreement language, which no name may be.
KEYWORDS = frozenset(
    {"sla", "party", "slo", "on", "app", "activity", "requires",
     "service", "resource", "true", "false"}
)

def _is_name(text: str) -> bool:
    """True for a non-keyword identifier, the only name agreement text can
    write for an id, a term or a unit."""
    return IDENT_RE.fullmatch(text) is not None and text not in KEYWORDS


# The lowest int string limit ``sys.set_int_max_str_digits`` takes, bar 0
# for "off": a numeral with no more digits never needs the limit read.
_LOWEST_INT_LIMIT = 640
_get_int_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def exact_number(text: str) -> Fraction:
    """Exact value of a numeral such as ``12.5`` or JSON's ``-1.25e3``.

    The one conversion from numeral text to a Fraction: the agreement
    parser, telemetry and the JSON reader all call it.  The numeral is
    read as the integer of its digits, with its sign, times the power of
    ten its point and exponent give: ``-1.25e3`` is -125 × 10**1, and
    ``12.50`` is 1250/10**2.  A plain numeral, digits with an optional
    point (every ``.sla`` and telemetry numeral), takes a first branch
    that is just that integer over its power of ten.

    A number whose digits are all zero is 0, whatever its length or
    exponent.  Any other number raises ValueError, before any large
    arithmetic, when written out with no exponent it has more digits than
    Python's int string limit (4300 by default, and where the limit is off
    or absent).  The limit is read, live, by every call that could pass it.
    Every reader shares the bound, so what :func:`decimal_repr` writes of
    a number read here reads back.
    """
    whole, _, fraction = text.partition(".")
    digits = whole + fraction
    if digits.isdigit():  # plain: no sign, no exponent
        if len(digits) >= _LOWEST_INT_LIMIT:  # shorter ones pass no limit Python takes
            limit = _get_int_limit() or 4300
            if max(len(whole), 1) + len(fraction) > limit:
                if not digits.strip("0"):
                    return Fraction(0)
                raise ValueError(f"number too long: more than {limit} digits")
        return Fraction(int(digits), 10 ** len(fraction))
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, fraction = mantissa.lstrip("-").partition(".")
    digits = whole + fraction
    if not digits.strip("0"):
        return Fraction(0)
    shift = int(exponent or 0)
    point = len(whole) + shift
    limit = _get_int_limit() or 4300
    # the bound is at least len(digits), so int() below stays in the limit
    if max(point, 1) + max(len(digits) - point, 0) > limit:
        raise ValueError(f"number too long: more than {limit} digits")
    numerator = -int(digits) if mantissa.startswith("-") else int(digits)
    shift -= len(fraction)
    if shift < 0:
        return Fraction(numerator, 10 ** -shift)
    return Fraction(numerator * 10 ** shift)


# Ints below this print with ``str`` under any int string limit Python takes.
_SHORT_INT = 10**_LOWEST_INT_LIMIT


def _int_str(n: int) -> str:
    return str(n) if -_SHORT_INT < n < _SHORT_INT else str(Decimal(n))


def decimal_str_or_fraction(value: Magnitude) -> str:
    """Exact rendering of a Fraction: "99.95" for 1999/20, and "n/d" such
    as "4/3" when there is no finite decimal.  Digits too many for ``str``
    of an int under the lowest limit Python takes go through ``Decimal``,
    which has no length limit.
    """
    num, den = value.as_integer_ratio()
    if den == 1:
        return _int_str(num)
    twos = (den & -den).bit_length() - 1  # its lowest set bit: the factors of 2
    rest = den >> twos
    fives = 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{_int_str(num)}/{_int_str(den)}"
    # the smallest such ``places`` leaves no trailing zero
    places = max(twos, fives)
    digits = _int_str(abs(num) * 10**places // den).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def decimal_repr(value: Magnitude) -> str:
    """Exact decimal rendering of a Fraction, e.g. 1999/20 -> "99.95".

    Raises :class:`DomainError` when the fraction has no finite decimal
    expansion (denominator with prime factors other than 2 and 5).
    """
    text = decimal_str_or_fraction(value)
    if "/" in text:
        raise DomainError(f"{text} has no finite decimal representation")
    return text


def mean(values: Iterable[Magnitude]) -> Fraction:
    """Exact arithmetic mean; raises DomainError on empty input."""
    items = [Fraction(v) for v in values]
    if not items:
        raise DomainError("mean of no values")
    return sum(items, Fraction(0)) / len(items)
