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

import re
import sys
from dataclasses import dataclass
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
    "check_constraint_against_value",
    "decimal_repr",
]

# Comparators accepted in constraints, in source form.
COMPARATORS = ("<", "<=", ">", ">=", "==")

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


@dataclass(frozen=True)
class TypedValue:
    """A scalar with a value-type tag and, for numerics, an optional unit.

    Exactly one payload style is legal per tag:

    * ``numeric``    -- ``value`` is a Fraction, ``unit`` optional
    * ``boolean``    -- ``value`` is a bool, no unit
    * ``enumerated`` -- ``value`` is a lowercase token, no unit
    * ``text``       -- ``value`` is any string, no unit
    """

    tag: str
    value: Fraction | bool | str
    unit: str | None = None

    def __post_init__(self):
        if self.tag not in VALUE_TAGS:
            raise ValueError(f"unknown value tag: {self.tag!r}")
        if self.tag == "numeric":
            if not isinstance(self.value, Fraction) or isinstance(self.value, bool):
                raise ValueError("numeric values must be Fraction")
            # Unit names are not checked here: source text may carry any
            # identifier as a unit, and the validator reports bad ones.
        else:
            if self.unit is not None:
                raise ValueError(f"{self.tag} values cannot carry a unit")
            if self.tag == "boolean" and not isinstance(self.value, bool):
                raise ValueError("boolean values must be bool")
            if self.tag in ("enumerated", "text") and not isinstance(self.value, str):
                raise ValueError(f"{self.tag} values must be str")

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
        assert isinstance(self.value, Fraction)
        return self.value


def _trusted_numeric(magnitude: Fraction, unit: str | None) -> TypedValue:
    """``TypedValue("numeric", magnitude, unit)`` built without
    ``__post_init__``, for a Fraction a grammar has already read.

    It is equal, and hash-equal, to the value the checked constructor
    builds, and as compact: the fields are set one by one, so no instance
    ``__dict__`` is made.
    """
    value = object.__new__(TypedValue)
    object.__setattr__(value, "tag", "numeric")
    object.__setattr__(value, "value", magnitude)
    object.__setattr__(value, "unit", unit)
    return value


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


def unit_factor(from_unit: str, to_unit: str) -> Fraction:
    """The exact factor that takes a magnitude in ``from_unit`` to ``to_unit``."""
    fam_a = unit_family(from_unit)
    fam_b = unit_family(to_unit)
    if fam_a != fam_b:
        raise IncompatibleUnitsError(
            f"cannot convert {from_unit!r} ({fam_a}) to {to_unit!r} ({fam_b})"
        )
    table = UNIT_FAMILIES[fam_a]
    return table[from_unit] / table[to_unit]


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


def _compare(comparator: str, left: Fraction, right: Fraction) -> bool:
    if comparator == "<":
        return left < right
    if comparator == "<=":
        return left <= right
    if comparator == ">":
        return left > right
    if comparator == ">=":
        return left >= right
    if comparator == "==":
        return left == right
    raise ValueError(f"unknown comparator: {comparator!r}")


def to_canonical(value: TypedValue, entry, what: str) -> Fraction:
    """Numeric ``value`` in the canonical unit of vocabulary ``entry``.

    A missing unit means "already canonical".  A unit of another family
    raises :class:`UnitMismatchError`, naming ``what`` and the term.
    """
    if value.unit is None or value.unit == entry.canonical_unit:
        return value.magnitude
    try:
        return convert(value.magnitude, value.unit, entry.canonical_unit)
    except IncompatibleUnitsError as exc:
        raise UnitMismatchError(f"{what} for {entry.term!r}: {exc}") from None


def check_constraint_against_value(constraint, value: TypedValue, entry) -> str:
    """Evaluate one constraint against one observed value.

    ``constraint`` is a :class:`iotsla.model.MetricConstraint`; ``entry`` is
    the :class:`iotsla.vocabulary.VocabularyEntry` the metric resolves to.
    Returns ``SATISFIED`` or ``VIOLATED``.  Never returns ``UNSPECIFIED``:
    absence of data is the caller's concern.
    """
    if not entry.matches_term(constraint.metric):
        raise ValueError(
            f"constraint metric {constraint.metric!r} does not name entry {entry.term!r}"
        )
    bound = constraint.value

    if entry.value_type == "numeric":
        if bound.tag != "numeric":
            raise TypeMismatchError(
                f"{entry.term}: numeric metric constrained with {bound.tag} value"
            )
        if value.tag != "numeric":
            raise TypeMismatchError(
                f"{entry.term}: numeric metric observed as {value.tag} value"
            )
        want = to_canonical(bound, entry, "constraint")
        got = to_canonical(value, entry, "observed value")
        ok = _compare(constraint.comparator, got, want)
        return SATISFIED if ok else VIOLATED

    # Non-numeric metrics only support equality.
    if constraint.comparator != "==":
        raise TypeMismatchError(
            f"{entry.term}: {entry.value_type} metric only supports '==', "
            f"got {constraint.comparator!r}"
        )
    tags = COMPARABLE_TAGS[entry.value_type]
    if bound.tag not in tags or value.tag not in tags:
        kind = "boolean" if entry.value_type == "boolean" else "textual"
        raise TypeMismatchError(f"{entry.term}: {kind} metric needs {kind} values")
    return SATISFIED if value.value == bound.value else VIOLATED


# The numeral of ``.sla`` text and telemetry values: ASCII digits with an
# optional fraction, no sign, no exponent.  JSON numbers keep JSON's grammar.
DECIMAL_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?")


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
