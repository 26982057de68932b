"""Units, typed values, and constraint checking."""

import random
import string
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from iotsla import (
    IncompatibleUnitsError,
    KNOWN_UNITS,
    MetricConstraint,
    ParseError,
    SATISFIED,
    TypeMismatchError,
    TypedValue,
    UNIT_FAMILIES,
    UnitMismatchError,
    VIOLATED,
    check_constraint_against_value,
    convert,
    load_builtin_catalog,
    normalize_unit,
    parse,
    parse_telemetry,
    units_convertible,
)
from iotsla import constraints
from iotsla.constraints import (
    DECIMAL_RE,
    _trusted_numeric,
    decimal_repr,
    decimal_str_or_fraction,
    exact_number,
    mean,
    unit_factor,
    unit_family,
)
from iotsla.errors import DomainError

from support import fixture_text


CATALOG = load_builtin_catalog()


def test_families_partition_known_units():
    seen = {}
    for family, members in UNIT_FAMILIES.items():
        for unit in members:
            assert unit not in seen, f"{unit} in both {seen.get(unit)} and {family}"
            seen[unit] = family
    assert set(seen) == set(KNOWN_UNITS)


@pytest.mark.parametrize("magnitude,src,dst,expected", [
    (1, "s", "ms", Fraction(1000)),
    (1500, "ms", "s", Fraction(3, 2)),
    (1, "mb", "bytes", Fraction(10**6)),
    (1, "gib", "bytes", Fraction(2**30)),
    (1, "kib", "kb", Fraction(1024, 1000)),
    (1, "ratio", "percent", Fraction(100)),
    (50, "percent", "ratio", Fraction(1, 2)),
    (1, "ghz", "hz", Fraction(10**9)),
    (1, "gb_per_s", "kb_per_s", Fraction(10**6)),
    (7, "time_unit", "time_unit", Fraction(7)),
])
def test_convert_worked_examples(magnitude, src, dst, expected):
    assert convert(magnitude, src, dst) == expected


def test_abstract_time_isolated_from_si_time():
    # the generic time_unit deliberately has no exchange rate with ms/s
    assert not units_convertible("time_unit", "ms")
    assert not units_convertible("s", "time_unit")
    with pytest.raises(IncompatibleUnitsError):
        convert(1, "time_unit", "s")


def test_unknown_unit_rejected():
    with pytest.raises(IncompatibleUnitsError):
        unit_family("furlongs")
    assert not units_convertible("furlongs", "ms")


def test_the_unit_factor_cache_is_exact_and_bounded(monkeypatch):
    monkeypatch.setattr(constraints, "_UNIT_FACTORS", {})
    pairs = [(a, b, table) for table in UNIT_FAMILIES.values() for a in table for b in table]
    for a, b, table in pairs * 2:  # the first time fills the cache, the second reads it
        assert unit_factor(a, b) == table[a] / table[b]
    rng = random.Random(17)
    units = sorted(KNOWN_UNITS)
    for _ in range(10_000):
        a, b = (rng.choice(units) if rng.random() < 0.5 else
                "".join(rng.choices(string.ascii_lowercase + "_ ", k=rng.randint(0, 4)))
                for _ in range(2))
        if units_convertible(a, b):
            table = UNIT_FAMILIES[unit_family(a)]
            assert unit_factor(a, b) == table[a] / table[b]
            continue
        for _ in range(2):  # unknown and cross-family pairs raise every time
            with pytest.raises(IncompatibleUnitsError):
                unit_factor(a, b)
    assert len(constraints._UNIT_FACTORS) == len(pairs)


@given(
    st.fractions(min_value=0, max_value=10**9),
    st.sampled_from(sorted(KNOWN_UNITS)),
)
def test_convert_round_trip_exact(magnitude, unit):
    family = unit_family(unit)
    for other in UNIT_FAMILIES[family]:
        assert convert(convert(magnitude, unit, other), other, unit) == magnitude


def test_normalize_unit():
    value = TypedValue.numeric(Fraction(2), "s")
    out = normalize_unit(value, "ms")
    assert out == TypedValue.numeric(Fraction(2000), "ms")


def test_typed_value_constructors():
    assert TypedValue.numeric(5, "ms").value == Fraction(5)
    assert TypedValue.numeric("2.5", None).value == Fraction(5, 2)
    assert TypedValue.boolean(True).tag == "boolean"
    assert TypedValue.text("wifi").tag == "text"


def _entry(term, concept):
    entry = CATALOG.lookup(term, concept)
    assert entry is not None
    return entry


def test_check_numeric_with_unit_conversion():
    entry = _entry("throughput", "ingestion")  # canonical bytes_per_s
    c = MetricConstraint("throughput", ">=", TypedValue.numeric(1, "mb_per_s"))
    ok = TypedValue.numeric(Fraction(2 * 10**6), "bytes_per_s")
    bad = TypedValue.numeric(Fraction(999), "kb_per_s")
    assert check_constraint_against_value(c, ok, entry) == SATISFIED
    assert check_constraint_against_value(c, bad, entry) == VIOLATED


def test_check_missing_unit_means_canonical():
    entry = _entry("latency", "ingestion")
    c = MetricConstraint("latency", "<=", TypedValue.numeric(5, None))
    assert check_constraint_against_value(
        c, TypedValue.numeric(5, None), entry) == SATISFIED
    assert check_constraint_against_value(
        c, TypedValue.numeric(Fraction(51, 10), None), entry) == VIOLATED


def test_check_boolean_equality_only():
    entry = _entry("data_encryption_support", "ingestion")
    c = MetricConstraint("data_encryption_support", "==", TypedValue.boolean(True))
    assert check_constraint_against_value(c, TypedValue.boolean(True), entry) == SATISFIED
    assert check_constraint_against_value(c, TypedValue.boolean(False), entry) == VIOLATED
    with pytest.raises(TypeMismatchError):
        check_constraint_against_value(c, TypedValue.numeric(1, None), entry)


def test_check_rejects_foreign_unit_family():
    entry = _entry("latency", "ingestion")
    c = MetricConstraint("latency", "<=", TypedValue.numeric(5, None))
    with pytest.raises(Exception):
        check_constraint_against_value(c, TypedValue.numeric(5, "mb"), entry)


def test_check_refuses_the_whole_bound_before_the_value():
    # the bound's unit is foreign to latency and the value is not a number:
    # the bound is checked first, so its unit error is the one raised
    entry = _entry("latency", "ingestion")
    c = MetricConstraint("latency", "<=", TypedValue.numeric(5, "gb"))
    with pytest.raises(UnitMismatchError, match="constraint for 'latency'"):
        check_constraint_against_value(c, TypedValue.text("fast"), entry)


def test_decimal_repr_exact():
    assert decimal_repr(Fraction(1, 2)) == "0.5"
    assert decimal_repr(Fraction(9995, 100)) == "99.95"
    assert decimal_repr(Fraction(7)) == "7"
    with pytest.raises(DomainError):
        decimal_repr(Fraction(1, 3))


def test_the_writer_has_no_length_limit():
    # unit conversion and means can pass Python's int string limit; the
    # writer still writes every digit
    big = 10**5000 - 1
    assert decimal_repr(Fraction(big, 10**4)) == "9" * 4996 + ".9999"
    assert decimal_str_or_fraction(Fraction(-big)) == "-" + "9" * 5000
    assert decimal_str_or_fraction(Fraction(1, 3 * 10**4400)) == "1/3" + "0" * 4400


@given(st.fractions())
def test_the_writer_is_exact(value):
    # a decimal exactly when the denominator has no prime factor but 2 and 5
    rest = value.denominator
    for prime in (2, 5):
        while rest % prime == 0:
            rest //= prime
    text = decimal_str_or_fraction(value)
    assert ("/" in text) == (rest != 1)
    assert Fraction(text) == value


def test_mean_exact():
    assert mean([Fraction(1), Fraction(2)]) == Fraction(3, 2)
    assert mean([Fraction(1, 3)] * 3) == Fraction(1, 3)


@given(st.fractions(min_value=0, max_value=10**6),
       st.fractions(min_value=0, max_value=10**6))
def test_comparator_trichotomy(a, b):
    entry = _entry("latency", "ingestion")
    lt = MetricConstraint("latency", "<", TypedValue.numeric(b, None))
    eq = MetricConstraint("latency", "==", TypedValue.numeric(b, None))
    gt = MetricConstraint("latency", ">", TypedValue.numeric(b, None))
    value = TypedValue.numeric(a, None)
    verdicts = [check_constraint_against_value(c, value, entry) for c in (lt, eq, gt)]
    assert verdicts.count(SATISFIED) == 1


# Numerals of the one grammar, with leading and trailing zeros, and all-zero
# numerals of any length; JSON adds a sign and an exponent.
_RUN = st.text("0123456789", min_size=1, max_size=30)
_PAD = st.integers(0, 6).map("0".__mul__)
_ZEROS = st.integers(1, 6000).map("0".__mul__)


def _numeral(whole, fraction):
    return f"{whole}.{fraction}" if fraction else whole


_NUMERALS = st.builds(
    lambda pad, whole, fraction, trail: _numeral(pad + whole, fraction and fraction + trail),
    _PAD, _RUN, st.just("") | _RUN, _PAD,
) | st.builds(_numeral, _ZEROS, st.just("") | _ZEROS)
_EXPONENTS = st.just("") | st.builds(
    "{}{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), _PAD,
    st.integers(0, 60),
)


@given(_NUMERALS)
def test_the_integer_numeral_path_is_exact(text):
    assert DECIMAL_RE.fullmatch(text)
    value = exact_number(text)
    assert type(value) is Fraction and value == Fraction(Decimal(text))


@given(sign=st.sampled_from(["", "-"]), numeral=_NUMERALS, exponent=_EXPONENTS)
def test_signed_and_exponent_numerals_are_exact(sign, numeral, exponent):
    text = sign + numeral + exponent
    value = exact_number(text)
    assert type(value) is Fraction and value == Fraction(Decimal(text))


@pytest.mark.parametrize("digits,accepted", [(4300, True), (4301, False)])
def test_the_integer_numeral_path_is_bounded(digits, accepted):
    # 4300 is Python's default int string limit; zeros count as digits, and
    # so do those an exponent adds
    for text in ("9" * digits, "9" * (digits - 2) + ".99", "0" * (digits - 1) + "1",
                 "1" + "0" * (digits - 2) + ".0", "-" + "9" * digits,
                 f"1e{digits - 1}", f"-1E+{digits - 1}", f"1e-{digits - 1}",
                 f"0.{'0' * (digits - 40)}1e-38"):
        if accepted:
            assert exact_number(text) == Fraction(Decimal(text))
        else:
            with pytest.raises(ValueError, match="more than 4300 digits"):
                exact_number(text)
    assert exact_number("0" * digits) == exact_number("-" + "0" * digits + ".0e9") == 0


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python has no int string limit")
def test_the_integer_numeral_path_reads_the_live_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the lowest limit Python takes
    try:
        assert exact_number("9" * 640) == 10**640 - 1
        assert exact_number("0" * 641) == 0
        for text in ("9" * 641, "9" * 320 + "." + "9" * 321, "1e640"):
            with pytest.raises(ValueError, match="more than 640 digits"):
                exact_number(text)
        # .sla text and telemetry read numerals through the plain branch,
        # and refuse one digit past the live limit
        for numeral in ("9" * 641, "9" * 320 + "." + "9" * 321):
            with pytest.raises(ParseError, match="more than 640 digits"):
                parse(_sla_with(numeral))
            records, skipped = parse_telemetry(f"0\tsvc\tlatency\t{numeral}\n"
                                               f"1\tsvc\tlatency\t{numeral} ms")
            assert (records, skipped) == ([], 2)
        assert parse_telemetry(f"0\tsvc\tlatency\t{'9' * 640}")[0][0].value.value == 10**640 - 1
    finally:
        sys.set_int_max_str_digits(old)
    assert exact_number("9" * 641) == 10**641 - 1
    assert parse_telemetry(f"0\tsvc\tlatency\t{'9' * 641}")[0][0].value.value == 10**641 - 1


def _sla_with(numeral: str) -> str:
    return fixture_text("rhms.sla").replace(
        "network_delay <= 1 time_unit", f"network_delay <= {numeral} time_unit")


@given(magnitude=st.fractions(), unit=st.none() | st.sampled_from(sorted(KNOWN_UNITS)))
def test_trusted_values_equal_checked_ones(magnitude, unit):
    trusted, checked = _trusted_numeric(magnitude, unit), TypedValue.numeric(magnitude, unit)
    assert trusted == checked and checked == trusted
    assert hash(trusted) == hash(checked) and {trusted} == {checked}


def _bytes_held(build):
    tracemalloc.start()
    try:
        held = [build(Fraction(i, 7)) for i in range(2000)]
        return tracemalloc.get_traced_memory()[0] // len(held)
    finally:
        tracemalloc.stop()


def test_trusted_values_are_as_compact_as_checked_ones():
    assert _bytes_held(lambda m: _trusted_numeric(m, "ms")) <= \
        _bytes_held(lambda m: TypedValue.numeric(m, "ms"))
