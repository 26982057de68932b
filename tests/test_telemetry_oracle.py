"""The telemetry reader against the one it replaced, kept in telemetry_oracle.py.

Both must give the same records (timestamps, targets, metrics and exact
values of the same types) and the same skip count, or the same
``TelemetryFormatError`` line and message, on soups of lines built to sit
on the one-pattern fast path's edges.  ``exact_number``'s plain branch
must give what the general code gives.
"""

import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from iotsla import TelemetryFormatError, monitor
from iotsla.constraints import exact_number

import telemetry_oracle as oracle

# Every break str.splitlines knows, with "\r\n" and blank lines.
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029", "\n\n", "\n \n", "\r\n\r\n"]
# What may end one line of an iterable: nothing, one break, or several.
ENDINGS = ["", "\n", "\r\n", "\r", "\n\r", "\n\n", "\r\r\n", " \n", "\t\n"]

_DIGITS = st.sampled_from(["0", "1", "9", "00", "007", "120", "3600"])


def _mostly(common, *rare):
    """``common`` three times as often as each of ``rare``."""
    return st.sampled_from([common] * 3 + list(rare)).flatmap(lambda strategy: strategy)


def _run(lengths):
    return st.builds(str.__mul__, st.sampled_from("0179"), lengths)


# numerals: short, with leading zeros, and at, just past and far past the
# 4300-digit bound, in total or split by the point
NUMERALS = _mostly(
    st.one_of(_DIGITS, st.builds("{}.{}".format, _DIGITS, _DIGITS)),
    _run(st.sampled_from([639, 640, 641, 4299, 4300, 4301, 5000])),
    st.builds("{}.{}".format, _run(st.sampled_from([1, 2150, 4299])),
              _run(st.sampled_from([1, 2150, 2151]))),
)
VALUES = st.one_of(
    NUMERALS,
    st.builds("{} {}".format, NUMERALS, st.sampled_from(["ms", "time_unit", "percent", "now"])),
    st.sampled_from([
        "true", "false", "True", "wifi", "not a value", "", " ", "5 ", "5  ms", "5 ms ",
        " 5", "5ms", "5 m s", "5 m\rs", "5 ms\r", "5 \r", "5\r", "5 m\ts", "5 \u2028",
        "\u0663\u0663", "\uff15", "\u0663 ms", "1e5", "-5", "+5", ".5", "5.", "5.5.5",
        "1_0", "0x1",
    ]),
)
TIMESTAMPS = _mostly(
    _DIGITS,
    _run(st.sampled_from([19, 640, 641, 4300, 4301, 5000])),
    st.sampled_from(["", "-3", "+8", " 7", "7 ", "1_000", "\u0663", "x", "-0"]),
)
NAMES = _mostly(
    st.sampled_from(["svc", "net_svc", "latency", "network_delay"]),
    st.sampled_from(["", " ", "a b", "a\rb", "\u00e9t\u00e9", "x\ny"]),
    st.text(max_size=3),
)
LINES = _mostly(
    st.builds("{}\t{}\t{}\t{}".format, TIMESTAMPS, NAMES, NAMES, VALUES),
    st.lists(st.one_of(NAMES, VALUES), max_size=5).map("\t".join),
    st.sampled_from(["", " ", "\t", "\r"]),
)


def _outcome(module, source):
    try:
        records, skipped = module.parse_telemetry(source)
    except TelemetryFormatError as exc:
        return ("error", exc.line_no, exc.message)
    return ("ok", skipped, [
        (type(r.timestamp), r.timestamp, r.target_id, r.metric, r.value.tag,
         type(r.value.value), r.value.value, r.value.unit, hash(r))
        for r in records
    ])


@st.composite
def text_soups(draw) -> str:
    lines = draw(st.lists(LINES, max_size=6))
    text = "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)
    return text[:len(text) - draw(st.integers(0, 2))]  # with or without a last break


@st.composite
def line_lists(draw) -> list[str]:
    return [line + draw(st.sampled_from(ENDINGS)) for line in draw(st.lists(LINES, max_size=6))]


@contextmanager
def int_limit(limit):
    """Python's int string limit set to ``limit``, or left as it is."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit or old)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# the default int string limit, and the lowest one Python takes
LIMITS = pytest.mark.parametrize("limit", [None, 640], ids=["default_limit", "limit_640"])


@LIMITS
@settings(max_examples=300, deadline=None)
@given(text=text_soups())
@example(text="0\tsvc\tlatency\t" + "9" * 4300 + " ms\n1\tsvc\tlatency\t" + "9" * 4301)
@example(text="9" * 5000 + "\tsvc\tlatency\t5")
@example(text="5\tsvc\tlatency\t5 ms\r\n6\tsvc\tlatency\t5 m\rs")
def test_text_gives_what_the_oracle_gives(limit, text):
    with int_limit(limit):
        assert _outcome(monitor, text) == _outcome(oracle, text)


@LIMITS
@settings(max_examples=300, deadline=None)
@given(lines=line_lists())
@example(lines=["5\tsvc\tlatency\t5 ms\n", "6\tsvc\tlatency\t5 ms\r\n", "7\tsvc\tlatency\t5\n\r"])
@example(lines=["5\tsvc\tlatency\t5 ms\n\n", "6\tsvc\tlatency\t5 ms\t\n"])
def test_iterables_give_what_the_oracle_gives(limit, lines):
    with int_limit(limit):
        expected = _outcome(oracle, iter(lines))
        assert _outcome(monitor, iter(lines)) == expected
        assert _outcome(monitor, lines) == expected


@LIMITS
@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    NUMERALS,
    st.text(st.sampled_from("0123456789.\u0663\u00b2\uff15"), max_size=8),
    st.builds("{}{}".format, st.sampled_from(["-", ""]), NUMERALS),
    st.builds("{}e{}".format, NUMERALS, st.integers(-5, 5)),
))
@example(text="")
@example(text=".")
@example(text=".5")
@example(text="0" * 5000)
@example(text="." + "9" * 640)
def test_plain_branch_gives_what_the_general_code_gives(limit, text):
    def outcome(read):
        try:
            value = read(text)
        except ValueError as exc:
            return ("error", str(exc) if "too long" in str(exc) else "ValueError")
        assert type(value) is Fraction
        return ("ok", value)

    with int_limit(limit):
        assert outcome(exact_number) == outcome(oracle.exact_number)
