"""The JSON writer against the one it replaced, kept in interchange_oracle.

``emit_json``, ``to_interchange`` and ``decimal_str_or_fraction`` must
write what the recursive emitter and the Decimal-only number writer wrote,
byte for byte, at Python's default int string limit and at the lowest
one it takes.
"""

import random
import sys
from collections import OrderedDict
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from iotsla import to_interchange
from iotsla.constraints import decimal_str_or_fraction
from iotsla.interchange import emit_json, read_json

import interchange_oracle as oracle
from support import gen_document

# None for the default limit; 640 is the lowest set_int_max_str_digits takes
LIMITS = [None, pytest.param(640, marks=pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int string limit"))]


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


def _with_digits(n: int):
    return st.integers(10 ** (n - 1), 10**n - 1)


# integers of 1 to 5,000 digits, of either sign
LONG_INTS = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.integers(1, 5000).flatmap(_with_digits), st.booleans())
# finite decimals, and ones with none, of up to 5,000 digits each way
LONG_FRACTIONS = st.builds(
    Fraction, LONG_INTS,
    st.one_of(
        st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 5000), st.integers(0, 5000)),
        st.builds(lambda a, k: 10**a * k, st.integers(0, 5000), st.sampled_from([3, 7, 12])),
        st.integers(1, 5000).flatmap(_with_digits),
    ))
NUMBERS = st.integers() | st.fractions() | LONG_INTS | LONG_FRACTIONS
SCALARS = (
    st.none() | st.booleans() | st.dates() | NUMBERS | st.builds(_Int, st.integers())
    | st.text() | st.sampled_from(['"', "\\", "\n\t\b\f\r", "\x00\x1f", "é", " ", "\ud800"])
    | st.builds(_Str, st.text())
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.builds(_List, st.lists(inner, max_size=4))
                   | st.dictionaries(st.text(), inner, max_size=4)
                   | st.builds(OrderedDict, st.dictionaries(st.text(), inner, max_size=4))),
    max_leaves=24,
)


@contextmanager
def _int_limit(limit):
    """Python's int string limit set to ``limit`` for the block, if not None."""
    if limit is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("limit", LIMITS)
@settings(deadline=None)
@given(value=VALUES)
def test_emit_json_writes_what_the_recursive_emitter_wrote(limit, value):
    with _int_limit(limit):
        assert emit_json(value) == oracle._emit(value, 0)


@pytest.mark.parametrize("limit", LIMITS)
@settings(deadline=None)
@given(value=NUMBERS)
# on either side of 640 digits, where str() of an int may start to fail
@example(value=10**639)
@example(value=10**640 - 1)
@example(value=-(10**640))
@example(value=Fraction(10**640 + 1, 10))
@example(value=Fraction(1, 3 * 10**640))
def test_the_number_writer_writes_what_it_wrote(limit, value):
    with _int_limit(limit):
        assert decimal_str_or_fraction(value) == oracle.decimal_str_or_fraction(value)


@pytest.mark.parametrize("limit", LIMITS)
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_to_interchange_writes_what_the_recursive_emitter_wrote(limit, seed):
    # read back with exact numbers, a document's data re-emitted by the old
    # writer is the text the old to_interchange wrote
    doc = gen_document(random.Random(seed))
    with _int_limit(limit):
        text = to_interchange(doc)
        assert text == oracle._emit(read_json(text), 0) + "\n"


@pytest.mark.parametrize("value", [1.5, {1, 2}, (1,), b"x", {"a": [object()]}, {1: 2}])
def test_what_neither_writer_takes_raises_alike(value):
    with pytest.raises(TypeError) as old:
        oracle._emit(value, 0)
    with pytest.raises(TypeError) as new:
        emit_json(value)
    assert str(new.value) == str(old.value)
