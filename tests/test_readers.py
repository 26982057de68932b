"""The JSON readers are total and bounded.

Interchange documents, offers, catalog overlays and match weights all go
through one reader.  Every input gives a result or an ``SlaError``; the
command line gives exit 2 with a message and no traceback; no case takes a
second.  Each payload runs in a child process, so a reader that stalls on
it fails the test instead of stalling the suite.
"""

import functools
import json
import operator
import os
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from iotsla import (
    VALID_CONCEPTS,
    Catalog,
    SchemaViolationError,
    SlaError,
    evaluate_window,
    from_interchange,
    load_builtin_catalog,
    load_offer,
    parse,
    rank_offers,
    serialize,
    to_interchange,
)
from iotsla.cli import main

from support import ACCURACY_MIN, FIXTURES, fixture_text

PAYLOADS = {
    "deep_nesting": "[" * 100000,
    "long_integer": "1" * 5000,
    "huge_exponent": "1e999999999",
    "tiny_exponent": "1e-999999999",
    "invalid_utf8": b"\xff",
}

READERS = ["from_interchange", "load_offer", "Catalog.from_json",
           "match --weights", "--catalog"]


def read(reader: str, payload: str | bytes) -> str:
    """Feed one reader; name the outcome: result, SlaError or exit code."""
    if reader in ("match --weights", "--catalog"):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
            argv = ["validate", str(FIXTURES / "rhms.sla"), "--catalog", str(path)]
            if reader == "match --weights":
                argv = ["match", str(FIXTURES / "procure.sla"),
                        str(FIXTURES / "alpha.offer.json"), "--weights", str(path)]
            return f"exit {main(argv)}"
    try:
        if reader == "from_interchange":
            from_interchange(payload)
        elif reader == "load_offer":
            load_offer(payload, load_builtin_catalog())
        else:
            Catalog.from_json(payload)
    except SlaError:
        return "SlaError"
    return "result"


def _child(name: str) -> None:
    for reader in READERS:
        start = time.perf_counter()
        outcome = read(reader, PAYLOADS[name])
        print(json.dumps({"reader": reader, "outcome": outcome,
                          "seconds": time.perf_counter() - start}))


@pytest.mark.parametrize("name", list(PAYLOADS))
def test_readers_are_total_and_fast(name):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    try:
        child = subprocess.run([sys.executable, __file__, name], env=env,
                               capture_output=True, text=True, timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail(f"a reader did not finish on {name} within 20 s")
    assert child.returncode == 0, child.stderr
    assert "Traceback" not in child.stderr
    results = [json.loads(line) for line in child.stdout.splitlines()]
    assert [r["reader"] for r in results] == READERS
    for result in results:
        expected = "exit 2" if result["reader"] in READERS[3:] else "SlaError"
        assert result["outcome"] == expected, result
        assert result["seconds"] < 1, result
    # one message from each command line reader
    assert len(child.stderr.splitlines()) == 2, child.stderr


@settings(max_examples=60, deadline=1000)
@given(payload=st.one_of(
    st.text(),
    st.binary(),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
        | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    ).map(json.dumps),
))
def test_readers_are_total_on_generated_text(payload):
    for reader in READERS:
        outcome = read(reader, payload)
        assert outcome in ("result", "SlaError", "exit 0", "exit 2"), (reader, outcome)


# Numbers written out: mantissa digits, then an exponent that puts them
# anywhere from far left to far right of the decimal point.
_NUMBERS = st.builds(
    lambda digits, exponent: f"{digits}e{exponent}",
    st.from_regex(r"[1-9][0-9]{0,40}(\.[0-9]{1,40})?", fullmatch=True),
    st.integers(-5000, 5000),
)


@settings(max_examples=80, deadline=1000)
@given(number=_NUMBERS)
def test_every_accepted_document_is_written_back(number):
    data = json.loads(to_interchange(parse(fixture_text("rhms.sla"))))
    text = json.dumps(data).replace('"value": 5,', f'"value": {number},', 1)
    assert number in text
    try:
        doc = from_interchange(text)
    except SchemaViolationError as exc:
        assert exc.pointer == "/" and "too long" in exc.message
        return
    assert from_interchange(to_interchange(doc)) == doc
    assert parse(serialize(doc)) == doc


@pytest.mark.parametrize("number,accepted", [
    ("1e4299", True), ("1e4300", False),
    ("1e-4299", True), ("1e-4300", False),
    ("1e5000", False), ("0e999999999", True),
])
def test_the_digit_bound(number, accepted):
    # 4300 is Python's default int string limit: 1e4299 has 4300 digits
    # written out, 1e-4299 has "0." and 4299 more
    text = fixture_text("alpha.offer.json").replace('"value": 4,', f'"value": {number},')
    if accepted:
        offer = load_offer(text, load_builtin_catalog())
        assert offer.capabilities["latency"].value == Fraction(Decimal(number))
    else:
        with pytest.raises(SchemaViolationError) as info:
            load_offer(text, load_builtin_catalog())
        assert info.value.pointer == "/"


# Strings: every accepted one must encode as UTF-8.

READ = {"from_interchange": from_interchange,
        "load_offer": lambda text: load_offer(text, load_builtin_catalog()),
        "Catalog.from_json": Catalog.from_json}


def _reader_input(reader: str) -> object:
    if reader == "from_interchange":
        return json.loads(to_interchange(parse(fixture_text("rhms.sla"))))
    if reader == "load_offer":
        return json.loads(fixture_text("alpha.offer.json"))
    return [dict(ACCURACY_MIN, aliases=["acc"])]


@pytest.mark.parametrize("reader,pointer", [
    ("from_interchange", "/title"),
    ("from_interchange", "/parties/0/name"),
    ("from_interchange", "/app_slos/0/constraints/0/unit"),
    ("from_interchange", "/app_slos/0/constraints/0/value"),
    ("load_offer", "/provider_id"),
    ("load_offer", "/capabilities/0/unit"),
    ("Catalog.from_json", "/0/description"),
    ("Catalog.from_json", "/0/aliases/0"),
])
def test_lone_surrogates_are_refused(reader, pointer):
    # json.dumps writes the lone surrogate as the escape \ud800
    data = _reader_input(reader)
    *path, key = [int(part) if part.isdigit() else part for part in pointer[1:].split("/")]
    parent = functools.reduce(operator.getitem, path, data)
    parent[key] = "\ud800"
    if key == "value":
        del parent["unit"]  # text values carry none
    with pytest.raises(SchemaViolationError) as info:
        READ[reader](json.dumps(data))
    assert info.value.pointer == pointer


def test_surrogate_pairs_are_kept():
    data = _reader_input("from_interchange")
    data["title"] = "\U0001f600"
    text = json.dumps(data)
    assert "\\ud83d\\ude00" in text
    doc = from_interchange(text)
    assert doc.title == "\U0001f600"
    assert from_interchange(to_interchange(doc).encode("utf-8")) == doc
    assert parse(serialize(doc).encode("utf-8")) == doc


if __name__ == "__main__":
    _child(sys.argv[1])


# Pointers: a key from the input is one RFC 6901 step, "~" written "~0" and
# "/" written "~1".  The root is written "/", so the key "" is too.

@pytest.mark.parametrize("key,step", [("a/b", "a~1b"), ("~", "~0"), ("~1", "~01"),
                                      ("/~/", "~1~0~1"), ("é", "é"), ("", "")])
@pytest.mark.parametrize("reader,where", [
    ("from_interchange", ""),
    ("from_interchange", "/services/1/slos/0/constraints/0"),
    ("load_offer", ""),
    ("load_offer", "/capabilities/0"),
    ("Catalog.from_json", "/0"),
])
def test_pointers_escape_keys(reader, where, key, step):
    data = _reader_input(reader)
    path = [int(part) if part.isdigit() else part for part in where.split("/")[1:]]
    functools.reduce(operator.getitem, path, data)[key] = 1
    with pytest.raises(SchemaViolationError) as info:
        READ[reader](json.dumps(data))
    assert (info.value.pointer, info.value.message) == (f"{where}/{step}", "unknown field")


# Refusals: a reader's input with the value at one pointer replaced, and
# the (pointer, message) it gives; or an API call and its ValueError.

_C = "/app_slos/0/constraints"
_RS = "/activities/0/required_services"
_NOT_A_VALUE = "must be a number, boolean, or string"


def _ingest_terms():
    return [c for service in parse(fixture_text("procure.sla")).services
            for slo in service.slos for c in slo.constraints]


_API = {
    "evaluate_window": lambda: evaluate_window(
        parse(fixture_text("rhms.sla")).services[1].slos[0], [], 60, load_builtin_catalog()),
    "rank_offers": lambda: rank_offers(
        _ingest_terms(), [load_offer(fixture_text("alpha.offer.json"), load_builtin_catalog())],
        {"latency": 0}, load_builtin_catalog()),
}


@pytest.mark.parametrize("reader,where,value,pointer,message", [
    ("from_interchange", _C, [], _C, "must not be empty"),
    ("from_interchange", _RS, [], _RS, "must not be empty"),
    ("from_interchange", f"{_RS}/0", "Bad", f"{_RS}/0", "must be an identifier"),
    ("from_interchange", f"{_RS}/0", 3, f"{_RS}/0", "must be an identifier"),
    ("from_interchange", "/parties", {}, "/parties", "must be an array"),
    ("from_interchange", f"{_C}/0/value", True, f"{_C}/0/unit", "booleans carry no unit"),
    ("from_interchange", f"{_C}/0/value", "fast", f"{_C}/0/unit", "text values carry no unit"),
    ("from_interchange", f"{_C}/0/value", None, f"{_C}/0/value", _NOT_A_VALUE),
    ("from_interchange", f"{_C}/0/value", [1], f"{_C}/0/value", _NOT_A_VALUE),
    ("load_offer", "/provider_id", "", "/provider_id", "must be a non-empty string"),
    ("load_offer", "/concept", "bogus", "/concept", f"must be one of {', '.join(VALID_CONCEPTS)}"),
    ("evaluate_window", None, None, None,
     "concept is required for SLOs on a service or resource"),
    ("rank_offers", None, None, None, "weight for 'latency' must be positive"),
])
def test_each_refusal_names_its_place(reader, where, value, pointer, message):
    if reader in _API:
        with pytest.raises(ValueError) as info:
            _API[reader]()
        assert str(info.value) == message
        return
    data = _reader_input(reader)
    *path, key = [int(part) if part.isdigit() else part for part in where[1:].split("/")]
    functools.reduce(operator.getitem, path, data)[key] = value
    with pytest.raises(SchemaViolationError) as info:
        READ[reader](json.dumps(data))
    assert (info.value.pointer, info.value.message) == (pointer, message)
