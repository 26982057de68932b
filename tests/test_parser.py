"""DSL parsing, canonical serialization, and error reporting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from iotsla import ParseError, parse, serialize

from support import KEYWORDS, fixture_text, gen_document


MINIMAL = """\
sla "T" {
  id = d
  application = demo
  starts = 2026-01-01
  ends = 2027-01-01
}
"""


def wrap(body: str) -> str:
    return MINIMAL + body


# --- fixture structure -------------------------------------------------------

def test_rhms_structure(rhms_doc):
    doc = rhms_doc
    assert doc.id == "rhms"
    assert doc.application_type == "smart_health"
    assert [p.role for p in doc.parties] == ["consumer", "provider"]
    assert [a.kind for a in doc.activities] == [
        "capture_eoi", "ingest_data", "small_scale_rt_analysis",
    ]
    assert [s.kind for s in doc.services] == [
        "sensing", "networking", "ingestion", "stream_processing",
    ]
    assert [r.kind for r in doc.resources] == [
        "iot_device", "edge_resource", "cloud_resource",
    ]
    (app_slo, net_slo) = doc.all_slos()[:2]
    c = app_slo.constraints[0]
    assert (c.metric, c.comparator) == ("end_to_end_response_time", "<=")
    assert c.value.value == Fraction(5) and c.value.unit == "time_unit"
    assert net_slo.target == "net_svc"
    sampling = doc.services[0].config[0]
    assert sampling.term == "sampling_rate"
    assert sampling.value.value == Fraction(5) and sampling.value.unit == "hz"


def test_rhms_is_canonical(rhms_text):
    assert serialize(parse(rhms_text)) == rhms_text


def test_messy_fixture_canonicalises_to_rhms(rhms_text):
    messy = fixture_text("messy.sla")
    assert messy != rhms_text
    assert serialize(parse(messy)) == rhms_text


# --- values and units --------------------------------------------------------

def test_exact_decimal_values():
    doc = parse(wrap('slo s on app { availability >= 99.95 percent }'))
    value = doc.app_slos[0].constraints[0].value
    assert value.value == Fraction(9995, 100)
    assert value.unit == "percent"


def test_trailing_identifier_is_a_unit():
    doc = parse(wrap(
        'service s : ingestion on r {\n'
        '  replication_factor = 3\n'
        '  buffer = 10 mb\n'
        '}\n'
    ))
    a, b = doc.services[0].config
    assert (a.term, a.value.unit) == ("replication_factor", None)
    assert (b.term, b.value.unit) == ("buffer", "mb")


def test_unit_not_confused_with_next_clause():
    # "jitter" could be a unit for latency, but the following "<=" marks
    # it as the next constraint's metric
    doc = parse(wrap('slo s on app { latency <= 5 jitter <= 3 }'))
    first, second = doc.app_slos[0].constraints
    assert first.value.unit is None
    assert second.metric == "jitter"
    # same call in config position, disambiguated by "="
    doc = parse(wrap('service v : sensing on r { a = 5 b = 3 }'))
    a, b = doc.services[0].config
    assert a.value.unit is None and b.term == "b"


def test_unit_after_boolean_rejected():
    with pytest.raises(ParseError):
        parse(wrap('slo s on app { secure == true ms }'))


def test_string_values_in_config():
    doc = parse(wrap('resource r : iot_device { location = "lab 1" }'))
    assert doc.resources[0].config[0].value.value == "lab 1"


def test_string_escapes_round_trip():
    title = 'quote " slash \\ newline \n tab \t end'
    text = serialize(parse(MINIMAL.replace('"T"', serialize_title(title))))
    assert parse(text).title == title


def serialize_title(title: str) -> str:
    from iotsla.parser import _escape_string

    return _escape_string(title)


# --- structural errors -------------------------------------------------------

@pytest.mark.parametrize("source,line", [
    ("", 1),
    ("sla {", 1),
    (MINIMAL + "party p { }", 7),                      # missing fields
    (MINIMAL + "slo s on app { }", 7),                 # no constraints
    (MINIMAL + "activity a : not_a_kind requires s", 7),
    (MINIMAL + "service s : not_a_kind on r { }", 7),
    (MINIMAL + "resource r : unknown { }", 7),
    (MINIMAL + 'party p { name = "N" role = nobody }', 7),
    (MINIMAL + "slo s on app { latency <= }", 7),
    (MINIMAL + "slo s on app { latency <> 5 }", 7),
])
def test_parse_errors_report_the_right_line(source, line):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert info.value.line == line


SERVICE_KINDS = frozenset("batch_processing database ingestion machine_learning networking "
                          "sensing stream_processing".split())
ACTIVITY_KINDS = frozenset("aggregate_eoi capture_eoi examine_eoi_on_fly filter_eoi ingest_data "
                           "large_scale_hist_analysis large_scale_rt_analysis "
                           "small_scale_rt_analysis store_structured store_unstructured".split())
ROLES = frozenset({"consumer", "provider", "third_party"})
COMPARATORS = frozenset({"<", "<=", "==", ">", ">="})


@pytest.mark.parametrize("source,message,line,col,expected", [
    ("service s : bogus on r { }", "unknown service kind 'bogus'", 7, 13, SERVICE_KINDS),
    ('service s : "x" on r { }', "expected a service kind, found '\"x\"'", 7, 13,
     frozenset({"a service kind"})),
    ("service s : on on r { }", "'on' is a reserved keyword", 7, 13, None),
    ("resource r : bogus { }", "unknown resource kind 'bogus'", 7, 14,
     frozenset({"cloud_resource", "edge_resource", "iot_device"})),
    ("activity a : bogus requires s", "unknown activity kind 'bogus'", 7, 14, ACTIVITY_KINDS),
    ('party p {\n  name = "P"\n  role = boss\n}',
     "expected a party role (consumer, provider, third_party), found 'boss'", 9, 10, ROLES),
    ('party p { name = "P" role = app }',
     "expected a party role (consumer, provider, third_party), found 'app'", 7, 29, ROLES),
    ("slo o on app {\n  latency = 5\n}",
     "expected a comparator (<, <=, >, >=, ==), found '='", 8, 11, COMPARATORS),
    ("slo o on app { latency 5 }",
     "expected a comparator (<, <=, >, >=, ==), found '5'", 7, 24, COMPARATORS),
    ("service s : sensing { }", "expected 'on', found '{'", 7, 21, frozenset({"on"})),
    ("resource r : iot_device on x { }", "expected '{', found 'on'", 7, 25, frozenset({"{"})),
])
def test_owner_and_choice_errors_are_pinned(source, message, line, col, expected):
    with pytest.raises(ParseError) as info:
        parse(wrap(source))
    error = info.value
    assert (error.message, error.line, error.col) == (message, line, col)
    assert error.expected == expected


def test_error_column_points_at_offender():
    bad = MINIMAL + "slo s on app { latency <= oops== }\n"
    with pytest.raises(ParseError) as info:
        parse(bad)
    assert info.value.line == 7
    assert info.value.col >= 27


@pytest.mark.parametrize("keyword", sorted(KEYWORDS - {"true", "false"}))
def test_keywords_cannot_name_entities(keyword):
    with pytest.raises(ParseError):
        parse(MINIMAL + f"resource {keyword} : iot_device {{ }}")


def test_duplicate_ids_detected_at_parse_time():
    with pytest.raises(ParseError) as info:
        parse(wrap("resource x : iot_device { }\nresource x : iot_device { }"))
    assert "x" in str(info.value)


def test_blocks_must_keep_order():
    # resources come last; a party after a resource is an error
    source = wrap('resource r : iot_device { }\nparty p { name = "N" role = consumer }')
    with pytest.raises(ParseError):
        parse(source)


def test_comments_and_blank_lines_ignored():
    noisy = MINIMAL.replace("{", "{ # opening\n", 1) + "\n\n# trailing comment"
    doc = parse(noisy)
    assert doc.id == "d"


@pytest.mark.parametrize("number", ["9" * 5000, "1." + "0" * 4299 + "1",
                                    "9" * 2500 + "." + "9" * 2500],
                         ids=["integer", "decimal", "both_sides"])
def test_over_long_numbers_are_placed(number):
    # more digits than Python's int string limit: reported at the number,
    # also when each side of the point alone would fit
    with pytest.raises(ParseError) as info:
        parse(wrap(f"slo s on app {{\n  availability >= {number} percent\n}}\n"))
    assert (info.value.line, info.value.col) == (8, 19)
    assert "too long" in info.value.message


def test_bad_bytes_become_parse_errors():
    with pytest.raises(ParseError):
        parse(b"\xff\xfe\x00junk")
    with pytest.raises(ParseError):
        parse("sla \x00")


# --- round-trip properties ---------------------------------------------------

def test_seeded_round_trips():
    rng = random.Random(20260815)
    for _ in range(150):
        doc = gen_document(rng)
        text = serialize(doc)
        again = parse(text)
        assert again == doc
        assert serialize(again) == text


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**48))
def test_round_trip_any_seed(seed):
    doc = gen_document(random.Random(seed))
    text = serialize(doc)
    assert serialize(parse(text)) == text


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_fuzz_smoke_bytes(data):
    try:
        parse(data)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_fuzz_smoke_text(text):
    try:
        parse(text)
    except ParseError:
        pass
