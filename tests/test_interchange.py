"""JSON interchange: exact numerics both ways, strict schema checks."""

import json
import random
from fractions import Fraction

import pytest

from iotsla import SchemaViolationError, from_interchange, parse, serialize, to_interchange
from iotsla.interchange import emit_json

import interchange_oracle
from support import gen_document


def test_rhms_json_round_trip(rhms_doc):
    text = to_interchange(rhms_doc)
    assert from_interchange(text) == rhms_doc


def test_seeded_json_round_trips():
    rng = random.Random(99)
    for _ in range(120):
        doc = gen_document(rng)
        assert from_interchange(to_interchange(doc)) == doc


def test_numbers_survive_as_exact_decimals(rhms_text):
    doc = parse(rhms_text.replace(
        "end_to_end_response_time <= 5",
        "end_to_end_response_time <= 5.05",
    ))
    text = to_interchange(doc)
    assert "5.05" in text
    assert "5.05000" not in text and "5.0499" not in text
    again = from_interchange(text)
    assert again.app_slos[0].constraints[0].value.value == Fraction(505, 100)


def test_emit_json_exactness():
    assert emit_json(Fraction(9995, 100)) == "99.95"
    assert emit_json(Fraction(1, 4)) == "0.25"
    assert emit_json(Fraction(7)) == "7"
    # no finite decimal form: keep it exact as a string, never round
    assert emit_json(Fraction(1, 3)) == '"1/3"'
    assert emit_json({"a": [True, None, "x"]}) == (
        '{\n  "a": [\n    true,\n    null,\n    "x"\n  ]\n}'
    )


def test_emit_json_escapes_every_code_point_as_before():
    # Both escapers work one character at a time, so comparing whole blocks
    # compares every code point, lone surrogates included.
    for start in range(0, 0x110000, 0x1000):
        block = "".join(map(chr, range(start, start + 0x1000)))
        escaped = interchange_oracle._emit_str(block)
        assert emit_json(block) == escaped, hex(start)
        assert emit_json({block: None}) == "{\n  " + escaped + ": null\n}", hex(start)


def test_unattached_slos_key_only_when_used(rhms_doc):
    data = json.loads(to_interchange(rhms_doc))
    assert "unattached_slos" not in data
    doc = parse(
        'sla "T" { id = d application = a starts = 2026-01-01 ends = 2027-01-01 }\n'
        "slo ghost on nowhere { latency <= 5 }\n"
    )
    data = json.loads(to_interchange(doc))
    assert [s["id"] for s in data["unattached_slos"]] == ["ghost"]
    assert from_interchange(to_interchange(doc)) == doc


@pytest.mark.parametrize("mutate,pointer_part", [
    (lambda d: d.update(extra=1), "/extra"),
    (lambda d: d.update(id="Bad-Id"), "/id"),
    (lambda d: d.update(start_date="2026-13-01"), "/start_date"),
    (lambda d: d["parties"][0].update(role="sponsor"), "/parties/0/role"),
    (lambda d: d["services"][0].update(kind="quantum"), "/services/0/kind"),
    (lambda d: d["services"][1]["slos"][0]["constraints"][0].update(value=-3),
     "value"),
    (lambda d: d["services"][1]["slos"][0]["constraints"][0].update(comparator="!="),
     "comparator"),
])
def test_schema_violations_carry_pointers(rhms_doc, mutate, pointer_part):
    data = json.loads(to_interchange(rhms_doc))
    mutate(data)
    with pytest.raises(SchemaViolationError) as info:
        from_interchange(json.dumps(data))
    assert pointer_part in info.value.pointer


@pytest.mark.parametrize("mutate,pointer,message", [
    (lambda d: d["resources"][0].update(kind="bogus"), "/resources/0/kind",
     "must be one of iot_device, edge_resource, cloud_resource"),
    (lambda d: d["activities"][0].update(kind="bogus"), "/activities/0/kind",
     "must be one of capture_eoi, examine_eoi_on_fly, filter_eoi, aggregate_eoi, "
     "ingest_data, small_scale_rt_analysis, large_scale_rt_analysis, "
     "large_scale_hist_analysis, store_structured, store_unstructured"),
    (lambda d: d["services"][0].pop("deployed_on"), "/services/0/deployed_on",
     "missing required field"),
    (lambda d: d["resources"][0].update(deployed_on="cloud_vm"), "/resources/0/deployed_on",
     "unknown field"),
    (lambda d: d["app_slos"][0]["constraints"][0].update(comparator="=<"),
     "/app_slos/0/constraints/0/comparator", "must be one of <, <=, >, >=, =="),
    (lambda d: d["parties"][0].update(role=5), "/parties/0/role", "must be a string"),
])
def test_owner_and_choice_violations_are_pinned(rhms_doc, mutate, pointer, message):
    data = json.loads(to_interchange(rhms_doc))
    mutate(data)
    with pytest.raises(SchemaViolationError) as info:
        from_interchange(json.dumps(data))
    assert (info.value.pointer, info.value.message) == (pointer, message)


def test_duplicate_id_reported_as_schema_violation(rhms_doc):
    data = json.loads(to_interchange(rhms_doc))
    data["parties"][1]["id"] = data["parties"][0]["id"]
    with pytest.raises(SchemaViolationError):
        from_interchange(json.dumps(data))


def test_not_even_json():
    with pytest.raises(SchemaViolationError):
        from_interchange("{nope")
    with pytest.raises(SchemaViolationError):
        from_interchange(b"\xff\xfe")
    with pytest.raises(SchemaViolationError):
        from_interchange("[]")


@pytest.mark.parametrize("raw", ["20260101", "2026-W01-1", "2026-01-01\n"])
def test_dates_must_have_the_text_form(rhms_doc, raw):
    # Python 3.11+ date.fromisoformat accepts the first two; the text
    # parser and Python 3.10 do not, so neither does the interchange form.
    data = json.loads(to_interchange(rhms_doc))
    data["start_date"] = raw
    with pytest.raises(SchemaViolationError) as info:
        from_interchange(json.dumps(data))
    assert info.value.pointer == "/start_date"


@pytest.mark.parametrize("unit", ["Mb", "on", "true", "m s", "", "hz\n", 5])
def test_units_the_text_form_cannot_carry_are_refused(rhms_doc, unit):
    # serialize writes a unit as a bare word after its number, so only a
    # non-keyword identifier survives the trip to text and back
    data = json.loads(to_interchange(rhms_doc))
    data["services"][0]["config"][0]["unit"] = unit
    with pytest.raises(SchemaViolationError) as info:
        from_interchange(json.dumps(data))
    assert info.value.pointer == "/services/0/config/0/unit"


def test_identifier_units_survive_text_and_json(rhms_doc):
    data = json.loads(to_interchange(rhms_doc))
    data["services"][0]["config"][0]["unit"] = "mb_2"
    doc = from_interchange(json.dumps(data))
    assert parse(serialize(doc)) == doc
