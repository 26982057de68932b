"""Catalog contents, lookup semantics, and overlay merging."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from iotsla import (
    Catalog,
    SchemaViolationError,
    VocabularyEntry,
    VocabularyIntegrityError,
    application_slo_terms,
    load_builtin_catalog,
)
from iotsla.vocabulary import APPLICATION_CONCEPT, VALID_CONCEPTS

from support import ACCURACY_MIN

# entries per concept group in the builtin catalog
EXPECTED_COUNTS = {
    "iot_device": 12,
    "edge_resource": 12,
    "cloud_resource": 19,
    "sensing": 6,
    "networking": 8,
    "ingestion": 14,
    "stream_processing": 18,
    "batch_processing": 17,
    "machine_learning": 5,
    "database": 13,
}


def test_concept_counts(catalog):
    by_concept = {c: 0 for c in catalog.concepts()}
    for entry in catalog:
        by_concept[entry.concept] += 1
    assert by_concept == EXPECTED_COUNTS
    assert len(catalog) == sum(EXPECTED_COUNTS.values()) == 124


def test_concepts_are_the_valid_ten(catalog):
    assert set(catalog.concepts()) == set(VALID_CONCEPTS) - {APPLICATION_CONCEPT}
    assert len(catalog.concepts()) == 10


def test_every_entry_resolves_by_lookup(catalog):
    for entry in catalog:
        assert catalog.lookup(entry.term, entry.concept) is entry


def test_alias_resolution(catalog):
    cases = [
        ("sampling_frequency", "sensing", "sampling_rate"),
        ("buffer_size", "edge_resource", "storage_buffer_size"),
        ("io_storage_operations", "cloud_resource", "input_output_storage_operations"),
        ("query_response_time", "database", "response_time"),
    ]
    for alias, concept, canonical in cases:
        entry = catalog.lookup(alias, concept)
        assert entry is not None and entry.term == canonical
    # aliases are concept-scoped
    assert catalog.lookup("buffer_size", "cloud_resource") is None


def test_application_terms_live_outside_builtin(catalog):
    app = application_slo_terms()
    assert sorted(e.term for e in app) == [
        "accuracy", "availability", "end_to_end_response_time",
    ]
    for entry in app:
        assert entry.concept == APPLICATION_CONCEPT
    assert all(e.concept != APPLICATION_CONCEPT for e in catalog)


def test_application_terms_are_the_bottom_layer(catalog):
    builtin = {e.term: e for e in application_slo_terms()}
    assert catalog.lookup("accuracy", APPLICATION_CONCEPT) is builtin["accuracy"]
    own = VocabularyEntry.from_dict({**ACCURACY_MIN, "aliases": ["output_accuracy"]})
    merged = catalog.merge([own])
    assert merged.lookup("accuracy", APPLICATION_CONCEPT) is own
    assert merged.lookup("output_accuracy", APPLICATION_CONCEPT) is own
    assert merged.applicable_terms(APPLICATION_CONCEPT) == [
        own, builtin["availability"], builtin["end_to_end_response_time"],
    ]
    # only the catalog's own entries are iterated and exported
    assert list(merged) == sorted([*catalog, own], key=lambda e: (e.concept, e.term))
    assert merged.concepts() == [*catalog.concepts(), APPLICATION_CONCEPT]


def test_applicable_terms_sorted_and_filtered(catalog):
    terms = catalog.applicable_terms("sensing")
    assert [e.term for e in terms] == sorted(e.term for e in terms)
    metrics = catalog.applicable_terms("sensing", kind="qos_metric")
    params = catalog.applicable_terms("sensing", kind="configuration_parameter")
    assert len(metrics) + len(params) == len(terms)
    assert any(e.term == "sampling_rate" for e in params)


def test_entry_field_validation():
    with pytest.raises(ValueError):
        VocabularyEntry(
            term="x", concept="sensing", description="d", value_type="complex",
            canonical_unit="ms", direction="none", aggregator="none",
            kind="qos_metric",
        )
    with pytest.raises(ValueError):
        VocabularyEntry(
            term="x", concept="not_a_concept", description="d",
            value_type="numeric", canonical_unit="ms", direction="none",
            aggregator="none", kind="qos_metric",
        )


def _entry(term, concept="sensing", aliases=()):
    return VocabularyEntry(
        term=term, concept=concept, description="test entry",
        value_type="numeric", canonical_unit="time_unit",
        direction="lower_is_better", aggregator="mean", kind="qos_metric",
        aliases=tuple(aliases),
    )


def test_duplicate_term_concept_rejected():
    with pytest.raises(VocabularyIntegrityError):
        Catalog([_entry("dup"), _entry("dup")])


def test_alias_collisions_rejected():
    with pytest.raises(VocabularyIntegrityError):
        Catalog([_entry("a", aliases=("b",)), _entry("b")])
    with pytest.raises(VocabularyIntegrityError):
        Catalog([_entry("a", aliases=("x",)), _entry("c", aliases=("x",))])


def test_merge_replaces_by_term_and_concept(catalog):
    override = VocabularyEntry(
        term="latency", concept="ingestion", description="tightened",
        value_type="numeric", canonical_unit="ms",
        direction="lower_is_better", aggregator="max", kind="qos_metric",
    )
    extra = _entry("novel_metric")
    merged = catalog.merge([override, extra])
    assert len(merged) == len(catalog) + 1
    assert merged.lookup("latency", "ingestion").canonical_unit == "ms"
    assert merged.lookup("novel_metric", "sensing") is not None
    # original untouched
    assert catalog.lookup("latency", "ingestion").canonical_unit == "time_unit"


def test_catalog_json_round_trip(catalog):
    text = catalog.to_json()
    again = Catalog.from_json(text)
    assert list(again) == list(catalog)
    data = json.loads(text)
    keys = [(e["concept"], e["term"]) for e in data]
    assert keys == sorted(keys)


def _stdlib_json(catalog):
    # the writer to_json used before, keeping text as it is
    return json.dumps([e.to_dict() for e in catalog], indent=2, ensure_ascii=False)


# Descriptions and aliases past ASCII: DEL, Latin-1, the astral plane.
_TEXT = st.text(st.characters() | st.sampled_from(["\x7f", "é", "\U0001f600", "\U0010fffd"]),
                max_size=12)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_TEXT, st.lists(_TEXT, max_size=3)), max_size=5),
       over_builtin=st.booleans())
@example(rows=[], over_builtin=True)  # the builtin catalog
@example(rows=[], over_builtin=False)  # the empty one
def test_to_json_writes_what_the_stdlib_writes(rows, over_builtin):
    # Catalog itself does not check names, so aliases may hold any text; the
    # "#" keeps them apart from every term and from each other
    catalog = Catalog(
        VocabularyEntry(term=f"t{i}", concept=VALID_CONCEPTS[i % len(VALID_CONCEPTS)],
                        description=description, value_type="numeric",
                        canonical_unit="ms", direction="lower_is_better",
                        aggregator="max", kind="qos_metric",
                        aliases=tuple(f"{alias}#{i}.{j}" for j, alias in enumerate(aliases)))
        for i, (description, aliases) in enumerate(rows))
    if over_builtin:
        catalog = load_builtin_catalog().merge(catalog)
    assert catalog.to_json() == _stdlib_json(catalog)


def test_from_json_rejects_malformed():
    with pytest.raises(SchemaViolationError):
        Catalog.from_json("{")
    with pytest.raises(SchemaViolationError):
        Catalog.from_json(json.dumps([{"term": "x"}]))
    good = {
        "term": "x", "concept": "sensing", "description": "d",
        "value_type": "numeric", "canonical_unit": "ms",
        "direction": "none", "aggregator": "none", "kind": "qos_metric",
    }
    bad = dict(good, smuggled=1)
    with pytest.raises(SchemaViolationError):
        Catalog.from_json(json.dumps([bad]))
    assert len(Catalog.from_json(json.dumps([good]))) == 1


@pytest.mark.parametrize("field,value,pointer", [
    ("term", "Foo Bar", "/0/term"),
    ("term", "", "/0/term"),
    ("aliases", ["sample_age", "Foo Bar"], "/0/aliases/1"),
    ("aliases", [""], "/0/aliases/0"),
    ("term", "true", "/0/term"),
    ("aliases", ["on"], "/0/aliases/0"),
])
def test_from_json_names_must_be_identifiers(field, value, pointer):
    # no agreement text or interchange document could name such a term
    entry = {
        "term": "x", "concept": "sensing", "description": "d",
        "value_type": "numeric", "canonical_unit": "ms",
        "direction": "none", "aggregator": "none", "kind": "qos_metric",
        field: value,
    }
    with pytest.raises(SchemaViolationError) as info:
        Catalog.from_json(json.dumps([entry]))
    assert info.value.pointer == pointer and "identifier" in info.value.message


def test_builtin_catalog_is_cached():
    assert load_builtin_catalog() is load_builtin_catalog()
