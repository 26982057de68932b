"""The single-pass monitor against the per-SLO oracle in monitor_oracle.py.

Each generated case is an agreement with random SLOs over catalog terms
and aliases (every aggregator, boolean and textual metrics, end-to-end
response time), noisy shuffled telemetry and one of three window widths.
Reports must be equal in full: violations in order, coverage gaps, the
skip count and the per-SLO counts.
"""

from __future__ import annotations

import random
from datetime import date
from fractions import Fraction

import pytest

import monitor_oracle as oracle
from iotsla import (
    RESOURCE_KINDS,
    SERVICE_KINDS,
    UNIT_FAMILIES,
    InfraResourceSpec,
    MetricConstraint,
    Party,
    ServiceSpec,
    Slo,
    TypedValue,
    VocabularyEntry,
    WorkflowActivity,
    build_document,
    load_builtin_catalog,
    parse,
)
from iotsla.constraints import unit_family
from iotsla.monitor import (
    TelemetryRecord,
    end_to_end_response,
    evaluate_window,
    monitor_document,
    parse_telemetry,
)

from support import ACCURACY_MIN, fixture_text

CASES = 240

# Overlay entries so that every aggregator has a term: application
# accuracy as ``min``, an ingestion count as ``sum``, a textual networking
# metric.
SUM_ENTRY = {
    "term": "records_ingested", "concept": "ingestion",
    "description": "records taken in during the window",
    "value_type": "numeric", "canonical_unit": "count",
    "direction": "higher_is_better", "aggregator": "sum", "kind": "qos_metric",
}
TEXT_ENTRY = {
    "term": "link_mode", "concept": "networking",
    "description": "negotiated link mode",
    "value_type": "text", "canonical_unit": "dimensionless",
    "direction": "none", "aggregator": "none", "kind": "qos_metric",
}
OVERLAY_CATALOG = load_builtin_catalog().merge(
    VocabularyEntry.from_dict(e) for e in (ACCURACY_MIN, SUM_ENTRY, TEXT_ENTRY)
)
WORDS = ("duplex", "simplex", "half", "auto")


def _names(entry):
    return (entry.term, *entry.aliases)


def _in_unit(rng, canonical: Fraction, entry):
    """``canonical`` expressed in a random unit of the entry's family."""
    table = UNIT_FAMILIES[unit_family(entry.canonical_unit)]
    unit = rng.choice([None, *sorted(table)])
    if unit is None:
        return canonical, None
    return canonical * table[entry.canonical_unit] / table[unit], unit


def _magnitude(rng):
    return Fraction(rng.randint(0, 120), rng.choice((1, 2, 10)))


def _bound(rng, entry):
    if entry.value_type == "numeric":
        return rng.choice(["<", "<=", ">", ">=", "=="]), TypedValue.numeric(
            *_in_unit(rng, _magnitude(rng), entry))
    if entry.value_type == "boolean":
        return "==", TypedValue.boolean(rng.random() < 0.5)
    return "==", TypedValue(rng.choice(("text", "enumerated")), rng.choice(WORDS))


def _sample(rng, entry):
    """A sample for the entry's metric.

    Non-numeric metrics get values of their own kind, or numbers as noise.
    Numeric metrics get numbers in any unit of their family, sometimes in
    a foreign unit, and booleans (mostly on ``ratio``) or text as noise.
    """
    roll = rng.random()
    if entry.value_type == "boolean" and roll > 0.1:
        return TypedValue.boolean(rng.random() < 0.6)
    if entry.value_type in ("enumerated", "text") and roll > 0.1:
        return TypedValue.text(rng.choice(WORDS))
    if entry.value_type == "numeric":
        if roll < (0.5 if entry.aggregator == "ratio" else 0.05):
            return TypedValue.boolean(rng.random() < 0.7)
        if roll > 0.97:
            return TypedValue.text(rng.choice(WORDS))
    if rng.random() < 0.1:
        return TypedValue.numeric(_magnitude(rng), rng.choice(["ms", "hz", "furlong"]))
    return TypedValue.numeric(*_in_unit(rng, _magnitude(rng), entry))


def gen_case(rng: random.Random):
    """(document, records, window, catalog) for one differential case."""
    catalog = OVERLAY_CATALOG if rng.random() < 0.5 else load_builtin_catalog()
    resources = [InfraResourceSpec(f"res{i}", rng.choice(RESOURCE_KINDS))
                 for i in range(rng.randint(1, 3))]
    services = [ServiceSpec(f"svc{i}", rng.choice(SERVICE_KINDS), rng.choice(resources).id)
                for i in range(rng.randint(1, 6))]
    if catalog is OVERLAY_CATALOG:
        services += [ServiceSpec("ingest", "ingestion", resources[0].id),
                     ServiceSpec("net", "networking", resources[0].id)]
    activities = [
        WorkflowActivity(f"act{i}", "ingest_data", tuple(
            rng.choice([s.id for s in services] + ["ghost"])
            for _ in range(rng.randint(1, 3))))
        for i in range(rng.randint(1, 4))
    ]
    entries = {"app": catalog.applicable_terms("application")}
    for owner in (*services, *resources):
        entries[owner.id] = [e for e in catalog.applicable_terms(owner.kind)
                             if owner.id in ("ingest", "net") or rng.random() < 0.3]

    slos = []
    for n in range(rng.randint(1, 8)):
        target = rng.choice([*entries, "app", "app", "doc", "nowhere"])
        pool = entries.get("app" if target == "doc" else target) or entries["app"]
        constraints = []
        for _ in range(rng.randint(1, 3)):
            entry = rng.choice(pool)
            comparator, value = _bound(rng, entry)
            constraints.append(MetricConstraint(rng.choice(_names(entry)), comparator, value))
        slos.append(Slo(f"slo{n}", target, tuple(constraints)))
    doc = build_document(
        title="t", doc_id="doc", application_type="smart_city",
        start_date=date(2026, 1, 1), end_date=date(2027, 1, 1),
        parties=(Party("buyer", "B", "consumer"),), slos=tuple(slos),
        activities=tuple(activities), services=tuple(services), resources=tuple(resources),
    )

    records = []
    for _ in range(rng.randint(0, 120)):
        target = rng.choice([*entries, "app", "doc"])
        pool = entries.get("app" if target == "doc" else target) or entries["app"]
        entry = rng.choice(pool)
        metric = rng.choice(_names(entry))
        value = _sample(rng, entry)
        roll = rng.random()
        if roll < 0.05:
            target = rng.choice(["nowhere", "buyer", "act0", "slo0"])
        elif roll < 0.1:
            metric = "made_up_metric"
        records.append(TelemetryRecord(rng.randint(0, 240), target, metric, value))
    rng.shuffle(records)
    return doc, records, rng.choice((1, 7, 60)), catalog


def _same_report(new, old):
    assert new == old
    assert list(new.slo_violation_counts) == list(old.slo_violation_counts)


def test_reports_match_the_oracle():
    rng = random.Random(0x5EED)
    seen = set()
    for _ in range(CASES):
        doc, records, window, catalog = gen_case(rng)
        new = monitor_document(doc, records, window, catalog)
        _same_report(new, oracle.monitor_document(doc, records, window, catalog))
        concepts = {slo.id: "application" for slo in doc.app_slos}
        concepts.update((slo.id, owner.kind) for owner in (*doc.services, *doc.resources)
                        for slo in owner.slos)
        for event in new.violations:
            if event.constraint.metric == "end_to_end_response_time":
                seen.add("end_to_end")
                continue
            entry = catalog.lookup(event.constraint.metric, concepts[event.slo_id])
            seen.add(entry.aggregator if entry.value_type == "numeric" else entry.value_type)
        if new.skipped_records:
            seen.add("skipped")
        if any(gap.activity_id for gap in new.coverage_gaps):
            seen.add("gap")
    # the generator reaches every kind of verdict, so agreement means something
    assert seen >= {"max", "min", "mean", "sum", "ratio", "none", "boolean", "text",
                    "end_to_end", "skipped", "gap"}


def test_wrappers_match_the_oracle():
    rng = random.Random(0xA11)
    for _ in range(60):
        doc, records, window, catalog = gen_case(rng)
        new_gaps, old_gaps = [], []
        assert end_to_end_response(
            doc, records, window, catalog, on_coverage_gap=new_gaps.append,
        ) == oracle.end_to_end_response(
            doc, records, window, catalog, on_coverage_gap=old_gaps.append)
        assert new_gaps == old_gaps
        calls = [(slo, {"target_ids": {doc.id, "app"}}) for slo in doc.app_slos]
        calls += [(slo, {"concept": owner.kind})
                  for owner in (*doc.services, *doc.resources) for slo in owner.slos]
        for slo, kwargs in calls:
            args = (slo, records, window, catalog)
            assert evaluate_window(*args, **kwargs) == oracle.evaluate_window(*args, **kwargs)


def test_iterator_gives_the_list_result():
    rng = random.Random(7)
    for _ in range(20):
        doc, records, window, catalog = gen_case(rng)
        assert monitor_document(doc, iter(records), window, catalog) == \
            monitor_document(doc, records, window, catalog)


def test_fold_never_resolves_records(rhms_doc, monkeypatch):
    records, _ = parse_telemetry(fixture_text("spike.telemetry"))
    expected = oracle.monitor_document(rhms_doc, records)

    def no_resolve(*_args):
        raise AssertionError("resolve called")

    monkeypatch.setattr("iotsla.model.resolve", no_resolve)
    assert monitor_document(rhms_doc, records) == expected
    assert len(expected.violations) == 1


@pytest.mark.parametrize("name", ["calm.telemetry", "spike.telemetry"])
@pytest.mark.parametrize("window", [None, 7, 30])
def test_fixtures_match_the_oracle(name, window):
    doc = parse(fixture_text("rhms.sla"))
    records, _ = parse_telemetry(fixture_text(name))
    _same_report(monitor_document(doc, records, window),
                 oracle.monitor_document(doc, records, window))
