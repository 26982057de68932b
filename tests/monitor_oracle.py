"""The monitor as it was before the single-pass fold: the differential oracle.

``evaluate_window``, ``end_to_end_response`` and ``monitor_document`` below
are the per-SLO implementation that ``iotsla.monitor`` replaced, kept
unchanged but for absolute imports: every SLO re-sorts and rescans the
records, end-to-end response time loops over activities, services and
records, and the skip count resolves each record's target through
``concept_of_target``.  ``to_canonical`` is the unit conversion
``iotsla.constraints`` had before its one fit rule, moved here so that the
oracle converts samples by its own code.  It is slow (O(SLOs × records)) but simple, so
``test_monitor_oracle.py`` checks the fold against it on generated
agreements and telemetry.

One behaviour differs from the fold: a sample whose tag a non-numeric
metric cannot compare raises ``TypeMismatchError`` here, where the fold
ignores it; the generated telemetry has no such samples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from iotsla.constraints import (
    SATISFIED,
    TypedValue,
    check_constraint_against_value,
    convert,
    mean,
)
from iotsla.errors import IncompatibleUnitsError, UnitMismatchError
from iotsla.model import (
    APP_TARGET,
    SlaDocument,
    Slo,
    concept_of_target,
    services_for_activity,
)
from iotsla.monitor import (
    LATENCY_FAMILY,
    CoverageGap,
    EvaluationWindow,
    MonitorReport,
    TelemetryRecord,
    ViolationEvent,
)
from iotsla.vocabulary import APPLICATION_CONCEPT, Catalog, VocabularyEntry


def _as_window(window: EvaluationWindow | int | None) -> EvaluationWindow:
    if window is None:
        return EvaluationWindow()
    if isinstance(window, int):
        return EvaluationWindow(window)
    return window


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


def _canonical_magnitude(record: TelemetryRecord, entry: VocabularyEntry) -> Fraction | None:
    """Record's magnitude in the entry's canonical unit; None if unusable."""
    if record.value.tag != "numeric":
        return None
    try:
        return to_canonical(record.value, entry, "observed value")
    except UnitMismatchError:
        return None


def _fold_numeric(entry: VocabularyEntry, samples: list[Fraction],
                  booleans: list[bool]) -> Fraction | None:
    aggregator = entry.aggregator
    if aggregator == "ratio" and booleans and not samples:
        return Fraction(100) * sum(booleans) / len(booleans)
    if not samples:
        return None
    if aggregator == "max":
        return max(samples)
    if aggregator == "min":
        return min(samples)
    if aggregator == "sum":
        return sum(samples, Fraction(0))
    # mean, ratio over numeric samples, and the "none" fallback
    return mean(samples)


def _boolean_sort_key(value: TypedValue) -> str:
    return str(value.value)


def evaluate_window(
    slo: Slo,
    records: Iterable[TelemetryRecord],
    window: EvaluationWindow | int | None,
    catalog: Catalog,
    *,
    concept: str | None = None,
    target_ids: frozenset[str] | set[str] | None = None,
) -> list[ViolationEvent]:
    """Check one SLO's constraints over tumbling windows of telemetry.

    ``concept`` names the vocabulary concept the SLO target belongs to;
    when omitted it defaults to ``application`` for SLOs on ``app`` and
    must be given otherwise (a bare SLO does not know its target's kind).
    ``target_ids`` widens which record targets feed this SLO; it defaults
    to the SLO's own target.

    Records that do not match the target and metric, or whose values
    cannot be read in the metric's canonical unit, are ignored here;
    :func:`monitor_document` counts them.
    """
    window = _as_window(window)
    if concept is None:
        if slo.target == APP_TARGET:
            concept = APPLICATION_CONCEPT
        else:
            raise ValueError("concept is required for SLOs on a service or resource")
    if target_ids is None:
        target_ids = {slo.target}
    records = sorted(records, key=lambda r: r.timestamp)

    events: list[ViolationEvent] = []
    for constraint in slo.constraints:
        entry = catalog.lookup(constraint.metric, concept)
        if entry is None:
            continue
        relevant = [
            r for r in records
            if r.target_id in target_ids and entry.matches_term(r.metric)
        ]
        if not relevant:
            continue
        by_window: dict[int, list[TelemetryRecord]] = {}
        for record in relevant:
            by_window.setdefault(window.index_of(record.timestamp), []).append(record)

        for index in sorted(by_window):
            start, end = window.bounds(index)
            group = by_window[index]
            if entry.value_type == "numeric":
                numerics = [
                    m for r in group
                    if (m := _canonical_magnitude(r, entry)) is not None
                ]
                booleans = [r.value.value for r in group if r.value.tag == "boolean"]
                folded = _fold_numeric(entry, numerics, booleans)
                if folded is None:
                    continue
                observed = TypedValue.numeric(folded, entry.canonical_unit)
                verdict = check_constraint_against_value(constraint, observed, entry)
                if verdict != SATISFIED:
                    events.append(ViolationEvent(start, end, slo.id, constraint, observed))
            else:
                # Non-numeric metrics have nothing to fold; every sample in
                # the window must satisfy the constraint.  The reported
                # value is the earliest offending sample (ties broken by
                # value) so results do not depend on input order.
                offending = [
                    r for r in group
                    if r.value.tag != "numeric"
                    and check_constraint_against_value(constraint, r.value, entry) != SATISFIED
                ]
                if offending:
                    first = min(
                        offending,
                        key=lambda r: (r.timestamp, _boolean_sort_key(r.value)),
                    )
                    events.append(
                        ViolationEvent(start, end, slo.id, constraint, first.value)
                    )
    events.sort(key=lambda e: (e.window_start, e.constraint.metric))
    return events


def end_to_end_response(
    doc: SlaDocument,
    records: Iterable[TelemetryRecord],
    window: EvaluationWindow | int | None,
    catalog: Catalog,
    *,
    on_coverage_gap: Callable[[CoverageGap], None] | None = None,
) -> list[ViolationEvent]:
    """Check application ``end_to_end_response_time`` SLOs.

    Per window, the end-to-end figure is the sum over activities (in
    declaration order) of the maximum time-family sample among that
    activity's services.  An activity with no samples in a window
    contributes 0 and reports a coverage gap.  Windows with no time-family
    samples anywhere are skipped entirely.
    """
    window = _as_window(window)
    records = list(records)
    targets = [
        (slo, constraint)
        for slo in doc.app_slos
        for constraint in slo.constraints
        if constraint.metric == "end_to_end_response_time"
    ]
    if not targets:
        return []
    entry = catalog.lookup("end_to_end_response_time", APPLICATION_CONCEPT)

    # activity id -> {window index -> max delay among its services}
    per_activity: dict[str, dict[int, Fraction]] = {}
    seen_windows: set[int] = set()
    for activity in doc.activities:
        services = services_for_activity(doc, activity.id)
        maxima: dict[int, Fraction] = {}
        for service in services:
            for record in records:
                if record.target_id != service.id:
                    continue
                metric_entry = catalog.lookup(record.metric, service.kind)
                if metric_entry is None or metric_entry.term not in LATENCY_FAMILY:
                    continue
                magnitude = _canonical_magnitude(record, metric_entry)
                if magnitude is None:
                    continue
                index = window.index_of(record.timestamp)
                seen_windows.add(index)
                if index not in maxima or magnitude > maxima[index]:
                    maxima[index] = magnitude
        per_activity[activity.id] = maxima

    events: list[ViolationEvent] = []
    for index in sorted(seen_windows):
        start, end = window.bounds(index)
        total = Fraction(0)
        for activity in doc.activities:
            maxima = per_activity[activity.id]
            if index in maxima:
                total += maxima[index]
            elif on_coverage_gap is not None:
                on_coverage_gap(CoverageGap(
                    start, end, activity.id,
                    f"no time samples for activity '{activity.id}' in this window",
                ))
        observed = TypedValue.numeric(total, entry.canonical_unit)
        for slo, constraint in targets:
            verdict = check_constraint_against_value(constraint, observed, entry)
            if verdict != SATISFIED:
                events.append(ViolationEvent(start, end, slo.id, constraint, observed))
    return events


def monitor_document(
    doc: SlaDocument,
    records: Iterable[TelemetryRecord],
    window: EvaluationWindow | int | None = None,
    catalog: Catalog | None = None,
) -> MonitorReport:
    """Run every SLO in the document against a telemetry set.

    Returns the violations (ordered by window, then SLO, then metric), the
    coverage gaps found while summing end-to-end response time, and the
    number of records that matched no known (target, metric) pair.
    """
    from iotsla.vocabulary import load_builtin_catalog

    if catalog is None:
        catalog = load_builtin_catalog()
    window = _as_window(window)
    records = list(records)

    report = MonitorReport()
    if not records:
        report.coverage_gaps.append(CoverageGap(None, None, None, "no telemetry records"))

    for record in records:
        concept = concept_of_target(doc, record.target_id)
        if concept is None:
            report.skipped_records += 1
            continue
        if catalog.lookup(record.metric, concept) is None:
            report.skipped_records += 1

    events: list[ViolationEvent] = []
    for slo in doc.app_slos:
        report.slo_violation_counts.setdefault(slo.id, 0)
        plain = [c for c in slo.constraints if c.metric != "end_to_end_response_time"]
        if plain:
            partial = Slo(slo.id, slo.target, tuple(plain), slo.span)
            events.extend(evaluate_window(
                partial, records, window, catalog,
                concept=APPLICATION_CONCEPT,
                target_ids={doc.id, APP_TARGET},
            ))
    events.extend(end_to_end_response(
        doc, records, window, catalog,
        on_coverage_gap=report.coverage_gaps.append,
    ))
    for service in doc.services:
        for slo in service.slos:
            report.slo_violation_counts.setdefault(slo.id, 0)
            events.extend(evaluate_window(
                slo, records, window, catalog, concept=service.kind,
                target_ids={service.id},
            ))
    for resource in doc.resources:
        for slo in resource.slos:
            report.slo_violation_counts.setdefault(slo.id, 0)
            events.extend(evaluate_window(
                slo, records, window, catalog, concept=resource.kind,
                target_ids={resource.id},
            ))

    events.sort(key=lambda e: (e.window_start, e.slo_id, e.constraint.metric))
    report.violations = events
    for event in events:
        report.slo_violation_counts[event.slo_id] = (
            report.slo_violation_counts.get(event.slo_id, 0) + 1
        )
    return report
