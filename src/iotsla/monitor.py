"""Evaluate SLOs against timestamped telemetry.

Time is abstract: timestamps are non-negative integer offsets in
``time_unit``.  Evaluation uses tumbling windows aligned at t=0 (default
width 60), so every record influences exactly one window.  A window with
no samples for a metric produces no verdict: missing telemetry is a
coverage problem, reported separately, never an SLO breach.

Aggregation per window follows the metric's catalog aggregator: ``max``
for worst-case metrics like latency, ``mean`` for utilization-like ones,
``ratio`` for availability/loss style metrics (boolean samples fold to the
percentage of true ones, numeric samples to their mean), plus ``min`` and
``sum``.  Metrics with aggregator ``none`` fall back to the mean when
numeric; non-numeric metrics are checked sample by sample.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .constraints import (
    SATISFIED,
    TypedValue,
    check_constraint_against_value,
    mean,
    to_canonical,
)
from .errors import (
    DomainError,
    EmptyWindowError,
    TelemetryFormatError,
    UnitMismatchError,
)
from .model import (
    APP_TARGET,
    MetricConstraint,
    SlaDocument,
    Slo,
    concept_of_target,
    services_for_activity,
)
from .vocabulary import (
    APPLICATION_CONCEPT,
    Catalog,
    VocabularyEntry,
)

__all__ = [
    "AVAILABILITY_STATE_METRIC",
    "LATENCY_FAMILY",
    "TelemetryRecord",
    "EvaluationWindow",
    "ViolationEvent",
    "WindowAggregate",
    "CoverageGap",
    "MonitorReport",
    "parse_telemetry",
    "evaluate_window",
    "availability_ratio",
    "data_completeness",
    "miss_ratio",
    "end_to_end_response",
    "monitor_document",
]

# Boolean up/down stream folded by availability_ratio.
AVAILABILITY_STATE_METRIC = "availability_state"

# Time-valued metrics that count toward an activity's stage delay when
# summing end-to-end response time across the pipeline.
LATENCY_FAMILY = frozenset(
    {"latency", "network_delay", "gateway_delay", "response_time", "data_freshness"}
)


@dataclass(frozen=True)
class TelemetryRecord:
    """One measured sample."""

    timestamp: int
    target_id: str
    metric: str
    value: TypedValue

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")


@dataclass(frozen=True)
class EvaluationWindow:
    """Tumbling window specification, aligned at t=0."""

    width: int = 60

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("window width must be positive")

    def index_of(self, timestamp: int) -> int:
        return timestamp // self.width

    def bounds(self, index: int) -> tuple[int, int]:
        return (index * self.width, (index + 1) * self.width)


@dataclass(frozen=True)
class ViolationEvent:
    """An SLO constraint breached within one window."""

    window_start: int
    window_end: int
    slo_id: str
    constraint: MetricConstraint
    observed: TypedValue
    verdict: str = "violated"

    def to_dict(self) -> dict:
        from .interchange import _constraint_dict, _value_fields

        observed = _value_fields(self.observed)
        return {
            "window_start": self.window_start,
            "window_end": self.window_end,
            "slo_id": self.slo_id,
            "constraint": _constraint_dict(self.constraint),
            "observed": observed.get("value"),
            "observed_unit": observed.get("unit"),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class WindowAggregate:
    """A folded value for one window (used by availability_ratio)."""

    window_start: int
    window_end: int
    value: TypedValue


@dataclass(frozen=True)
class CoverageGap:
    """Telemetry expected but absent."""

    window_start: int | None
    window_end: int | None
    activity_id: str | None
    note: str


@dataclass
class MonitorReport:
    """Everything one monitoring run determined."""

    violations: list[ViolationEvent] = field(default_factory=list)
    coverage_gaps: list[CoverageGap] = field(default_factory=list)
    skipped_records: int = 0
    slo_violation_counts: dict[str, int] = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return bool(self.violations)


# -- telemetry input ---------------------------------------------------------

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?\Z")


def _parse_value_field(text: str) -> TypedValue | None:
    """Interpret the value column; None when uninterpretable."""
    if text in ("true", "false"):
        return TypedValue.boolean(text == "true")
    parts = text.split(" ")
    if _NUMBER_RE.match(parts[0]):
        if len(parts) == 1:
            return TypedValue.numeric(Fraction(parts[0]))
        if len(parts) == 2 and parts[1]:
            return TypedValue.numeric(Fraction(parts[0]), parts[1])
        return None
    if len(parts) == 1 and text:
        return TypedValue.text(text)
    return None


def parse_telemetry(source: str | Iterable[str]) -> tuple[list[TelemetryRecord], int]:
    """Read line-delimited telemetry.

    Line format: ``timestamp<TAB>target_id<TAB>metric<TAB>value[ unit]``.
    Blank lines are ignored.  Structural problems (wrong field count, bad
    timestamp) raise :class:`TelemetryFormatError`; an uninterpretable
    value column only skips that record.  Returns (records, skipped_count).
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source
    records: list[TelemetryRecord] = []
    skipped = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise TelemetryFormatError(
                line_no, f"expected 4 tab-separated fields, found {len(fields)}"
            )
        ts_text, target_id, metric, value_text = fields
        try:
            timestamp = int(ts_text)
        except ValueError:
            raise TelemetryFormatError(line_no, f"bad timestamp {ts_text!r}") from None
        if timestamp < 0:
            raise TelemetryFormatError(line_no, "timestamp must be non-negative")
        if not target_id or not metric:
            raise TelemetryFormatError(line_no, "empty target or metric field")
        value = _parse_value_field(value_text)
        if value is None:
            skipped += 1
            continue
        records.append(TelemetryRecord(timestamp, target_id, metric, value))
    return records, skipped


# -- windowed evaluation -------------------------------------------------------


def _as_window(window: EvaluationWindow | int | None) -> EvaluationWindow:
    if window is None:
        return EvaluationWindow()
    if isinstance(window, int):
        return EvaluationWindow(window)
    return window


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


def availability_ratio(
    records: Iterable[TelemetryRecord],
    window: EvaluationWindow | int | None = None,
) -> list[WindowAggregate]:
    """Fold boolean ``availability_state`` samples into per-window percents.

    Each window's value is 100 × up / total over its samples.  Raises
    :class:`EmptyWindowError` when no usable sample exists at all.
    """
    window = _as_window(window)
    by_window: dict[int, list[bool]] = {}
    for record in records:
        if record.metric != AVAILABILITY_STATE_METRIC or record.value.tag != "boolean":
            continue
        assert isinstance(record.value.value, bool)
        by_window.setdefault(window.index_of(record.timestamp), []).append(
            record.value.value
        )
    if not by_window:
        raise EmptyWindowError("no availability_state samples")
    out: list[WindowAggregate] = []
    for index in sorted(by_window):
        start, end = window.bounds(index)
        samples = by_window[index]
        percent = Fraction(100) * sum(samples) / len(samples)
        out.append(WindowAggregate(start, end, TypedValue.numeric(percent, "percent")))
    return out


def data_completeness(used_tuples: int, window_tuples: int) -> TypedValue:
    """Share of the incoming stream used for results: 100 × used / total."""
    if window_tuples <= 0:
        raise DomainError("window must contain at least one tuple")
    if not 0 <= used_tuples <= window_tuples:
        raise DomainError("used tuples must lie in [0, window tuples]")
    return TypedValue.numeric(Fraction(100) * used_tuples / window_tuples, "percent")


def miss_ratio(missed_queries: int, total_queries: int) -> TypedValue:
    """Share of queries missing their deadlines: 100 × missed / total."""
    if total_queries <= 0:
        raise DomainError("total queries must be positive")
    if not 0 <= missed_queries <= total_queries:
        raise DomainError("missed queries must lie in [0, total]")
    return TypedValue.numeric(Fraction(100) * missed_queries / total_queries, "percent")


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
    from .vocabulary import load_builtin_catalog

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
