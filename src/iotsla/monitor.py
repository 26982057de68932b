"""Evaluate SLOs against timestamped telemetry in one pass.

Time is abstract: timestamps are non-negative integer offsets in
``time_unit``.  Evaluation uses tumbling windows aligned at t=0 (default
width 60), so every record influences exactly one window.  A window with
no samples for a metric produces no verdict: missing telemetry is a
coverage problem, reported separately, never an SLO breach.

Evaluation is one fold over the records.  An index built once per call
maps each target to its concept and each (target, term) to the
constraints watching it, with each numeric bound in canonical units.  Each
record is resolved by dictionary lookup, put into canonical units at most
once (one factor per unit pair and call) and folded into one exact
accumulator per (target, term, window); time-family samples also update
each requiring activity's per-window maximum.  Constraints are checked
afterwards, once per window with samples: O(records + windows ×
constraints).  The accumulators merge in any order, so results do not
depend on record order.

Aggregation per window follows the metric's catalog aggregator: ``max``
for worst-case metrics like latency, ``mean`` for utilization-like ones,
``ratio`` for availability/loss style metrics (boolean samples fold to the
percentage of true ones, numeric samples to their mean), plus ``min`` and
``sum``.  Metrics with aggregator ``none`` fall back to the mean when
numeric; non-numeric metrics are checked sample by sample against the
samples of their own kind (booleans for boolean metrics, text for
textual ones); other samples are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from typing import Callable, Iterable

from .constraints import (
    COMPARABLE_TAGS, DECIMAL_RE, SATISFIED, TypedValue, _compare, _trusted_numeric,
    check_constraint_against_value, exact_number, to_canonical, unit_factor,
)
from .errors import (
    DomainError, EmptyWindowError, IncompatibleUnitsError, TelemetryFormatError,
    UnitMismatchError,
)
from .model import APP_TARGET, MetricConstraint, SlaDocument, Slo, owned_slos
from .vocabulary import APPLICATION_CONCEPT, Catalog, VocabularyEntry, load_builtin_catalog

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

# Application metric computed from the activities rather than sampled.
_E2E_METRIC = "end_to_end_response_time"


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

_BOOLEANS = {"true": TypedValue.boolean(True), "false": TypedValue.boolean(False)}


def _parse_value_field(text: str) -> TypedValue | None:
    """Interpret the value column; None when uninterpretable."""
    boolean = _BOOLEANS.get(text)
    if boolean is not None:
        return boolean
    numeral, space, unit = text.partition(" ")
    if DECIMAL_RE.fullmatch(numeral):
        if space and (not unit or " " in unit):
            return None
        try:
            magnitude = exact_number(numeral)
        except ValueError:  # more digits than exact_number takes
            return None
        return _trusted_numeric(magnitude, unit or None)
    if not space and text:
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
            if not (ts_text.isascii() and ts_text.lstrip("-").isdigit()):
                raise ValueError
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
        records.append(_trusted_record(timestamp, target_id, metric, value))
    return records, skipped


def _trusted_record(timestamp: int, target_id: str, metric: str,
                    value: TypedValue) -> TelemetryRecord:
    """A :class:`TelemetryRecord` of fields :func:`parse_telemetry` has
    checked, built without ``__post_init__`` and with no instance
    ``__dict__``; equal, and hash-equal, to the checked one."""
    record = object.__new__(TelemetryRecord)
    object.__setattr__(record, "timestamp", timestamp)
    object.__setattr__(record, "target_id", target_id)
    object.__setattr__(record, "metric", metric)
    object.__setattr__(record, "value", value)
    return record


# -- the fold -------------------------------------------------------------------


def _as_window(window: EvaluationWindow | int | None) -> EvaluationWindow:
    if window is None:
        return EvaluationWindow()
    if isinstance(window, int):
        return EvaluationWindow(window)
    return window


class _Index:
    """Routes for records and the constraints watching them, built once.

    ``homes``: record target -> (home target, concept), one home for ``app``
    and the document id; ``watchers``: (home, term) -> [(position, slo,
    constraint, entry, bound)] in declaration order, where ``bound`` is a
    numeric constraint's value in canonical units, or None when it has none;
    ``members``: service -> positions of the activities requiring it, filled
    only for ``e2e``.
    """

    def __init__(self, catalog: Catalog, homes: dict[str, tuple[str, str]]):
        self.catalog, self.homes = catalog, homes
        self.watchers: dict[tuple[str, str], list] = {}
        self.e2e: list[tuple[int, Slo, MetricConstraint]] = []
        self.activities: tuple[str, ...] = ()
        self.members: dict[str, list[int]] = {}
        self.positions = count()

    def watch(self, home: str, concept: str, slo: Slo, constraint: MetricConstraint):
        position = next(self.positions)
        entry = self.catalog.lookup(constraint.metric, concept)
        if entry is None:
            return
        bound = None
        if entry.value_type == "numeric" and constraint.value.tag == "numeric":
            try:
                bound = to_canonical(constraint.value, entry, "constraint")
            except UnitMismatchError:
                pass  # check_constraint_against_value raises it per window
        self.watchers.setdefault((home, entry.term), []).append(
            (position, slo, constraint, entry, bound))

    def route(self, target_id: str, metric: str, entries: dict):
        """(entry, watched key or None, activity positions); None if unknown."""
        if target_id not in self.homes:
            return None
        home, concept = self.homes[target_id]
        if (metric, concept) not in entries:
            entries[metric, concept] = self.catalog.lookup(metric, concept)
        entry = entries[metric, concept]
        if entry is None:
            return None
        watched = (home, entry.term) if (home, entry.term) in self.watchers else None
        members = self.members.get(target_id, ()) if entry.term in LATENCY_FAMILY else ()
        return entry, watched, members


def _document_index(doc: SlaDocument, catalog: Catalog) -> _Index:
    homes = {r.id: (r.id, r.kind) for r in doc.resources}
    homes.update((s.id, (s.id, s.kind)) for s in doc.services)
    homes[doc.id] = homes[APP_TARGET] = (APP_TARGET, APPLICATION_CONCEPT)
    index = _Index(catalog, homes)
    for home, concept, slo in owned_slos(doc):
        for constraint in slo.constraints:
            if home == APP_TARGET and constraint.metric == _E2E_METRIC:
                index.e2e.append((next(index.positions), slo, constraint))
            elif concept is not None:
                index.watch(home, concept, slo, constraint)
    if index.e2e:
        index.activities = tuple(a.id for a in doc.activities)
        declared = {s.id for s in doc.services}
        for position, activity in enumerate(doc.activities):
            for ref in dict.fromkeys(activity.required_services):
                if ref in declared:
                    index.members.setdefault(ref, []).append(position)
    return index


def _accumulate(states: dict, key: tuple, entry: VocabularyEntry, value: TypedValue,
                magnitude: Fraction | None, timestamp: int) -> None:
    """Fold one sample into its (home, term, window) state: for numeric
    metrics ``[max | min | sum, samples, trues, booleans]`` (booleans only
    for ``ratio``), else each comparable value's earliest timestamp."""
    if entry.value_type != "numeric":
        if value.tag in COMPARABLE_TAGS[entry.value_type]:
            firsts = states.setdefault(key, {})
            firsts[value] = min(timestamp, firsts.get(value, timestamp))
    elif magnitude is not None:
        state = states.setdefault(key, [magnitude, 0, 0, 0])
        aggregator = entry.aggregator
        if not state[1] or (aggregator == "max" and magnitude > state[0]) or (
                aggregator == "min" and magnitude < state[0]):
            state[0] = magnitude
        elif aggregator not in ("max", "min"):
            state[0] += magnitude
        state[1] += 1
    elif value.tag == "boolean" and entry.aggregator == "ratio":
        state = states.setdefault(key, [None, 0, 0, 0])
        state[2] += value.value
        state[3] += 1


def _first_offender(constraint: MetricConstraint, entry: VocabularyEntry,
                    firsts: dict[TypedValue, int]) -> TypedValue | None:
    """The earliest sample breaking ``constraint``, ties broken by value."""
    offending = [v for v in firsts
                 if check_constraint_against_value(constraint, v, entry) != SATISFIED]
    return min(offending, key=lambda v: (firsts[v], str(v.value), v.tag), default=None)


def _fold(index: _Index, records: Iterable[TelemetryRecord], window: EvaluationWindow):
    """Read the records once, then check each watcher once per window.

    Returns (events by window then position, coverage gaps, records,
    records with an unknown target or a metric unknown for its concept).
    """
    routes: dict[tuple[str, str], tuple | None] = {}  # (target id, metric) -> route
    entries: dict[tuple[str, str], VocabularyEntry | None] = {}  # (metric, concept) -> entry
    factors: dict[tuple[str, str], Fraction | None] = {}  # (unit, canonical unit) -> factor
    states: dict[tuple[str, str, int], list | dict] = {}  # (home, term, window) -> state
    maxima: dict[int, list[Fraction | None]] = {}  # window -> per-activity maximum
    seen = skipped = 0
    width = window.width
    for record in records:
        seen += 1
        key = (record.target_id, record.metric)
        if key not in routes:
            routes[key] = index.route(*key, entries)
        if routes[key] is None:
            skipped += 1
            continue
        entry, watched, members = routes[key]
        value, slot = record.value, record.timestamp // width
        magnitude = None
        if value.tag == "numeric" and (watched or members):
            magnitude = value.value
            if value.unit is not None and value.unit != entry.canonical_unit:
                units = (value.unit, entry.canonical_unit)
                if units not in factors:
                    try:
                        factors[units] = unit_factor(*units)
                    except IncompatibleUnitsError:  # a foreign unit: not read
                        factors[units] = None
                factor = factors[units]
                magnitude = None if factor is None else magnitude * factor
        if watched:
            _accumulate(states, (*watched, slot), entry, value, magnitude, record.timestamp)
        if members and magnitude is not None:
            peaks = maxima.get(slot) or maxima.setdefault(slot, [None] * len(index.activities))
            for position in members:
                if peaks[position] is None or magnitude > peaks[position]:
                    peaks[position] = magnitude

    events = []
    for (home, term, slot), state in states.items():
        watchers = index.watchers[home, term]
        entry = watchers[0][3]
        if entry.value_type == "numeric":
            folded, samples, trues, booleans = state
            if not samples:  # ratio over boolean samples only
                folded = Fraction(100) * trues / booleans
            elif entry.aggregator not in ("max", "min", "sum"):  # mean, ratio, none
                folded = folded / samples
        for position, slo, constraint, _, bound in watchers:
            culprit = None
            if entry.value_type != "numeric":
                culprit = _first_offender(constraint, entry, state)
            elif bound is None:  # raises what checking this bound raises
                observed = TypedValue.numeric(folded, entry.canonical_unit)
                if check_constraint_against_value(constraint, observed, entry) != SATISFIED:
                    culprit = observed
            elif not _compare(constraint.comparator, folded, bound):
                culprit = TypedValue.numeric(folded, entry.canonical_unit)
            if culprit is not None:
                event = ViolationEvent(*window.bounds(slot), slo.id, constraint, culprit)
                events.append((slot, position, event))

    gaps = []
    e2e_entry = index.catalog.lookup(_E2E_METRIC, APPLICATION_CONCEPT)
    for slot in sorted(maxima):
        start, end = window.bounds(slot)
        gaps += [CoverageGap(start, end, activity_id,
                             f"no time samples for activity '{activity_id}' in this window")
                 for activity_id, peak in zip(index.activities, maxima[slot]) if peak is None]
        total = sum((peak for peak in maxima[slot] if peak is not None), Fraction(0))
        observed = TypedValue.numeric(total, e2e_entry.canonical_unit)
        events += [(slot, position, ViolationEvent(start, end, slo.id, constraint, observed))
                   for position, slo, constraint in index.e2e
                   if check_constraint_against_value(constraint, observed, e2e_entry) != SATISFIED]
    events.sort(key=lambda item: item[:2])
    return [event for _, _, event in events], gaps, seen, skipped


# -- windowed evaluation ----------------------------------------------------------


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
    cannot be read in the metric's canonical unit, are ignored; only
    :func:`monitor_document` counts those with an unknown target or metric.
    """
    if concept is None:
        if slo.target != APP_TARGET:
            raise ValueError("concept is required for SLOs on a service or resource")
        concept = APPLICATION_CONCEPT
    targets = {slo.target} if target_ids is None else target_ids
    index = _Index(catalog, {target: (slo.target, concept) for target in targets})
    for constraint in slo.constraints:
        index.watch(slo.target, concept, slo, constraint)
    events = _fold(index, records, _as_window(window))[0]
    return sorted(events, key=lambda e: (e.window_start, e.constraint.metric))


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
    index = _document_index(doc, catalog)
    index.watchers.clear()
    events, gaps, _, _ = _fold(index, records, _as_window(window))
    for gap in gaps if on_coverage_gap is not None else ():
        on_coverage_gap(gap)
    return events


def monitor_document(
    doc: SlaDocument,
    records: Iterable[TelemetryRecord],
    window: EvaluationWindow | int | None = None,
    catalog: Catalog | None = None,
) -> MonitorReport:
    """Run every SLO in the document against a telemetry set, in one pass.

    Returns the violations (ordered by window, then SLO, then metric), the
    coverage gaps found while summing end-to-end response time, and the
    number of records whose target is unknown or whose metric is unknown
    for the target's concept.
    """
    if catalog is None:
        catalog = load_builtin_catalog()
    events, gaps, seen, skipped = _fold(_document_index(doc, catalog), records, _as_window(window))
    if not seen:
        gaps.insert(0, CoverageGap(None, None, None, "no telemetry records"))
    counts = dict.fromkeys((slo.id for home, _, slo in owned_slos(doc) if home is not None), 0)
    events.sort(key=lambda e: (e.window_start, e.slo_id, e.constraint.metric))
    for event in events:
        counts[event.slo_id] += 1
    return MonitorReport(events, gaps, skipped, counts)
