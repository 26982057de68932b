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
each requiring activity's per-window maximum.  In a document, a numeric
application constraint whose term resolves, under any alias, to
end-to-end response time is checked against the sum of those maxima,
written as the window's one sample of that constraint; any other term is
sampled.  Constraints are checked afterwards, in one loop, once per window
with samples: O(records + windows × constraints).  The accumulators merge
in any order, so results do not depend on record order.

Records keep exact Fractions, and the fold reads each as its integer
(numerator, denominator) pair.  Samples, bounds and window aggregates are
held as such pairs with positive denominators: sums add over the least
common denominator, a mean multiplies the denominator by the sample
count, an end-to-end figure sums the activities' maxima the same way,
and a check cross-multiplies, so no window divides or compares a
Fraction.  A Fraction is built only for a reported value, equal to the
one Fraction arithmetic gives, or to check a bound that is not in
canonical units.

Telemetry is read one line at a time, by one compiled pattern: every
record, numeric, boolean or text, comes from one match of its line.  A
line the pattern refuses is blank, has a framing error, or has an
unreadable value.

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

import re
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable

from .constraints import (
    COMPARABLE_TAGS, DECIMAL_RE, SATISFIED, TypedValue, _compare,
    canonical_bound, check_constraint_against_value, exact_number, unit_factor,
)
from .errors import DomainError, EmptyWindowError, IncompatibleUnitsError, TelemetryFormatError
from .jsonio import _constraint_dict, _value_fields
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


class TelemetryRecord(namedtuple("TelemetryRecord", "timestamp target_id metric value")):
    """One measured sample, ``(timestamp, target_id, metric, value)``."""

    __slots__ = ()

    def __new__(cls, timestamp: int, target_id: str, metric: str, value: TypedValue):
        if timestamp < 0:
            raise ValueError("timestamp must be non-negative")
        return tuple.__new__(cls, (timestamp, target_id, metric, value))

    @classmethod
    def _make(cls, fields: Iterable) -> "TelemetryRecord":
        return cls(*fields)


@dataclass(frozen=True)
class EvaluationWindow:
    """Tumbling window specification, aligned at t=0."""

    width: int = 60

    def __post_init__(self):
        if not isinstance(self.width, int) or isinstance(self.width, bool):
            raise ValueError(f"window width must be an int, not {type(self.width).__name__}")
        if self.width <= 0:
            raise ValueError("window width must be positive")

    def index_of(self, timestamp: int) -> int:
        return timestamp // self.width

    def bounds(self, index: int) -> tuple[int, int]:
        return (index * self.width, (index + 1) * self.width)


class ViolationEvent(namedtuple(
        "ViolationEvent", "window_start window_end slo_id constraint observed verdict",
        defaults=("violated",))):
    """An SLO constraint breached within one window."""

    __slots__ = ()

    def to_dict(self) -> dict:
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


class WindowAggregate(namedtuple("WindowAggregate", "window_start window_end value")):
    """A folded value for one window (used by availability_ratio)."""

    __slots__ = ()


class CoverageGap(namedtuple("CoverageGap", "window_start window_end activity_id note")):
    """Telemetry expected but absent; the window and activity may be None."""

    __slots__ = ()


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

# A record line, ``ts<TAB>target<TAB>metric<TAB>value`` with its line break
# gone.  The value is a numeral with an optional `` unit``, or one word:
# ``true``, ``false`` or text.  No group holds a tab, and neither the unit
# nor the word a space, so every line the pattern takes has the four
# fields and the value of the grammar.  The negated classes match a line
# break or "\r" left inside a line, which the line keeps.
_RECORD_LINE_RE = re.compile(
    r"(-?[0-9]+)\t([^\t]+)\t([^\t]+)\t(?:(%s)(?: ([^ \t]+))?|([^ \t]+))" % DECIMAL_RE.pattern)

_BOOLEANS = {"true": TypedValue.boolean(True), "false": TypedValue.boolean(False)}


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
        lines = (line.rstrip("\n").rstrip("\r") for line in source)
    records: list[TelemetryRecord] = []
    skipped = 0
    record_line = _RECORD_LINE_RE.fullmatch
    for line_no, line in enumerate(lines, start=1):
        match = record_line(line)
        if match is None:
            if line.strip():
                _check_framing(line, line_no)
                skipped += 1
            continue
        ts_text, target_id, metric, numeral, unit, word = match.groups()
        try:
            timestamp = int(ts_text)
        except ValueError:  # more digits than int() takes
            timestamp = -1
        if timestamp < 0:
            _check_framing(line, line_no)  # raises: the timestamp is bad or negative
        if word is None:
            try:
                value = TypedValue("numeric", exact_number(numeral), unit)
            except ValueError:  # more digits than exact_number takes
                skipped += 1
                continue
        else:
            value = _BOOLEANS[word] if word in _BOOLEANS else TypedValue.text(word)
        records.append(TelemetryRecord(timestamp, target_id, metric, value))
    return records, skipped


def _check_framing(line: str, line_no: int) -> None:
    """Raise the :class:`TelemetryFormatError` of a non-blank ``line``, if
    it has one: a field count other than 4, then a timestamp that is not
    ASCII digits with an optional "-", int() refuses or is negative, then
    an empty target or metric.  A line without one has an unreadable value.
    """
    fields = line.split("\t")
    if len(fields) != 4:
        raise TelemetryFormatError(
            line_no, f"expected 4 tab-separated fields, found {len(fields)}"
        )
    ts_text, target_id, metric, _ = fields
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


# -- the fold -------------------------------------------------------------------


def _as_window(window: EvaluationWindow | int | None) -> EvaluationWindow:
    # EvaluationWindow refuses a width that is not a positive int
    return window if isinstance(window, EvaluationWindow) else EvaluationWindow(
        60 if window is None else window)


# The watchers' key, in a document index, for the app home's numeric
# constraints on end-to-end response time: no record routes to it, as every
# catalog term is a name.
_SUMMED = (APP_TARGET, None)


class _Index:
    """Routes for records and the constraints watching them, built once.

    ``homes``: record target -> (home target, concept), one home for ``app``
    and the document id; ``watchers``: (home, term) -> [(position, slo,
    constraint, entry, bound)] in declaration order, where ``position``
    numbers every constraint of the attached SLOs in ``owned`` and
    ``bound`` is :func:`canonical_bound`'s as (numerator, denominator).
    Given ``doc``, the app home's numeric constraints whose term, under any
    alias, is end-to-end response time are filed under ``_SUMMED``, to be
    checked against the sum of the activities' maxima; any other index
    samples the term like any other.
    ``members``: service -> positions of the activities requiring it,
    filled only for ``_SUMMED``.
    """

    def __init__(self, catalog: Catalog, homes: dict[str, tuple[str, str]],
                 owned: Iterable[tuple[str | None, str | None, Slo]],
                 doc: SlaDocument | None = None):
        self.catalog, self.homes = catalog, homes
        self.watchers: dict[tuple[str, str | None], list] = {}
        constraints = ((home, concept, slo, constraint) for home, concept, slo in owned
                       if concept is not None  # None: an unattached SLO
                       for constraint in slo.constraints)
        for position, (home, concept, slo, constraint) in enumerate(constraints):
            entry = catalog.lookup(constraint.metric, concept)
            if entry is None:
                continue
            key = (home, entry.term)
            if (doc is not None and key == (APP_TARGET, _E2E_METRIC)
                    and entry.value_type == "numeric"):
                key = _SUMMED
            bound = canonical_bound(constraint, entry)
            if bound is not None:
                bound = bound.as_integer_ratio()
            self.watchers.setdefault(key, []).append((position, slo, constraint, entry, bound))
        self.activities: tuple[str, ...] = ()
        self.members: dict[str, list[int]] = {}
        if _SUMMED in self.watchers:
            self.activities = tuple(a.id for a in doc.activities)
            declared = {s.id for s in doc.services}
            for position, activity in enumerate(doc.activities):
                for ref in dict.fromkeys(activity.required_services):
                    if ref in declared:
                        self.members.setdefault(ref, []).append(position)

    def route(self, target_id: str, metric: str):
        """(entry, watched key or None, activity positions); None if unknown."""
        if target_id not in self.homes:
            return None
        home, concept = self.homes[target_id]
        entry = self.catalog.lookup(metric, concept)
        if entry is None:
            return None
        watched = (home, entry.term) if (home, entry.term) in self.watchers else None
        members = self.members.get(target_id, ()) if entry.term in LATENCY_FAMILY else ()
        return entry, watched, members


def _document_index(doc: SlaDocument, catalog: Catalog) -> _Index:
    homes = {r.id: (r.id, r.kind) for r in doc.resources}
    homes.update((s.id, (s.id, s.kind)) for s in doc.services)
    homes[doc.id] = homes[APP_TARGET] = (APP_TARGET, APPLICATION_CONCEPT)
    return _Index(catalog, homes, owned_slos(doc), doc)


def _accumulate(states: dict, key: tuple, entry: VocabularyEntry, value: TypedValue,
                sample: tuple[int, int] | None, timestamp: int) -> None:
    """Fold one sample into its (home, term, window) state.

    For numeric metrics the state is ``[num, den, samples, trues,
    booleans]``: num/den, with den > 0 and not reduced, is the max, min or
    sum of the numeric samples, each given as ``sample`` = (num, den) in
    canonical units (booleans are counted only for ``ratio``).  Otherwise
    it maps each comparable value to its earliest timestamp.
    """
    if entry.value_type != "numeric":
        if value.tag in COMPARABLE_TAGS[entry.value_type]:
            firsts = states.setdefault(key, {})
            firsts[value] = min(timestamp, firsts.get(value, timestamp))
    elif sample is not None:
        num, den = sample
        state = states.setdefault(key, [num, den, 0, 0, 0])
        aggregator = entry.aggregator
        if not state[2] or (aggregator == "max" and num * state[1] > state[0] * den) or (
                aggregator == "min" and num * state[1] < state[0] * den):
            state[0], state[1] = num, den
        elif aggregator not in ("max", "min"):
            if den == state[1]:
                state[0] += num
            else:
                state[0], state[1] = _plus(state[0], state[1], num, den)
        state[2] += 1
    elif value.tag == "boolean" and entry.aggregator == "ratio":
        state = states.setdefault(key, [0, 1, 0, 0, 0])
        state[3] += value.value
        state[4] += 1


def _plus(num: int, den: int, other_num: int, other_den: int) -> tuple[int, int]:
    """num/den + other_num/other_den as (num, den), over the least common
    denominator so that it stays small."""
    if den == other_den:
        return num + other_num, den
    common = lcm(den, other_den)
    return num * (common // den) + other_num * (common // other_den), common


def _first_offender(constraint: MetricConstraint, entry: VocabularyEntry,
                    firsts: dict[TypedValue, int]) -> TypedValue | None:
    """The earliest sample breaking ``constraint``, ties broken by value."""
    offending = [v for v in firsts
                 if check_constraint_against_value(constraint, v, entry) != SATISFIED]
    return min(offending, key=lambda v: (firsts[v], str(v.value), v.tag), default=None)


def _breach(constraint: MetricConstraint, entry: VocabularyEntry,
            bound: tuple[int, int], num: int, den: int) -> TypedValue | None:
    """num/den, a window's figure in ``entry``'s canonical unit, as the
    observed value when it breaks ``constraint``, else None.  num *
    bound_den against bound_num * den compares it with the ``bound`` from
    :func:`canonical_bound` exactly in ints.
    """
    if _compare(constraint.comparator, num * bound[1], bound[0] * den):
        return None
    return TypedValue.numeric(Fraction(num, den), entry.canonical_unit)


def _fold(index: _Index, records: Iterable[TelemetryRecord], window: EvaluationWindow):
    """Read the records once, then check each watcher once per window.

    Returns (events by window then position, coverage gaps, records,
    records with an unknown target or a metric unknown for its concept).
    """
    routes: dict[tuple[str, str], tuple | None] = {}  # (target id, metric) -> route
    # (unit, canonical unit) -> factor as (num, den)
    factors: dict[tuple[str, str], tuple[int, int] | None] = {}
    states: dict[tuple[str, str | None, int], list | dict] = {}  # (home, term, window) -> state
    # window -> per-activity maximum as (num, den)
    maxima: dict[int, list[tuple[int, int] | None]] = {}
    seen = skipped = 0
    width = window.width
    for record in records:
        seen += 1
        key = (record.target_id, record.metric)
        route = routes.get(key, False)
        if route is False:
            route = routes[key] = index.route(*key)
        if route is None:
            skipped += 1
            continue
        entry, watched, members = route
        value, slot = record.value, record.timestamp // width
        sample = None  # the value in canonical units as (num, den), den > 0
        if value.tag == "numeric" and (watched or members):
            sample = value.value.as_integer_ratio()
            if value.unit is not None and value.unit != entry.canonical_unit:
                units = (value.unit, entry.canonical_unit)
                if units not in factors:
                    try:
                        factors[units] = unit_factor(*units).as_integer_ratio()
                    except IncompatibleUnitsError:  # a foreign unit: not read
                        factors[units] = None
                factor = factors[units]
                sample = None if factor is None else (
                    sample[0] * factor[0], sample[1] * factor[1])
        if watched:
            _accumulate(states, (*watched, slot), entry, value, sample, record.timestamp)
        if members and sample is not None:
            num, den = sample
            peaks = maxima.get(slot) or maxima.setdefault(slot, [None] * len(index.activities))
            for position in members:
                peak = peaks[position]
                if peak is None or num * peak[1] > peak[0] * den:
                    peaks[position] = sample

    # End to end, a window's figure is the sum of the activities' maxima,
    # num/den again, checked as the one sample of the _SUMMED key.
    gaps = []
    for slot in sorted(maxima):
        start, end = window.bounds(slot)
        gaps += [CoverageGap(start, end, activity_id,
                             f"no time samples for activity '{activity_id}' in this window")
                 for activity_id, peak in zip(index.activities, maxima[slot]) if peak is None]
        num, den = 0, 1
        for peak in maxima[slot]:
            if peak is not None:
                num, den = _plus(num, den, *peak)
        states[(*_SUMMED, slot)] = [num, den, 1, 0, 0]

    # A numeric window's aggregate is num/den with den > 0, checked by _breach.
    events = []
    for (home, term, slot), state in states.items():
        watchers = index.watchers[home, term]
        entry = watchers[0][3]
        if entry.value_type == "numeric":
            num, den, samples, trues, booleans = state
            if not samples:  # ratio over boolean samples only
                num, den = 100 * trues, booleans
            elif entry.aggregator not in ("max", "min", "sum"):  # mean, ratio, none
                den *= samples
        for position, slo, constraint, _, bound in watchers:
            culprit = (_breach(constraint, entry, bound, num, den)
                       if entry.value_type == "numeric"
                       else _first_offender(constraint, entry, state))
            if culprit is not None:
                event = ViolationEvent(*window.bounds(slot), slo.id, constraint, culprit)
                events.append((slot, position, event))
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
    index = _Index(catalog, {target: (slo.target, concept) for target in targets},
                   [(slo.target, concept, slo)])
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
    """Check application ``end_to_end_response_time`` SLOs, under the term
    or any alias the catalog gives it.

    Per window, the end-to-end figure is the sum over activities (in
    declaration order) of the maximum time-family sample among that
    activity's services.  An activity with no samples in a window
    contributes 0 and reports a coverage gap.  Windows with no time-family
    samples anywhere are skipped entirely.  Only a numeric term is summed;
    :func:`monitor_document` samples any other.
    """
    index = _document_index(doc, catalog)
    index.watchers = {key: w for key, w in index.watchers.items() if key == _SUMMED}
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
