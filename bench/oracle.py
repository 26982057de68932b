"""Independent expectations for everything the benchmark checks.

The monitor oracle folds the values a generator planted, window by window,
straight from the agreement plan.  The matcher oracle decides each verdict
on an explicit witness set of deliverable values instead of intervals.
Neither calls into iotsla; the only thing taken from the program is its
vocabulary, as plain (term, aggregator, direction) tables.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from gen import WINDOW, Constraint, Plan, Sample

COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "==": operator.eq}

# Metrics whose per-activity maximum makes up end-to-end response time.
TIME_FAMILY = frozenset(
    {"latency", "network_delay", "gateway_delay", "response_time", "data_freshness"})

E2E = "end_to_end_response_time"


def vocabulary_tables(catalog, app_terms) -> dict[str, dict[str, tuple[str, str, str]]]:
    """{concept: {term or alias: (term, aggregator, direction)}} from entries."""
    tables: dict[str, dict[str, tuple[str, str, str]]] = defaultdict(dict)
    for entry in [*catalog, *app_terms]:
        row = (entry.term, entry.aggregator, entry.direction)
        for name in (entry.term, *entry.aliases):
            tables[entry.concept].setdefault(name, row)
    return dict(tables)


@dataclass(frozen=True)
class MonitorExpectation:
    violations: tuple[tuple[str, int, str, Fraction], ...]  # sorted
    lines: int
    records: int
    skipped_values: int
    unknown_records: int
    used: int


def _fold(aggregator: str, values: list[Fraction]) -> Fraction:
    if aggregator == "max":
        return max(values)
    if aggregator == "min":
        return min(values)
    if aggregator == "sum":
        return sum(values, Fraction(0))
    return sum(values, Fraction(0)) / len(values)


def expect_monitor(plan: Plan, vocab, samples: list[Sample]) -> MonitorExpectation:
    """Per-window violations of every SLO in ``plan`` over ``samples``.

    A numeric SLO window folds its readable samples with the metric's
    aggregator; a ``ratio`` window with only boolean samples folds to the
    percentage of true ones.  End-to-end response time sums, per window,
    each activity's largest time-family sample among its services.
    """
    concept = {"app": "application", plan.id: "application"}
    concept.update({s.id: s.kind for s in plan.services})
    concept.update(dict(plan.resources))

    def home(target: str) -> str:
        return "app" if target == plan.id else target

    subscribers: dict[tuple[str, str], list[tuple[str, Constraint, str]]] = defaultdict(list)
    e2e: list[tuple[str, Constraint]] = []
    for slo in plan.slos:
        for c in slo.constraints:
            if c.metric == E2E:
                e2e.append((slo.id, c))
                continue
            term, aggregator, _ = vocab[concept[slo.target]][c.metric]
            subscribers[(slo.target, term)].append((slo.id, c, aggregator))
    activities_of: dict[str, list[int]] = defaultdict(list)
    services = {s.id for s in plan.services}
    for i, (_aid, _kind, refs) in enumerate(plan.activities):
        for ref in refs:
            if ref in services:
                activities_of[ref].append(i)

    groups: dict[tuple[str, str, int], tuple[Constraint, str, list, list]] = {}
    maxima: dict[int, dict[int, Fraction]] = defaultdict(dict)
    used: set[int] = set()
    skipped = unknown = 0
    for n, sample in enumerate(samples):
        if isinstance(sample.value, str):  # unreadable
            skipped += 1
            continue
        target = home(sample.target)
        row = vocab.get(concept.get(target), {}).get(sample.metric)
        if row is None:
            unknown += 1
            continue
        window = sample.ts // WINDOW
        for slo_id, c, aggregator in subscribers.get((target, row[0]), ()):
            group = groups.setdefault((slo_id, c.metric, window), (c, aggregator, [], []))
            if isinstance(sample.value, bool):
                group[3].append(n)
            elif isinstance(sample.value, Fraction):
                group[2].append(n)
        if e2e and isinstance(sample.value, Fraction) and row[0] in TIME_FAMILY \
                and target in activities_of:
            for activity in activities_of[target]:
                current = maxima[window].get(activity)
                if current is None or sample.value > current:
                    maxima[window][activity] = sample.value
            used.add(n)

    violations = []
    for (slo_id, metric, window), (c, aggregator, numerics, booleans) in groups.items():
        if numerics:
            observed = _fold(aggregator, [samples[n].value for n in numerics])
            used.update(numerics)
        elif aggregator == "ratio" and booleans:
            observed = Fraction(100 * sum(samples[n].value for n in booleans), len(booleans))
            used.update(booleans)
        else:
            continue
        if not COMPARE[c.comparator](observed, c.value):
            violations.append((slo_id, window * WINDOW, metric, observed))
    for window, per_activity in maxima.items():
        total = sum(per_activity.values(), Fraction(0))
        for slo_id, c in e2e:
            if not COMPARE[c.comparator](total, c.value):
                violations.append((slo_id, window * WINDOW, c.metric, total))
    return MonitorExpectation(
        violations=tuple(sorted(violations)), lines=len(samples),
        records=len(samples) - skipped, skipped_values=skipped,
        unknown_records=unknown, used=len(used))


# -- matcher -------------------------------------------------------------------

SATISFIED, VIOLATED, UNSPECIFIED = "satisfied", "violated", "unspecified"


def _witnesses(direction: str, bound: Fraction, x: Fraction) -> set[Fraction]:
    """Values a provider guaranteeing ``bound`` might deliver.

    A ceiling (lower_is_better) delivers anything in [0, bound]; a floor
    delivers anything from ``bound`` up, so a far point stands in for
    arbitrarily large values.  Each comparator fails somewhere in the range
    iff it fails at one of these points.
    """
    if direction == "lower_is_better":
        return {Fraction(0), bound / 2, bound}
    if direction == "higher_is_better":
        return {bound, bound + 1, (abs(x) + bound + 1) * 10**9}
    return {bound}


def verdict(direction: str, comparator: str, x: Fraction, bound: Fraction | None) -> str:
    if bound is None:
        return UNSPECIFIED
    ok = all(COMPARE[comparator](w, x) for w in _witnesses(direction, bound, x))
    return SATISFIED if ok else VIOLATED


def expect_ranking(requirements: list[Constraint], offers, directions: dict[str, str],
                   weights: dict[str, Fraction] | None):
    """[(provider_id, rank, score, verdicts)] best first, competition ranks."""
    rows = []
    for provider_id, capabilities in offers:
        verdicts = tuple(verdict(directions[c.metric], c.comparator, c.value,
                                 capabilities.get(c.metric)) for c in requirements)
        total = won = Fraction(0)
        for c, v in zip(requirements, verdicts):
            weight = (weights or {}).get(c.metric, Fraction(1))
            total += weight
            won += weight if v == SATISFIED else 0
        rows.append((provider_id, won / total if total else Fraction(1), verdicts))
    rows.sort(key=lambda row: (-row[1], row[0]))
    ranked = []
    for position, (provider_id, score, verdicts) in enumerate(rows, start=1):
        rank = ranked[-1][1] if ranked and ranked[-1][2] == score else position
        ranked.append((provider_id, rank, score, verdicts))
    return ranked
