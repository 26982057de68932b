"""Match SLA requirements against provider capability offers.

An offer states, per metric, the bound the provider guarantees.  The
direction of the bound comes from the vocabulary: for a lower_is_better
metric like latency the figure is an upper bound (delivered values range
from 0 up to it), for higher_is_better like availability a lower bound
(the provider may overdeliver without limit), and for everything else the
exact delivered value.

A constraint counts as satisfied only when it would hold for every value
the provider might deliver under that reading.  A metric the offer does
not mention is ``unspecified``, which scores the same as violated: absence
of a guarantee is not a guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .constraints import (
    SATISFIED,
    UNSPECIFIED,
    VIOLATED,
    TypedValue,
    _compare,
    canonical_bound,
    check_constraint_against_value,
    decimal_str_or_fraction,
    to_canonical,
    type_mismatch,
)
from .errors import SchemaViolationError, UnitMismatchError
from .jsonio import (
    _objects, _read_choice, _read_typed_value, _want_object, _want_str, read_json,
)
from .model import MetricConstraint
from .vocabulary import Catalog, VocabularyEntry, VALID_CONCEPTS

__all__ = [
    "ProviderOffer",
    "MatchReport",
    "satisfies_capability",
    "score_offer",
    "rank_offers",
    "load_offer",
    "render_report_table",
]


@dataclass(frozen=True)
class ProviderOffer:
    """A provider's guaranteed bounds for one concept's metrics."""

    provider_id: str
    concept: str
    capabilities: Mapping[str, TypedValue]

    def __post_init__(self):
        if self.concept not in VALID_CONCEPTS:
            raise ValueError(f"unknown concept: {self.concept!r}")


@dataclass(frozen=True)
class MatchReport:
    """Outcome of evaluating one offer against the requirements."""

    provider_id: str
    verdicts: tuple[str, ...]  # aligned with the requirements list
    score: Fraction
    rank: int

    def to_dict(self) -> dict:
        return {
            "provider_id": self.provider_id,
            "rank": self.rank,
            "score": decimal_str_or_fraction(self.score),
            "verdicts": list(self.verdicts),
        }


_ZERO = Fraction(0)


def _guaranteed(comparator: str, bound: Fraction, threshold: Fraction,
                entry: VocabularyEntry) -> bool:
    """Does every value the provider may deliver under ``bound`` satisfy
    ``value <comparator> threshold``?

    Metric magnitudes in this model are non-negative (the source grammar
    cannot express a sign), so a lower_is_better bound delivers [0, bound],
    a higher_is_better one [bound, unbounded), and any other exactly the
    bound.  The deciding edge decides: the lowest value ``lo`` for ``>`` and
    ``>=``, else the highest, which must be bounded, and for ``==`` must
    equal ``lo``.
    """
    lo = _ZERO if entry.direction == "lower_is_better" else bound
    if comparator in (">", ">="):
        return _compare(comparator, lo, threshold)
    return (entry.direction != "higher_is_better" and (comparator != "==" or lo == bound)
            and _compare(comparator, bound, threshold))


def _resolve(
    constraint: MetricConstraint, concept: str, catalog: Catalog
) -> tuple[VocabularyEntry, tuple[str, ...], Fraction | None]:
    """(entry, capability keys, canonical bound) of one requirement.

    The keys are the names an offer may state the term under, in the order
    they are tried: as written, the term, then its aliases.  A requirement
    that does not fit its term raises, as :func:`canonical_bound` does.
    """
    entry = catalog.lookup(constraint.metric, concept)
    if entry is None:
        raise ValueError(f"metric {constraint.metric!r} is not defined for {concept!r}")
    keys = tuple(dict.fromkeys((constraint.metric, entry.term, *entry.aliases)))
    return entry, keys, canonical_bound(constraint, entry)


def satisfies_capability(constraint: MetricConstraint, offer: ProviderOffer, catalog: Catalog,
                         resolved: tuple | None = None) -> str:
    """Verdict for one constraint against one offer.

    Returns ``unspecified`` when the offer does not mention the metric;
    otherwise ``satisfied`` iff the guaranteed bound implies the constraint
    for every deliverable value.  A constraint that does not fit its term
    raises what :func:`canonical_bound` raises, whatever the offer states,
    and a capability that does not fit it raises :class:`TypeMismatchError`,
    as :func:`check_constraint_against_value` does.  ``resolved`` is the
    constraint's :func:`_resolve` for the offer's concept, when the caller
    has it.
    """
    entry, keys, threshold = resolved or _resolve(constraint, offer.concept, catalog)
    capability = next((offer.capabilities[k] for k in keys if k in offer.capabilities), None)
    if capability is None:
        return UNSPECIFIED
    if threshold is None or capability.tag != "numeric":
        # a non-numeric capability is delivered as advertised
        return check_constraint_against_value(constraint, capability, entry)
    bound = to_canonical(capability, entry, "offer unit")
    return SATISFIED if _guaranteed(constraint.comparator, bound, threshold, entry) else VIOLATED


def _weights_of(
    requirements: list[MetricConstraint],
    entries: list[VocabularyEntry],
    weights: Mapping[str, Fraction | int] | None,
    concept: str,
    catalog: Catalog,
) -> list[int]:
    """Each requirement's weight, matched by term: a weight given under a
    term or any of its aliases weighs every requirement on that term,
    however it is spelt.  ``entries`` are the requirements' terms.  Terms
    with no weight weigh 1.  The weights come back as integers over their
    least common denominator."""
    by_term: dict[str, Fraction | int] = {}
    for key, weight in (weights or {}).items():
        entry = catalog.lookup(key, concept)
        by_term[entry.term if entry else key] = weight
    result = []
    for constraint, entry in zip(requirements, entries):
        weight = Fraction(by_term.get(entry.term, 1))
        if weight <= 0:
            raise ValueError(f"weight for {constraint.metric!r} must be positive")
        result.append(weight)
    common = math.lcm(*(w.denominator for w in result))
    return [w.numerator * (common // w.denominator) for w in result]


def _score(weights: list[int], verdicts: Iterable[str]) -> Fraction:
    total = sum(weights)
    if total == 0:
        return Fraction(1)
    return Fraction(sum(w for w, v in zip(weights, verdicts) if v == SATISFIED), total)


def score_offer(
    requirements: Iterable[MetricConstraint],
    offer: ProviderOffer,
    weights: Mapping[str, Fraction | int] | None,
    catalog: Catalog,
) -> Fraction:
    """Weighted fraction of satisfied requirements, in [0, 1].

    Weights are keyed by metric term or alias; metrics missing from
    ``weights`` weigh 1.  With no requirements at all there is nothing to
    fail, so the score is 1.
    """
    return rank_offers(list(requirements), [offer], weights, catalog)[0].score


def rank_offers(
    requirements: list[MetricConstraint],
    offers: Iterable[ProviderOffer],
    weights: Mapping[str, Fraction | int] | None,
    catalog: Catalog,
) -> list[MatchReport]:
    """Evaluate and rank all offers.

    Each requirement is resolved once, and one that does not fit its term
    raises, whatever the offers state; with no offers nothing is resolved.
    Sorted by descending score, ties broken by ascending provider_id.
    Ranks use competition numbering: equal scores share a rank and the
    next distinct score skips past them (1, 2, 2, 4).
    """
    offers = list(offers)
    concepts = {o.concept for o in offers}
    if len(concepts) > 1:
        raise ValueError(
            f"offers span multiple concepts: {', '.join(sorted(concepts))}"
        )
    if offers:
        concept = offers[0].concept
        resolved = [_resolve(c, concept, catalog) for c in requirements]
        weighed = _weights_of(requirements, [r[0] for r in resolved], weights, concept, catalog)
    scored: list[tuple[ProviderOffer, tuple[str, ...], Fraction]] = []
    for offer in offers:
        verdicts = tuple(
            satisfies_capability(c, offer, catalog, r) for c, r in zip(requirements, resolved)
        )
        scored.append((offer, verdicts, _score(weighed, verdicts)))

    scored.sort(key=lambda item: (-item[2], item[0].provider_id))
    reports: list[MatchReport] = []
    for position, (offer, verdicts, score) in enumerate(scored):
        if position > 0 and score == scored[position - 1][2]:
            rank = reports[-1].rank
        else:
            rank = position + 1
        reports.append(MatchReport(offer.provider_id, verdicts, score, rank))
    return reports


def load_offer(text: str | bytes, catalog: Catalog) -> ProviderOffer:
    """Parse one ``.offer.json`` document and check it against the catalog.

    Format: ``{"provider_id", "concept", "capabilities": [{"metric",
    "value", "unit"?}, ...]}``.  Raises :class:`SchemaViolationError` on
    structural problems, including capability terms the catalog does not
    define for the offer's concept and values that do not fit their term's
    value type or unit family.
    """
    data = _want_object(read_json(text), "", {"provider_id", "concept", "capabilities"})
    provider_id = _want_str(data, "provider_id", "")
    if not provider_id:
        raise SchemaViolationError("/provider_id", "must be a non-empty string")
    concept = _read_choice(data, "concept", "", VALID_CONCEPTS)

    capabilities: dict[str, TypedValue] = {}
    for pointer, item in _objects(data, "capabilities", "", {"metric", "value", "unit"}):
        metric = _want_str(item, "metric", pointer)
        entry = catalog.lookup(metric, concept)
        if entry is None:
            raise SchemaViolationError(
                f"{pointer}/metric", f"{metric!r} is not defined for {concept!r}"
            )
        if entry.term in capabilities:
            raise SchemaViolationError(
                f"{pointer}/metric", f"duplicate capability for {entry.term!r}"
            )
        value = _read_typed_value(item, pointer)
        # a capability states a value, so only the value's kind can misfit
        reason = type_mismatch(entry, metric, "==", value)
        if reason is not None:
            raise SchemaViolationError(f"{pointer}/value", reason)
        if value.tag == "numeric":
            try:
                to_canonical(value, entry, "offer unit")
            except UnitMismatchError as exc:
                raise SchemaViolationError(f"{pointer}/unit", str(exc)) from None
        capabilities[entry.term] = value
    return ProviderOffer(provider_id, concept, capabilities)


def render_report_table(
    reports: list[MatchReport], requirements: list[MetricConstraint]
) -> str:
    """Aligned text table of a ranking."""
    headers = ["rank", "provider", "score"] + [c.metric for c in requirements]
    rows = [
        [str(r.rank), r.provider_id, decimal_str_or_fraction(r.score), *r.verdicts]
        for r in reports
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))).rstrip(),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
