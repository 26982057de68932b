"""Structural model of an SLA document.

Every entity here is a frozen dataclass.  Each carries its source span, a
checked named tuple, for error reporting; spans are excluded from the
entities' equality, so two documents that differ only in formatting compare
equal.

Construction is intentionally permissive: a document whose dates are
reversed or that lacks an application SLO still builds fine.  Semantic
problems are the validator's job; the only thing rejected outright is a
duplicate identifier, because the model's reference operations would become
ambiguous.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from datetime import date
from typing import Iterable, Iterator, Union

from .constraints import COMPARATORS, TypedValue
from .errors import DuplicateIdError, UnknownActivityError

__all__ = [
    "APP_TARGET",
    "PARTY_ROLES",
    "ACTIVITY_KINDS",
    "SERVICE_KINDS",
    "RESOURCE_KINDS",
    "KNOWN_APPLICATION_TYPES",
    "SourceSpan",
    "MetricConstraint",
    "Slo",
    "ConfigParam",
    "Party",
    "WorkflowActivity",
    "ServiceSpec",
    "InfraResourceSpec",
    "SlaDocument",
    "build_document",
    "resolve",
    "services_for_activity",
    "concept_of_target",
]

# Sentinel SLO target meaning "the application as a whole".
APP_TARGET = "app"

PARTY_ROLES = ("consumer", "provider", "third_party")

ACTIVITY_KINDS = (
    "capture_eoi",
    "examine_eoi_on_fly",
    "filter_eoi",
    "aggregate_eoi",
    "ingest_data",
    "small_scale_rt_analysis",
    "large_scale_rt_analysis",
    "large_scale_hist_analysis",
    "store_structured",
    "store_unstructured",
)

SERVICE_KINDS = (
    "sensing",
    "networking",
    "ingestion",
    "stream_processing",
    "batch_processing",
    "machine_learning",
    "database",
)

RESOURCE_KINDS = ("iot_device", "edge_resource", "cloud_resource")

# application_type is an open field; these are the conventional values.
KNOWN_APPLICATION_TYPES = frozenset(
    {"smart_home", "smart_health", "smart_city", "smart_energy", "smart_transport"}
)


class SourceSpan(namedtuple("SourceSpan", "start_line start_col end_line end_col")):
    """Half-open region of source text, 1-based lines and columns.

    A span equals, and hashes as, the plain tuple of its fields.  Every way
    to build one, ``_replace``, ``_make``, pickle and copy included, checks
    that it does not end before it starts.
    """

    __slots__ = ()

    def __new__(cls, start_line: int, start_col: int, end_line: int, end_col: int):
        if (start_line, start_col) > (end_line, end_col):
            raise ValueError("span start after end")
        return tuple.__new__(cls, (start_line, start_col, end_line, end_col))

    @classmethod
    def _make(cls, fields: Iterable) -> "SourceSpan":
        return cls(*fields)

    @property
    def start(self) -> tuple[int, int]:
        return self[:2]


# Span used for entities built programmatically rather than parsed.
_NO_SPAN = SourceSpan(1, 1, 1, 1)


@dataclass(frozen=True)
class MetricConstraint:
    """One comparison a metric must satisfy, e.g. ``latency <= 5 time_unit``."""

    metric: str
    comparator: str
    value: TypedValue
    span: SourceSpan = field(default=_NO_SPAN, compare=False, repr=False)

    def __post_init__(self):
        if self.comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator: {self.comparator!r}")

    @property
    def unit(self) -> str | None:
        return self.value.unit


@dataclass(frozen=True)
class Slo:
    """A named objective: a target plus one or more metric constraints."""

    id: str
    target: str
    constraints: tuple[MetricConstraint, ...]
    span: SourceSpan = field(default=_NO_SPAN, compare=False, repr=False)

    def __post_init__(self):
        if not self.constraints:
            raise ValueError(f"slo {self.id!r} has no constraints")


@dataclass(frozen=True)
class ConfigParam:
    """A configuration setting on a service or resource."""

    term: str
    value: TypedValue
    span: SourceSpan = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Party:
    id: str
    name: str
    role: str
    span: SourceSpan = field(default=_NO_SPAN, compare=False, repr=False)

    def __post_init__(self):
        if self.role not in PARTY_ROLES:
            raise ValueError(f"unknown party role: {self.role!r}")


@dataclass(frozen=True)
class WorkflowActivity:
    """A step of the application workflow and the services it relies on."""

    id: str
    kind: str
    required_services: tuple[str, ...]
    span: SourceSpan = field(default=_NO_SPAN, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in ACTIVITY_KINDS:
            raise ValueError(f"unknown activity kind: {self.kind!r}")
        if not self.required_services:
            raise ValueError(f"activity {self.id!r} requires no services")


@dataclass(frozen=True)
class ServiceSpec:
    """A service of some concept, deployed on one infrastructure resource."""

    id: str
    kind: str
    deployed_on: str
    slos: tuple[Slo, ...] = ()
    config: tuple[ConfigParam, ...] = ()
    span: SourceSpan = field(default=_NO_SPAN, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in SERVICE_KINDS:
            raise ValueError(f"unknown service kind: {self.kind!r}")


@dataclass(frozen=True)
class InfraResourceSpec:
    """A device, edge, or cloud resource services are deployed on."""

    id: str
    kind: str
    slos: tuple[Slo, ...] = ()
    config: tuple[ConfigParam, ...] = ()
    span: SourceSpan = field(default=_NO_SPAN, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in RESOURCE_KINDS:
            raise ValueError(f"unknown resource kind: {self.kind!r}")


Entity = Union[Party, Slo, WorkflowActivity, ServiceSpec, InfraResourceSpec]


@dataclass(frozen=True)
class SlaDocument:
    """A complete agreement.

    ``unattached_slos`` holds objectives whose target id resolves to
    nothing; they are preserved (and flagged by the validator) rather than
    dropped.
    """

    title: str
    id: str
    application_type: str
    start_date: date
    end_date: date
    parties: tuple[Party, ...] = ()
    app_slos: tuple[Slo, ...] = ()
    activities: tuple[WorkflowActivity, ...] = ()
    services: tuple[ServiceSpec, ...] = ()
    resources: tuple[InfraResourceSpec, ...] = ()
    unattached_slos: tuple[Slo, ...] = ()
    span: SourceSpan = field(default=_NO_SPAN, compare=False, repr=False)

    def all_slos(self) -> tuple[Slo, ...]:
        """Every objective in the document, in attachment order."""
        return tuple(slo for _, _, slo in owned_slos(self))


def build_document(
    *,
    title: str,
    doc_id: str,
    application_type: str,
    start_date: date,
    end_date: date,
    parties: tuple[Party, ...] = (),
    slos: tuple[Slo, ...] = (),
    activities: tuple[WorkflowActivity, ...] = (),
    services: tuple[ServiceSpec, ...] = (),
    resources: tuple[InfraResourceSpec, ...] = (),
    span: SourceSpan = _NO_SPAN,
) -> SlaDocument:
    """Assemble a document, attaching each SLO to its target.

    An SLO targeting ``app`` (or the document id itself) becomes an
    application SLO; one targeting a declared service or resource is
    attached to it; anything else lands in ``unattached_slos``.

    Raises :class:`DuplicateIdError` when any two identifiers (including
    the document id) coincide.  All other defects are left for the
    validator to report.
    """
    seen: set[str] = {doc_id}
    for item in (*parties, *slos, *activities, *services, *resources):
        if item.id in seen:
            raise DuplicateIdError(item.id)
        seen.add(item.id)

    app_slos: list[Slo] = []
    per_target: dict[str, list[Slo]] = {}
    unattached: list[Slo] = []
    owner_ids = {owner.id for owner in (*services, *resources)}
    for slo in slos:
        if slo.target in (APP_TARGET, doc_id):
            if slo.target == doc_id:
                slo = Slo(slo.id, APP_TARGET, slo.constraints, slo.span)
            app_slos.append(slo)
        elif slo.target in owner_ids:
            per_target.setdefault(slo.target, []).append(slo)
        else:
            unattached.append(slo)

    # an owner with SLOs is rebuilt once, by its own constructor, span and all
    services = tuple(type(s)(s.id, s.kind, s.deployed_on, s.slos + tuple(per_target[s.id]),
                             s.config, s.span) if s.id in per_target else s for s in services)
    resources = tuple(type(r)(r.id, r.kind, r.slos + tuple(per_target[r.id]), r.config, r.span)
                      if r.id in per_target else r for r in resources)

    return SlaDocument(
        title=title,
        id=doc_id,
        application_type=application_type,
        start_date=start_date,
        end_date=end_date,
        parties=tuple(parties),
        app_slos=tuple(app_slos),
        activities=tuple(activities),
        services=services,
        resources=resources,
        unattached_slos=tuple(unattached),
        span=span,
    )


def resolve(doc: SlaDocument, identifier: str) -> Entity | SlaDocument | None:
    """The entity an identifier names, the document for its own id, or None."""
    if identifier == doc.id:
        return doc
    for item in (*doc.parties, *doc.all_slos(), *doc.activities, *doc.services, *doc.resources):
        if item.id == identifier:
            return item
    return None


def services_for_activity(doc: SlaDocument, activity_id: str) -> list[ServiceSpec]:
    """Services an activity requires, in its declaration order.

    References that do not name a declared service are skipped here; the
    validator reports them.
    """
    activity = next((a for a in doc.activities if a.id == activity_id), None)
    if activity is None:
        raise UnknownActivityError(activity_id)
    by_id = {s.id: s for s in doc.services}
    return [by_id[ref] for ref in activity.required_services if ref in by_id]


def owned_slos(doc: SlaDocument) -> Iterator[tuple[str | None, str | None, Slo]]:
    """Each SLO as (owner id, owner concept, slo), in attachment order:
    ``app`` for application SLOs, None twice for unattached ones.

    Linear, unlike calling :func:`concept_of_target` per SLO.
    """
    yield from ((APP_TARGET, "application", slo) for slo in doc.app_slos)
    for owner in (*doc.services, *doc.resources):
        yield from ((owner.id, owner.kind, slo) for slo in owner.slos)
    yield from ((None, None, slo) for slo in doc.unattached_slos)


def concept_of_target(doc: SlaDocument, target: str) -> str | None:
    """Vocabulary concept an SLO target belongs to, or None if unresolved.

    ``app`` (and the document's own id) map to the application
    pseudo-concept; services and resources map to their kind.
    """
    if target in (APP_TARGET, doc.id):
        return "application"
    entity = resolve(doc, target)
    if isinstance(entity, (ServiceSpec, InfraResourceSpec)):
        return entity.kind
    return None
