"""JSON interchange form of an SLA document.

The layout mirrors the document structure::

    {
      "title": ..., "id": ..., "application_type": ...,
      "start_date": "YYYY-MM-DD", "end_date": "YYYY-MM-DD",
      "parties":    [{"id", "name", "role"}, ...],
      "app_slos":   [{"id", "constraints": [...]}, ...],
      "activities": [{"id", "kind", "required_services": [...]}, ...],
      "services":   [{"id", "kind", "deployed_on", "slos": [...], "config": [...]}, ...],
      "resources":  [{"id", "kind", "slos": [...], "config": [...]}, ...]
    }

Constraints are ``{"metric", "comparator", "value", "unit"?}`` and config
entries ``{"term", "value", "unit"?}``.  A document holding objectives
whose target resolves to nothing also carries an ``"unattached_slos"``
array of ``{"id", "target", "constraints"}`` so nothing is lost.

Numbers are written with their exact decimal digits and read back as
Fractions, so values like 99.95 survive any number of round trips
unchanged.  Both directions go through :mod:`iotsla.jsonio`, the package's
one JSON writer and reader.  A unit must be a non-keyword identifier, as in
the text form, so every document read here serializes to text that parses
back to it.
"""

from __future__ import annotations

from datetime import date
from typing import Any

from .constraints import COMPARATORS, _is_name
from .errors import DuplicateIdError, SchemaViolationError
from .model import (
    ACTIVITY_KINDS,
    APP_TARGET,
    PARTY_ROLES,
    RESOURCE_KINDS,
    SERVICE_KINDS,
    ConfigParam,
    InfraResourceSpec,
    MetricConstraint,
    Party,
    ServiceSpec,
    SlaDocument,
    Slo,
    WorkflowActivity,
    build_document,
)
from .jsonio import (
    _constraint_dict, _objects, _read_choice, _read_typed_value, _value_fields, _want_ident,
    _want_list, _want_object, _want_str, emit_json, read_json,
)
from .parser import _DATE_RE

__all__ = ["to_interchange", "from_interchange"]


# -- writing -----------------------------------------------------------------

def _slo_dict(slo: Slo, with_target: bool = False) -> dict:
    data: dict[str, Any] = {"id": slo.id}
    if with_target:
        data["target"] = slo.target
    data["constraints"] = [_constraint_dict(c) for c in slo.constraints]
    return data


def _config_dict(param: ConfigParam) -> dict:
    return {"term": param.term, **_value_fields(param.value)}


def _owner_dict(owner: ServiceSpec | InfraResourceSpec) -> dict:
    data: dict[str, Any] = {"id": owner.id, "kind": owner.kind}
    if isinstance(owner, ServiceSpec):
        data["deployed_on"] = owner.deployed_on
    data["slos"] = [_slo_dict(slo) for slo in owner.slos]
    data["config"] = [_config_dict(c) for c in owner.config]
    return data


def to_interchange(doc: SlaDocument) -> str:
    """Render a document as interchange JSON (UTF-8 text)."""
    data: dict[str, Any] = {
        "title": doc.title,
        "id": doc.id,
        "application_type": doc.application_type,
        "start_date": doc.start_date,
        "end_date": doc.end_date,
        "parties": [
            {"id": p.id, "name": p.name, "role": p.role} for p in doc.parties
        ],
        "app_slos": [_slo_dict(s) for s in doc.app_slos],
        "activities": [
            {"id": a.id, "kind": a.kind, "required_services": list(a.required_services)}
            for a in doc.activities
        ],
        "services": [_owner_dict(s) for s in doc.services],
        "resources": [_owner_dict(r) for r in doc.resources],
    }
    if doc.unattached_slos:
        data["unattached_slos"] = [
            _slo_dict(s, with_target=True) for s in doc.unattached_slos
        ]
    return emit_json(data) + "\n"


# -- reading -----------------------------------------------------------------


def _want_date(data: dict, key: str, pointer: str) -> date:
    raw = _want_str(data, key, pointer)
    # The text parser's date token first: ``date.fromisoformat`` alone also
    # takes ``20260101`` and ISO week dates on Python 3.11+.
    if _DATE_RE.fullmatch(raw):
        try:
            return date.fromisoformat(raw)
        except ValueError:
            pass
    raise SchemaViolationError(f"{pointer}/{key}", "must be a YYYY-MM-DD date")


_SLO_KEYS = {"id", "constraints"}


def _read_slo(pointer: str, data: dict, target: str | None) -> Slo:
    """The SLO ``data`` on ``target``; a target of None is read from it."""
    slo_id = _want_ident(data, "id", pointer)
    if target is None:
        target = _want_ident(data, "target", pointer)
    constraints = tuple(
        MetricConstraint(_want_ident(item, "metric", at),
                         _read_choice(item, "comparator", at, COMPARATORS),
                         _read_typed_value(item, at))
        for at, item in _objects(data, "constraints", pointer,
                                 {"metric", "comparator", "value", "unit"})
    )
    if not constraints:
        raise SchemaViolationError(f"{pointer}/constraints", "must not be empty")
    return Slo(slo_id, target, constraints)


def _read_owners(data: dict, key: str, cls: type, kinds: tuple[str, ...],
                 slos: list[Slo]) -> list:
    """The services or resources under ``key``, their SLOs appended to
    ``slos``; a service alone is ``deployed_on`` a resource."""
    placed = cls is ServiceSpec
    allowed = {"id", "kind", "slos", "config"} | ({"deployed_on"} if placed else set())
    owners = []
    for pointer, obj in _objects(data, key, "", allowed):
        owner_id = _want_ident(obj, "id", pointer)
        slos.extend(_read_slo(at, item, owner_id)
                    for at, item in _objects(obj, "slos", pointer, _SLO_KEYS, default=[]))
        kind = _read_choice(obj, "kind", pointer, kinds)
        deployed_on = (_want_ident(obj, "deployed_on", pointer),) if placed else ()
        owners.append(cls(owner_id, kind, *deployed_on, config=tuple(
            ConfigParam(_want_ident(item, "term", at), _read_typed_value(item, at))
            for at, item in _objects(obj, "config", pointer, {"term", "value", "unit"},
                                     default=[])
        )))
    return owners


def from_interchange(text: str | bytes) -> SlaDocument:
    """Parse interchange JSON back into a document.

    Raises :class:`SchemaViolationError` with a JSON-pointer path on any
    structural problem.  Semantic checks still belong to the validator.
    """
    data = _want_object(read_json(text), "", {
        "title", "id", "application_type", "start_date", "end_date", "parties",
        "app_slos", "activities", "services", "resources", "unattached_slos"})

    title = _want_str(data, "title", "")
    doc_id = _want_ident(data, "id", "")
    app_type = _want_ident(data, "application_type", "")
    start_date = _want_date(data, "start_date", "")
    end_date = _want_date(data, "end_date", "")

    parties = []
    for pointer, obj in _objects(data, "parties", "", {"id", "name", "role"}):
        role = _read_choice(obj, "role", pointer, PARTY_ROLES)
        parties.append(Party(_want_ident(obj, "id", pointer),
                             _want_str(obj, "name", pointer), role))

    slos = [_read_slo(at, item, APP_TARGET)
            for at, item in _objects(data, "app_slos", "", _SLO_KEYS)]

    activities = []
    for pointer, obj in _objects(data, "activities", "", {"id", "kind", "required_services"}):
        refs = _want_list(obj, "required_services", pointer)
        if not refs:
            raise SchemaViolationError(f"{pointer}/required_services", "must not be empty")
        for j, ref in enumerate(refs):
            if not isinstance(ref, str) or not _is_name(ref):
                raise SchemaViolationError(
                    f"{pointer}/required_services/{j}", "must be an identifier"
                )
        activities.append(WorkflowActivity(
            _want_ident(obj, "id", pointer),
            _read_choice(obj, "kind", pointer, ACTIVITY_KINDS),
            tuple(refs),
        ))

    services = _read_owners(data, "services", ServiceSpec, SERVICE_KINDS, slos)
    resources = _read_owners(data, "resources", InfraResourceSpec, RESOURCE_KINDS, slos)
    slos.extend(_read_slo(at, item, None) for at, item in _objects(
        data, "unattached_slos", "", {"id", "target", "constraints"}, default=[]))

    try:
        return build_document(
            title=title,
            doc_id=doc_id,
            application_type=app_type,
            start_date=start_date,
            end_date=end_date,
            parties=tuple(parties),
            slos=tuple(slos),
            activities=tuple(activities),
            services=tuple(services),
            resources=tuple(resources),
        )
    except DuplicateIdError as exc:
        raise SchemaViolationError("/", str(exc)) from None
