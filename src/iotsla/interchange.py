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
unchanged.  Writing is done by a small emitter here rather than
``json.dumps`` precisely to keep control of number formatting; strings go
through json's C-coded escaper.  Reading goes through :func:`read_json`,
the package's one JSON reader, which offers, weights and catalog overlays
share.  A unit must be a non-keyword identifier, as in the text form, so
every document read here serializes to text that parses back to it.
"""

from __future__ import annotations

import json
from datetime import date
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Any

from .constraints import COMPARATORS, TypedValue, decimal_str_or_fraction, exact_number
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
from .parser import _DATE_RE, _is_name

__all__ = ["to_interchange", "from_interchange", "emit_json"]


# -- writing -----------------------------------------------------------------

def _emit(value: Any, pad: str, out: list[str]) -> None:
    """Append the JSON text of ``value`` to ``out``, inner lines past ``pad``."""
    # strings, objects and arrays by exact type first: they skip the checks
    # below, Fraction's costly ABC check among them
    kind = type(value)
    if kind is str or isinstance(value, str):
        out.append(encode_basestring(value))
    elif kind is dict or isinstance(value, dict):
        inner, lead = pad + "  ", "{\n"
        for key, item in value.items():
            out.append(f"{lead}{inner}{encode_basestring(key)}: ")
            _emit(item, inner, out)
            lead = ",\n"
        out.append("{}" if lead == "{\n" else f"\n{pad}}}")  # "{}": no items
    elif kind is list or isinstance(value, list):
        inner, lead = pad + "  ", "[\n"
        for item in value:
            out.append(lead + inner)
            _emit(item, inner, out)
            lead = ",\n"
        out.append("[]" if lead == "[\n" else f"\n{pad}]")
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, Fraction)):
        text = decimal_str_or_fraction(value)
        out.append(encode_basestring(text) if "/" in text else text)  # "4/3": exact
    elif isinstance(value, date):
        out.append(encode_basestring(value.isoformat()))
    else:
        raise TypeError(f"cannot emit {type(value).__name__} as JSON")


def emit_json(value: Any) -> str:
    """Render a report structure as JSON with exact numbers.

    Accepts the usual JSON shapes plus Fraction and date.  Fractions print
    their exact decimal digits; ones with no finite decimal form become
    ``"n/d"`` strings rather than rounded floats.
    """
    out: list[str] = []
    _emit(value, "", out)
    return "".join(out)


def _value_fields(value: TypedValue) -> dict:
    if value.tag == "numeric":
        fields: dict[str, Any] = {"value": value.magnitude}
        if value.unit is not None:
            fields["unit"] = value.unit
        return fields
    # booleans stay booleans; text and enumerated both become JSON strings
    return {"value": value.value}


def _constraint_dict(constraint: MetricConstraint) -> dict:
    return {
        "metric": constraint.metric,
        "comparator": constraint.comparator,
        **_value_fields(constraint.value),
    }


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


def read_json(text: str | bytes) -> Any:
    """Decode ``str`` or UTF-8 ``bytes`` as JSON, numbers as exact Fractions.

    Total: bad UTF-8, bad JSON, nesting too deep for the decoder and numbers
    longer than :func:`~iotsla.constraints.exact_number` takes all raise
    :class:`SchemaViolationError` at ``/``.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text, parse_float=exact_number, parse_int=exact_number)
    except UnicodeDecodeError:
        raise SchemaViolationError("/", "input is not valid UTF-8") from None
    except (ValueError, RecursionError) as exc:
        raise SchemaViolationError("/", f"invalid JSON: {exc}") from None


def _want(data: dict, key: str, pointer: str) -> Any:
    if key not in data:
        raise SchemaViolationError(f"{pointer}/{key}", "missing required field")
    return data[key]


def _as_str(value: Any, pointer: str) -> str:
    """``value`` if it is a string UTF-8 can encode: JSON escapes can spell
    lone surrogates (``"\\ud800"``), which no UTF-8 output could carry.
    """
    if not isinstance(value, str):
        raise SchemaViolationError(pointer, "must be a string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaViolationError(pointer, "must not hold a lone surrogate") from None
    return value


def _want_str(data: dict, key: str, pointer: str) -> str:
    value = _want(data, key, pointer)
    if type(value) is str and value.isascii():  # it passes: build no pointer for it
        return value
    return _as_str(value, f"{pointer}/{key}")


_IDENT_RULE = "must be a lowercase identifier ([a-z][a-z0-9_]*) and not a keyword"


def _want_ident(data: dict, key: str, pointer: str) -> str:
    value = _want_str(data, key, pointer)
    if not _is_name(value):
        raise SchemaViolationError(f"{pointer}/{key}", _IDENT_RULE)
    return value


def _want_list(data: dict, key: str, pointer: str, default: list | None = None) -> list:
    if key not in data:
        if default is not None:
            return default
        raise SchemaViolationError(f"{pointer}/{key}", "missing required field")
    value = data[key]
    if not isinstance(value, list):
        raise SchemaViolationError(f"{pointer}/{key}", "must be an array")
    return value


def _want_object(value: Any, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaViolationError(pointer, "must be an object")
    return value


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


def _check_keys(data: dict, allowed: set[str], pointer: str):
    if not data.keys() <= allowed:
        key = next(key for key in data if key not in allowed)  # the first unknown
        raise SchemaViolationError(f"{pointer}/{key}", "unknown field")


def _read_typed_value(data: dict, pointer: str) -> TypedValue:
    raw = _want(data, "value", pointer)
    unit = data.get("unit")
    if unit is not None:
        # the text form writes a unit as a bare word after its number
        if not _is_name(_as_str(unit, f"{pointer}/unit")):
            raise SchemaViolationError(f"{pointer}/unit", _IDENT_RULE)
    if isinstance(raw, bool):
        if unit is not None:
            raise SchemaViolationError(f"{pointer}/unit", "booleans carry no unit")
        return TypedValue.boolean(raw)
    if isinstance(raw, Fraction):  # read_json reads every number as one
        if raw.numerator < 0:  # the sign, without Fraction's ABC check on 0
            raise SchemaViolationError(f"{pointer}/value", "must be non-negative")
        return TypedValue("numeric", raw, unit)
    if isinstance(raw, str):
        if unit is not None:
            raise SchemaViolationError(f"{pointer}/unit", "text values carry no unit")
        return TypedValue.text(_as_str(raw, f"{pointer}/value"))
    raise SchemaViolationError(f"{pointer}/value", "must be a number, boolean, or string")


def _read_constraint(value: Any, pointer: str) -> MetricConstraint:
    data = _want_object(value, pointer)
    _check_keys(data, {"metric", "comparator", "value", "unit"}, pointer)
    metric = _want_ident(data, "metric", pointer)
    comparator = _read_choice(data, "comparator", pointer, COMPARATORS)
    return MetricConstraint(metric, comparator, _read_typed_value(data, pointer))


def _read_slo(value: Any, pointer: str, target: str, with_target: bool = False) -> Slo:
    data = _want_object(value, pointer)
    allowed = {"id", "constraints"} | ({"target"} if with_target else set())
    _check_keys(data, allowed, pointer)
    slo_id = _want_ident(data, "id", pointer)
    if with_target:
        target = _want_ident(data, "target", pointer)
    raw_constraints = _want_list(data, "constraints", pointer)
    if not raw_constraints:
        raise SchemaViolationError(f"{pointer}/constraints", "must not be empty")
    constraints = tuple(
        _read_constraint(item, f"{pointer}/constraints/{i}")
        for i, item in enumerate(raw_constraints)
    )
    return Slo(slo_id, target, constraints)


def _read_config(value: Any, pointer: str) -> ConfigParam:
    data = _want_object(value, pointer)
    _check_keys(data, {"term", "value", "unit"}, pointer)
    term = _want_ident(data, "term", pointer)
    return ConfigParam(term, _read_typed_value(data, pointer))


def _read_choice(data: dict, key: str, pointer: str, choices: tuple[str, ...]) -> str:
    value = _want_str(data, key, pointer)
    if value not in choices:
        raise SchemaViolationError(f"{pointer}/{key}", f"must be one of {', '.join(choices)}")
    return value


def _read_owners(data: dict, key: str, cls: type, kinds: tuple[str, ...],
                 slos: list[Slo]) -> list:
    """The services or resources under ``key``, their SLOs appended to
    ``slos``; a service alone is ``deployed_on`` a resource."""
    placed = cls is ServiceSpec
    allowed = {"id", "kind", "slos", "config"} | ({"deployed_on"} if placed else set())
    owners = []
    for i, item in enumerate(_want_list(data, key, "")):
        pointer = f"/{key}/{i}"
        obj = _want_object(item, pointer)
        _check_keys(obj, allowed, pointer)
        owner_id = _want_ident(obj, "id", pointer)
        slos.extend(
            _read_slo(slo_item, f"{pointer}/slos/{j}", owner_id)
            for j, slo_item in enumerate(_want_list(obj, "slos", pointer, default=[]))
        )
        kind = _read_choice(obj, "kind", pointer, kinds)
        deployed_on = (_want_ident(obj, "deployed_on", pointer),) if placed else ()
        owners.append(cls(owner_id, kind, *deployed_on, config=tuple(
            _read_config(cfg, f"{pointer}/config/{j}")
            for j, cfg in enumerate(_want_list(obj, "config", pointer, default=[]))
        )))
    return owners


def from_interchange(text: str | bytes) -> SlaDocument:
    """Parse interchange JSON back into a document.

    Raises :class:`SchemaViolationError` with a JSON-pointer path on any
    structural problem.  Semantic checks still belong to the validator.
    """
    data = _want_object(read_json(text), "/")
    _check_keys(
        data,
        {"title", "id", "application_type", "start_date", "end_date", "parties",
         "app_slos", "activities", "services", "resources", "unattached_slos"},
        "",
    )

    title = _want_str(data, "title", "")
    doc_id = _want_ident(data, "id", "")
    app_type = _want_ident(data, "application_type", "")
    start_date = _want_date(data, "start_date", "")
    end_date = _want_date(data, "end_date", "")

    parties = []
    for i, item in enumerate(_want_list(data, "parties", "")):
        pointer = f"/parties/{i}"
        obj = _want_object(item, pointer)
        _check_keys(obj, {"id", "name", "role"}, pointer)
        role = _read_choice(obj, "role", pointer, PARTY_ROLES)
        parties.append(Party(_want_ident(obj, "id", pointer),
                             _want_str(obj, "name", pointer), role))

    slos = [
        _read_slo(item, f"/app_slos/{i}", APP_TARGET)
        for i, item in enumerate(_want_list(data, "app_slos", ""))
    ]

    activities = []
    for i, item in enumerate(_want_list(data, "activities", "")):
        pointer = f"/activities/{i}"
        obj = _want_object(item, pointer)
        _check_keys(obj, {"id", "kind", "required_services"}, pointer)
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
    slos.extend(
        _read_slo(item, f"/unattached_slos/{i}", "", with_target=True)
        for i, item in enumerate(_want_list(data, "unattached_slos", "", default=[]))
    )

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
