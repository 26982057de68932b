"""Semantic validation of SLA documents.

Rules carry stable codes (V001 through V013) so tooling can filter or
suppress them; the codes never change meaning across releases.  Every run
returns the full list of findings, ordered by source position, with the
empty list meaning the document conforms.

Severities: most rules are errors; V009, V010, and V012 are warnings for
things that are legal but probably not what the author meant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import canonical_factor
from .errors import TypeMismatchError, UnitMismatchError
from .model import SlaDocument, Slo, SourceSpan, owned_slos
from .vocabulary import Catalog, load_builtin_catalog

__all__ = [
    "ERROR",
    "WARNING",
    "Diagnostic",
    "validate",
    "compatibility",
    "format_diagnostic",
    "COMPATIBILITY_TABLE",
]

ERROR = "error"
WARNING = "warning"

# Which service kinds can carry out each activity kind.  Networking is a
# supporting concept: it transports data between stages but never performs
# an activity itself, so it appears in no set.
COMPATIBILITY_TABLE: dict[str, frozenset[str]] = {
    "capture_eoi": frozenset({"sensing"}),
    "examine_eoi_on_fly": frozenset({"sensing", "stream_processing"}),
    "filter_eoi": frozenset({"sensing", "stream_processing"}),
    "aggregate_eoi": frozenset({"sensing", "stream_processing"}),
    "ingest_data": frozenset({"ingestion"}),
    "small_scale_rt_analysis": frozenset({"stream_processing", "machine_learning"}),
    "large_scale_rt_analysis": frozenset({"stream_processing", "machine_learning"}),
    "large_scale_hist_analysis": frozenset({"batch_processing", "machine_learning"}),
    "store_structured": frozenset({"database"}),
    "store_unstructured": frozenset({"database"}),
}


def compatibility(activity_kind: str) -> frozenset[str]:
    """Service kinds allowed to implement an activity kind."""
    try:
        return COMPATIBILITY_TABLE[activity_kind]
    except KeyError:
        raise ValueError(f"unknown activity kind: {activity_kind!r}") from None


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding."""

    code: str
    severity: str
    message: str
    span: SourceSpan
    subject: str

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "subject": self.subject,
            "line": self.span.start_line,
            "col": self.span.start_col,
        }


def format_diagnostic(diag: Diagnostic, filename: str = "<sla>") -> str:
    return (
        f"{filename}:{diag.span.start_line}:{diag.span.start_col}: "
        f"{diag.severity}[{diag.code}]: {diag.message}"
    )


def validate(doc: SlaDocument, catalog: Catalog | None = None) -> list[Diagnostic]:
    """Check a document against the conceptual model and a vocabulary.

    Returns all findings, sorted by (line, column, code).  The document is
    assumed to be structurally sound (unique ids), which both the parser
    and ``build_document`` guarantee.
    """
    if catalog is None:
        catalog = load_builtin_catalog()
    findings: list[Diagnostic] = []

    def report(code: str, severity: str, message: str, span: SourceSpan, subject: str):
        findings.append(Diagnostic(code, severity, message, span, subject))

    # V001: the agreement must cover a non-empty period.
    if doc.start_date >= doc.end_date:
        report(
            "V001", ERROR,
            f"start date {doc.start_date.isoformat()} is not before "
            f"end date {doc.end_date.isoformat()}",
            doc.span, doc.id,
        )

    # V002: an agreement states at least one application-level objective.
    if not doc.app_slos:
        report(
            "V002", ERROR,
            "no application-level SLO (add 'slo <id> on app { ... }')",
            doc.span, doc.id,
        )

    # V003: a consumer and a provider must both sign.
    roles = {p.role for p in doc.parties}
    if len(doc.parties) < 2 or "consumer" not in roles or "provider" not in roles:
        report(
            "V003", ERROR,
            "parties must include at least one consumer and one provider",
            doc.span, doc.id,
        )

    service_by_id = {s.id: s for s in doc.services}
    resource_ids = {r.id for r in doc.resources}

    for activity in doc.activities:
        allowed = COMPATIBILITY_TABLE[activity.kind]
        for ref in activity.required_services:
            service = service_by_id.get(ref)
            if service is None:
                # V004: dangling service reference.
                report(
                    "V004", ERROR,
                    f"activity '{activity.id}' requires unknown service '{ref}'",
                    activity.span, activity.id,
                )
            elif service.kind not in allowed:
                # V011: the referenced service cannot perform this activity.
                report(
                    "V011", ERROR,
                    f"activity '{activity.id}' ({activity.kind}) cannot be "
                    f"served by '{ref}' of kind {service.kind}; allowed kinds: "
                    f"{', '.join(sorted(allowed))}",
                    activity.span, activity.id,
                )

    for service in doc.services:
        if service.deployed_on not in resource_ids:
            # V005: services are deployed on declared infrastructure.
            report(
                "V005", ERROR,
                f"service '{service.id}' is deployed on '{service.deployed_on}', "
                "which is not a declared resource",
                service.span, service.id,
            )
        if not service.slos and not service.config:
            # V010: legal but suspicious.
            report(
                "V010", WARNING,
                f"service '{service.id}' has neither SLOs nor configuration",
                service.span, service.id,
            )

    # V006/V007/V008: every constraint must use a term the target's concept
    # knows, and fit it by canonical_factor: its type (V008), then its unit (V007).
    def check_slo(slo: Slo, concept: str | None):
        if concept is None:
            report(
                "V006", ERROR,
                f"slo '{slo.id}' targets '{slo.target}', which names no "
                "entity, so its metrics cannot be checked",
                slo.span, slo.id,
            )
            return
        for c in slo.constraints:
            entry = catalog.lookup(c.metric, concept)
            if entry is None:
                report(
                    "V006", ERROR,
                    f"metric '{c.metric}' is not defined for {concept}",
                    c.span, slo.id,
                )
                continue
            try:
                canonical_factor(entry, c.metric, c.comparator, c.value, "constraint")
            except TypeMismatchError as exc:
                report("V008", ERROR, str(exc), c.span, slo.id)
            except UnitMismatchError:
                report("V007", ERROR, f"unit '{c.value.unit}' is not convertible to "
                       f"'{entry.canonical_unit}', the canonical unit of '{c.metric}'",
                       c.span, slo.id)

    for _, concept, slo in owned_slos(doc):
        check_slo(slo, concept)

    # V009: unknown configuration terms are tolerated but flagged.  V013: a
    # known one's value must fit it, by canonical_factor as a constraint's does.
    for entity in (*doc.services, *doc.resources):
        for param in entity.config:
            entry = catalog.lookup(param.term, entity.kind)
            if entry is None:
                report(
                    "V009", WARNING,
                    f"configuration term '{param.term}' is not defined for "
                    f"{entity.kind}",
                    param.span, entity.id,
                )
                continue
            try:
                canonical_factor(entry, param.term, "==", param.value, "configuration value")
            except TypeMismatchError:
                report("V013", ERROR, f"configuration term '{param.term}' is "
                       f"{entry.value_type} but the value is {param.value.tag}",
                       param.span, entity.id)
            except UnitMismatchError:
                report("V013", ERROR, f"unit '{param.value.unit}' of configuration term "
                       f"'{param.term}' is not convertible to '{entry.canonical_unit}'",
                       param.span, entity.id)

    # V012: declared infrastructure nothing is deployed on.
    deployed_targets = {s.deployed_on for s in doc.services}
    for resource in doc.resources:
        if resource.id not in deployed_targets:
            report(
                "V012", WARNING,
                f"resource '{resource.id}' has no service deployed on it",
                resource.span, resource.id,
            )

    findings.sort(key=lambda d: (d.span.start_line, d.span.start_col, d.code))
    return findings
