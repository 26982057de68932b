"""SLA toolkit for IoT applications.

Specify agreements in a small text language (or JSON), check them against
a vocabulary of per-concept QoS metrics and configuration parameters,
rank provider offers against the stated requirements, and evaluate SLOs
over telemetry streams.

The names below load on first use: ``import iotsla`` imports no
submodule, and ``iotsla.parse`` imports :mod:`iotsla.parser` and returns
its ``parse``.  The package never keeps a copy, so each name is always the
defining module's current object.
"""

import importlib

# defining module -> the names the package exports from it
_EXPORTS = {
    "constraints": (
        "COMPARATORS",
        "KNOWN_UNITS",
        "SATISFIED",
        "UNIT_FAMILIES",
        "UNSPECIFIED",
        "VIOLATED",
        "TypedValue",
        "check_constraint_against_value",
        "convert",
        "normalize_unit",
        "units_convertible",
    ),
    "errors": (
        "DomainError",
        "DuplicateIdError",
        "EmptyWindowError",
        "IncompatibleUnitsError",
        "ParseError",
        "SchemaViolationError",
        "SlaError",
        "TelemetryFormatError",
        "TypeMismatchError",
        "UnitMismatchError",
        "UnknownActivityError",
        "VocabularyIntegrityError",
    ),
    "interchange": ("from_interchange", "to_interchange"),
    "matcher": (
        "MatchReport",
        "ProviderOffer",
        "load_offer",
        "rank_offers",
        "satisfies_capability",
        "score_offer",
    ),
    "model": (
        "ACTIVITY_KINDS",
        "APP_TARGET",
        "PARTY_ROLES",
        "RESOURCE_KINDS",
        "SERVICE_KINDS",
        "ConfigParam",
        "InfraResourceSpec",
        "MetricConstraint",
        "Party",
        "ServiceSpec",
        "SlaDocument",
        "Slo",
        "SourceSpan",
        "WorkflowActivity",
        "build_document",
        "concept_of_target",
        "resolve",
        "services_for_activity",
    ),
    "monitor": (
        "EvaluationWindow",
        "MonitorReport",
        "TelemetryRecord",
        "ViolationEvent",
        "availability_ratio",
        "data_completeness",
        "end_to_end_response",
        "evaluate_window",
        "miss_ratio",
        "monitor_document",
        "parse_telemetry",
    ),
    "parser": ("parse", "serialize"),
    "validator": ("Diagnostic", "compatibility", "format_diagnostic", "validate"),
    "vocabulary": (
        "APPLICATION_CONCEPT",
        "TABLE_CONCEPTS",
        "VALID_CONCEPTS",
        "Catalog",
        "VocabularyEntry",
        "application_slo_terms",
        "load_builtin_catalog",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # only names the package does not hold arrive here
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
