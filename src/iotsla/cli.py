"""Command-line front end.

Commands::

    iotsla validate AGREEMENT.sla [--json] [--strict] [--verbose]
    iotsla vocab list [--concept C] [--kind K] [--json]
    iotsla vocab show TERM CONCEPT [--json]
    iotsla vocab export [-o PATH]
    iotsla match REQUEST.sla OFFER.offer.json... [--weights W.json] [--json]
    iotsla monitor AGREEMENT.sla TELEMETRY|- [--window N] [--json]
    iotsla fmt FILE.sla|- [--check]

All commands accept ``--catalog OVERLAY.json`` to merge extra vocabulary
entries over the builtin catalog.

Exit codes: 0 success; 1 the input has error-level findings (diagnostics
or SLO violations); 2 usage or I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    ParseError,
    SchemaViolationError,
    SlaError,
    TelemetryFormatError,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .model import MetricConstraint, SlaDocument
    from .vocabulary import Catalog

__all__ = ["main", "entrypoint"]


class _CliFailure(Exception):
    """Abort with a message and a specific exit code.  A failure over the
    input's ``diagnostics``, as ``Diagnostic.to_dict`` dicts, prints them
    as JSON under ``--json``."""

    def __init__(self, code: int, message: str, diagnostics: list[dict] | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.diagnostics = diagnostics


def _read_text(path: str) -> str:
    """The text of ``path``, or of stdin for "-", read by one rule: UTF-8,
    with "\r\n" and "\r" read as "\n"."""
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except OSError as exc:
        raise _CliFailure(2, f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeError:
        raise _CliFailure(2, f"{path} is not valid UTF-8") from None


def _load_catalog(overlay_path: str | None) -> Catalog:
    from .vocabulary import Catalog, load_builtin_catalog

    catalog = load_builtin_catalog()
    if overlay_path is None:
        return catalog
    text = _read_text(overlay_path)
    try:
        return catalog.merge(Catalog.from_json(text))
    except SlaError as exc:
        raise _CliFailure(2, f"bad catalog overlay {overlay_path}: {exc}") from None


def _parse_sla(path: str) -> SlaDocument:
    from .parser import parse

    text = _read_text(path)
    try:
        return parse(text)
    except ParseError as exc:
        raise _CliFailure(1, f"{path}:{exc.line}:{exc.col}: error: {exc.message}", [{
            "code": "parse", "severity": "error", "message": exc.message,
            "subject": path, "line": exc.line, "col": exc.col}]) from None


def _validate_or_fail(path: str, catalog: Catalog) -> SlaDocument:
    """Parse and validate; abort with diagnostics when errors exist."""
    from .validator import ERROR, format_diagnostic, validate

    doc = _parse_sla(path)
    diagnostics = validate(doc, catalog)
    errors = [d for d in diagnostics if d.severity == ERROR]
    if errors:
        lines = "\n".join(format_diagnostic(d, path) for d in diagnostics)
        raise _CliFailure(1, lines, [d.to_dict() for d in diagnostics])
    return doc


# -- commands ----------------------------------------------------------------


def _cmd_validate(args) -> int:
    from .validator import ERROR, format_diagnostic, validate

    catalog = _load_catalog(args.catalog)
    doc = _parse_sla(args.path)
    diagnostics = validate(doc, catalog)
    if args.json:
        from .interchange import emit_json

        print(emit_json([d.to_dict() for d in diagnostics]))
    else:
        for diag in diagnostics:
            print(format_diagnostic(diag, args.path))
        if not diagnostics and args.verbose:
            print(f"{args.path}: ok ({doc.id}, {len(doc.services)} services, "
                  f"{len(doc.resources)} resources)")
    has_errors = any(d.severity == ERROR for d in diagnostics)
    if has_errors or (args.strict and diagnostics):
        return 1
    return 0


def _cmd_vocab(args) -> int:
    from .vocabulary import TERM_KINDS, VALID_CONCEPTS

    catalog = _load_catalog(args.catalog)
    if args.vocab_cmd == "list":
        if args.concept is not None and args.concept not in VALID_CONCEPTS:
            raise _CliFailure(2, f"unknown concept: {args.concept}")
        if args.kind is not None and args.kind not in TERM_KINDS:
            raise _CliFailure(2, f"unknown term kind: {args.kind}")
        concepts = [args.concept] if args.concept else list(VALID_CONCEPTS)
        if args.json:
            from .interchange import emit_json

            entries = []
            for concept in concepts:
                entries.extend(e.to_dict() for e in catalog.applicable_terms(concept, args.kind))
            print(emit_json(entries))
            return 0
        for concept in concepts:
            entries = catalog.applicable_terms(concept, args.kind)
            if not entries:
                continue
            print(f"{concept}:")
            for e in entries:
                unit = e.canonical_unit if e.value_type == "numeric" else "-"
                print(f"  {e.term:<36} {e.value_type:<11} {unit:<12} {e.kind}")
        return 0

    if args.vocab_cmd == "show":
        if args.concept not in VALID_CONCEPTS:
            raise _CliFailure(2, f"unknown concept: {args.concept}")
        entry = catalog.lookup(args.term, args.concept)
        if entry is None:
            raise _CliFailure(2, f"no term {args.term!r} for concept {args.concept!r}")
        if args.json:
            from .interchange import emit_json

            print(emit_json(entry.to_dict()))
            return 0
        print(f"term:           {entry.term}")
        print(f"concept:        {entry.concept}")
        print(f"kind:           {entry.kind}")
        print(f"value type:     {entry.value_type}")
        print(f"canonical unit: {entry.canonical_unit}")
        print(f"direction:      {entry.direction}")
        print(f"aggregator:     {entry.aggregator}")
        if entry.aliases:
            print(f"aliases:        {', '.join(entry.aliases)}")
        print(f"description:    {entry.description}")
        return 0

    # export: the builtin tables plus any overlay; to_json leaves out the
    # builtin application terms beneath them.
    text = catalog.to_json()
    if args.output is None or args.output == "-":
        print(text)
    else:
        try:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise _CliFailure(2, f"cannot write {args.output}: {exc.strerror or exc}") from None
    return 0


def _load_weights(path: str | None, requirements: list[MetricConstraint],
                  concept: str, catalog: Catalog) -> dict[str, Fraction] | None:
    """Metric weights.  Every key must name, by term or alias of
    ``concept``, a term some requirement names, and no two keys one term."""
    from fractions import Fraction

    from .interchange import _want_object, read_json

    if path is None:
        return None
    text = _read_text(path)
    required = {catalog.lookup(c.metric, concept).term for c in requirements}
    keys: dict[str, str] = {}  # term -> the key that weighs it
    try:
        weights = _want_object(read_json(text), "/")
        for key, weight in weights.items():
            if not isinstance(weight, Fraction) or weight <= 0:
                raise SchemaViolationError(f"/{key}", "weight must be a positive number")
            entry = catalog.lookup(key, concept)
            if entry is None:
                raise SchemaViolationError(f"/{key}", f"no term or alias {key!r} "
                                                      f"for concept {concept!r}")
            if entry.term not in required:
                raise SchemaViolationError(f"/{key}", f"no requirement on {concept!r} "
                                                      f"names {entry.term!r}")
            if entry.term in keys:
                raise SchemaViolationError(f"/{key}", f"{keys[entry.term]!r} already "
                                                      f"weighs {entry.term!r}")
            keys[entry.term] = key
    except SchemaViolationError as exc:
        raise _CliFailure(2, f"bad weights file {path}: {exc}") from None
    return weights


def _cmd_match(args) -> int:
    from .interchange import emit_json
    from .matcher import load_offer, rank_offers, render_report_table
    from .model import owned_slos

    catalog = _load_catalog(args.catalog)
    doc = _validate_or_fail(args.request, catalog)

    offers = []
    for offer_path in args.offers:
        text = _read_text(offer_path)
        try:
            offers.append(load_offer(text, catalog))
        except SchemaViolationError as exc:
            raise _CliFailure(2, f"bad offer {offer_path}: {exc}") from None

    concepts = {o.concept for o in offers}
    if len(concepts) != 1:
        raise _CliFailure(2, "offers must all cover the same concept; got: "
                             + ", ".join(sorted(concepts)))
    concept = concepts.pop()

    requirements = [
        constraint
        for _, owner_concept, slo in owned_slos(doc)
        if owner_concept == concept
        for constraint in slo.constraints
    ]
    weights = _load_weights(args.weights, requirements, concept, catalog)
    try:
        reports = rank_offers(requirements, offers, weights, catalog)
    except SlaError as exc:
        raise _CliFailure(2, str(exc)) from None

    if args.json:
        payload = {
            "concept": concept,
            "requirements": [
                {"metric": c.metric, "comparator": c.comparator,
                 "value": c.value.value, "unit": c.value.unit}
                for c in requirements
            ],
            "reports": [r.to_dict() for r in reports],
        }
        print(emit_json(payload))
    else:
        if not requirements:
            print(f"note: the agreement has no SLO constraints on concept "
                  f"'{concept}'; every offer scores 1")
        print(render_report_table(reports, requirements))
    return 0


def _cmd_monitor(args) -> int:
    from .constraints import decimal_str_or_fraction
    from .monitor import EvaluationWindow, monitor_document, parse_telemetry

    catalog = _load_catalog(args.catalog)
    doc = _validate_or_fail(args.sla, catalog)
    telemetry_text = _read_text(args.telemetry)
    try:
        records, skipped_values = parse_telemetry(telemetry_text)
    except TelemetryFormatError as exc:
        raise _CliFailure(2, f"{args.telemetry}: {exc}") from None

    report = monitor_document(doc, records, EvaluationWindow(args.window), catalog)
    if args.json:
        from .interchange import emit_json

    def value_text(value) -> str:
        if value.tag == "numeric":
            text = decimal_str_or_fraction(value.magnitude)
            return f"{text} {value.unit}" if value.unit else text
        return str(value.value).lower() if value.tag == "boolean" else str(value.value)

    def window_text(item) -> str:  # bounds may pass Python's int string limit
        bounds = map(decimal_str_or_fraction, (item.window_start, item.window_end))
        return "[{},{}) ".format(*bounds)

    for event in report.violations:
        if args.json:
            print(emit_json(event.to_dict()))
        else:
            c = event.constraint
            print(
                f"violation {window_text(event)}slo={event.slo_id}: {c.metric} {c.comparator} "
                f"{value_text(c.value)}, observed {value_text(event.observed)}"
            )

    for gap in report.coverage_gaps:
        where = window_text(gap) if gap.window_start is not None else ""
        print(f"warning: coverage {where}{gap.note}", file=sys.stderr)
    if skipped_values:
        print(f"warning: {skipped_values} telemetry line(s) had unreadable values",
              file=sys.stderr)
    if report.skipped_records:
        print(f"warning: {report.skipped_records} record(s) matched no known "
              "target/metric", file=sys.stderr)

    summary = {
        "violations": len(report.violations),
        "per_slo": dict(sorted(report.slo_violation_counts.items())),
        "records": len(records),
        "skipped_values": skipped_values,
        "unknown_records": report.skipped_records,
        "coverage_gaps": len(report.coverage_gaps),
    }
    if args.json:
        print(emit_json({"summary": summary}))
    else:
        print(f"checked {summary['records']} records: "
              f"{summary['violations']} violation(s)")
        for slo_id, count in summary["per_slo"].items():
            print(f"  {slo_id}: {count} violation(s)")
    return 1 if report.violations else 0


def _cmd_fmt(args) -> int:
    from .parser import parse, serialize

    text = _read_text(args.path)
    try:
        doc = parse(text)
    except ParseError as exc:
        raise _CliFailure(2, f"{args.path}:{exc.line}:{exc.col}: error: {exc.message}") from None
    canonical = serialize(doc)
    if args.check:
        if canonical != text:
            print(f"would reformat {args.path}")
            return 1
        return 0
    if args.path == "-":
        print(canonical, end="")
    elif canonical != text:
        try:
            Path(args.path).write_text(canonical, encoding="utf-8")
        except OSError as exc:
            raise _CliFailure(2, f"cannot write {args.path}: {exc.strerror or exc}") from None
        print(f"reformatted {args.path}")
    return 0


# -- argument plumbing ---------------------------------------------------------


def _window_width(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotsla",
        description="Validate, inspect, match, and monitor IoT service level agreements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, json: bool = True):
        if json:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--catalog", metavar="OVERLAY",
                       help="merge a vocabulary overlay (JSON) over the builtin catalog")

    p_validate = sub.add_parser("validate", help="check an agreement for semantic problems")
    p_validate.add_argument("path")
    p_validate.add_argument("--strict", action="store_true",
                            help="treat warnings as failures")
    p_validate.add_argument("--verbose", action="store_true",
                            help="print a summary even when the document is clean")
    common(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_vocab = sub.add_parser("vocab", help="inspect the vocabulary catalog")
    vocab_sub = p_vocab.add_subparsers(dest="vocab_cmd", required=True)
    p_list = vocab_sub.add_parser("list", help="list terms, grouped by concept")
    p_list.add_argument("--concept", help="only this concept")
    p_list.add_argument("--kind", help="only qos_metric or configuration_parameter")
    common(p_list)
    p_list.set_defaults(func=_cmd_vocab)
    p_show = vocab_sub.add_parser("show", help="show one term in full")
    p_show.add_argument("term")
    p_show.add_argument("concept")
    common(p_show)
    p_show.set_defaults(func=_cmd_vocab)
    p_export = vocab_sub.add_parser("export", help="write the catalog as JSON")
    p_export.add_argument("-o", "--output", help="output path (default stdout)")
    common(p_export, json=False)
    p_export.set_defaults(func=_cmd_vocab)

    p_match = sub.add_parser("match", help="rank provider offers against an agreement")
    p_match.add_argument("request", help="the agreement (.sla)")
    p_match.add_argument("offers", nargs="+", metavar="offer",
                         help="provider offers (.offer.json)")
    p_match.add_argument("--weights", help="JSON object of metric weights")
    common(p_match)
    p_match.set_defaults(func=_cmd_match)

    p_monitor = sub.add_parser("monitor", help="evaluate SLOs against telemetry")
    p_monitor.add_argument("sla", help="the agreement (.sla)")
    p_monitor.add_argument("telemetry", help="telemetry file, or - for stdin")
    p_monitor.add_argument("--window", type=_window_width, default=60,
                           help="tumbling window width in time units (default 60)")
    common(p_monitor)
    p_monitor.set_defaults(func=_cmd_monitor)

    p_fmt = sub.add_parser("fmt", help="rewrite an agreement in canonical form")
    p_fmt.add_argument("path", help="agreement file, or - to read stdin and write stdout")
    p_fmt.add_argument("--check", action="store_true",
                       help="exit 1 if the file is not canonical, change nothing")
    common(p_fmt, json=False)
    p_fmt.set_defaults(func=_cmd_fmt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliFailure as failure:
        message = failure.message
        if failure.diagnostics is not None and args.json:
            from .interchange import emit_json

            # validate --json prints its list of diagnostics on every path
            shown = failure.diagnostics
            message = emit_json(shown if args.command == "validate" else {"diagnostics": shown})
        stream = sys.stdout if failure.code == 1 else sys.stderr
        print(message, file=stream)
        return failure.code
    except BrokenPipeError:
        return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
