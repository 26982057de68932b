"""Concrete syntax for SLA documents.

The language is line-oriented only by convention; any whitespace separates
tokens, and ``#`` starts a comment running to the end of the line.

Grammar sketch (sections must appear in this order)::

    sla "Title" {
      id = my_sla
      application = smart_health
      starts = 2026-01-01
      ends = 2027-01-01
    }

    party hospital {
      name = "City Hospital"
      role = consumer
    }

    slo fast on app {
      end_to_end_response_time <= 5 time_unit
    }

    activity capture : capture_eoi requires sensing_svc

    service sensing_svc : sensing on sensor {
      sampling_rate = 5 hz
    }

    resource sensor : iot_device {
    }

A value may be followed by a unit identifier.  Because config keys and
constraint metrics are also identifiers, the parser looks one token past a
candidate unit: if the token after it is ``=`` or a comparator, the
identifier starts the next clause instead of naming a unit.

``parse`` is total: every input (including arbitrary bytes) produces
either a document or a :class:`ParseError`, never a crash.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from datetime import date
from typing import NamedTuple

from .constraints import (COMPARATORS, DATE_RE, DECIMAL_RE, IDENT_RE, KEYWORDS, TypedValue,
                          decimal_repr, exact_number)
from .errors import ParseError
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
    SourceSpan,
    WorkflowActivity,
    build_document,
    owned_slos,
)

__all__ = ["KEYWORDS", "parse", "serialize"]

# Whitespace and comments lead into the token after them.  The empty ``eof``
# alternative always matches, so a match never backtracks into them: it ends
# at a token, at the end of the input, or at a character no token starts with.
# No two kinds start with the same character, bar ``date`` before ``number``.
_TOKEN_RE = re.compile(
    r"""
      [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
      (?:
        (?P<ident>%s)
      | (?P<date>%s)
      | (?P<number>%s)
      | (?P<string>"(?:\\.|[^"\\\n])*")
      | (?P<op>==|<=|>=|[{}=:,<>])
      | (?P<eof>)
      )
    """ % (IDENT_RE.pattern, DATE_RE.pattern, DECIMAL_RE.pattern),
    re.VERBOSE,
)

_STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_ESCAPE_RE = re.compile(r"\\(.)")
_NEWLINE_RE = re.compile("\n")


class _Token(NamedTuple):
    type: str  # date | number | ident | string | op | eof
    text: str
    line: int
    col: int
    end_line: int
    end_col: int


def _decode(text: str | bytes) -> str:
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        prefix = text[: exc.start]
        line = prefix.count(b"\n") + 1
        col = exc.start - (prefix.rfind(b"\n") + 1) + 1
        raise ParseError("input is not valid UTF-8", line, col) from None


def _line_starts(text: str) -> list[int]:
    """The offset of the first character of each line of ``text``."""
    return [0, *[match.end() for match in _NEWLINE_RE.finditer(text)]]


def _position(line_starts: list[int], offset: int) -> tuple[int, int]:
    """The (line, col) of ``offset``, and so of a token's end: no token holds a line break."""
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def _scan(text: str) -> tuple[list[str], list[str], list[int]]:
    """The kind, text and end offset of each token of ``text`` in three flat
    lists, then two ``eof`` tokens, so looking one token ahead never runs off
    the end.  One match is alive at a time, the cyclic GC tracks no token,
    and a lexical error is reported before any syntax error."""
    kinds, texts, ends = [], [], []
    add_kind, add_text, add_end = kinds.append, texts.append, ends.append
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "eof":
            break
        add_kind(kind)
        add_text(match[kind])
        add_end(match.end())
    at = match.end()
    if at < len(text):
        message = ("unterminated string literal" if text[at] == '"'
                   else f"unexpected character {text[at]!r}")
        raise ParseError(message, *_position(_line_starts(text), at))
    kinds += ("eof", "eof")
    texts += ("", "")
    ends += (at, at)
    return kinds, texts, ends


def _tokenize(text: str) -> list[_Token]:
    """:func:`_scan`'s tokens as tuples with their positions."""
    tokens, starts = _scan(text), _line_starts(text)
    return [_Token(kind, raw, *_position(starts, end - len(raw)), *_position(starts, end))
            for kind, raw, end in zip(*tokens)]


def _unescape(raw: str, at) -> str:
    """The value of string token ``raw``; ``at()`` gives its (line, col)."""
    body = raw[1:-1]
    if "\\" not in body:
        return body

    def unescape(match: re.Match) -> str:
        escape = match.group(1)
        if escape not in _STRING_ESCAPES:
            raise ParseError(f"invalid escape sequence '\\{escape}'", *at())
        return _STRING_ESCAPES[escape]

    return _ESCAPE_RE.sub(unescape, body)


def _unescape_string(token: _Token) -> str:
    return _unescape(token.text, lambda: (token.line, token.col))


class _Parser:
    """Recursive descent over :func:`_scan`'s lists.  A token is its index into
    them; its line and column are computed only for a span or an error."""

    def __init__(self, text: str):
        self.kinds, self.texts, self.ends = _scan(text)
        self.line_starts = _line_starts(text)
        self.pos = 0
        self.seen_ids: set[str] = set()

    # -- token plumbing ----------------------------------------------------

    def position(self, token: int) -> tuple[int, int]:
        """Where ``token`` starts."""
        return _position(self.line_starts, self.ends[token] - len(self.texts[token]))

    def fail(self, message: str, token: int, expected: frozenset[str] | None = None):
        raise ParseError(message, *self.position(token), expected)

    def _describe(self, token: int) -> str:
        if self.kinds[token] == "eof":
            return "end of input"
        return repr(self.texts[token])

    def expect(self, text: str) -> int:
        """The next token, a keyword or operator spelt ``text``: no other
        kind of token is spelt as one."""
        token = self.pos
        if self.texts[token] != text:
            self.fail(f"expected {text!r}, found {self._describe(token)}", token,
                      frozenset({text}))
        self.pos += 1
        return token

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.pos
        if self.kinds[token] != "ident":
            self.fail(f"expected {what}, found {self._describe(token)}", token,
                      frozenset({what}))
        text = self.texts[token]
        if text in KEYWORDS:
            self.fail(f"{text!r} is a reserved keyword", token)
        self.pos += 1
        return text

    def expect_choice(self, token_type: str, choices: tuple[str, ...], what: str) -> str:
        """The next token's text, a ``token_type`` in ``choices``.

        A ``"name"`` is an identifier read by :meth:`expect_ident`, and one
        outside ``choices`` is unknown; any other token outside them fails
        with ``choices`` listed.  ``what`` begins with its article.
        """
        if token_type == "name":
            text = self.expect_ident(what)
            if text not in choices:
                self.fail(f"unknown {what.partition(' ')[2]} {text!r}", self.pos - 1,
                          frozenset(choices))
            return text
        token = self.pos
        if self.kinds[token] != token_type or self.texts[token] not in choices:
            self.fail(f"expected {what} ({', '.join(choices)}), found {self._describe(token)}",
                      token, frozenset(choices))
        self.pos += 1
        return self.texts[token]

    def string(self, token: int) -> str:
        return _unescape(self.texts[token], lambda: self.position(token))

    def expect_string(self, what: str) -> str:
        token = self.pos
        if self.kinds[token] != "string":
            self.fail(f"expected {what} (a quoted string), found {self._describe(token)}",
                      token, frozenset({"string"}))
        self.pos += 1
        return self.string(token)

    def expect_date(self, what: str) -> date:
        token = self.pos
        if self.kinds[token] != "date":
            self.fail(f"expected {what} (YYYY-MM-DD), found {self._describe(token)}",
                      token, frozenset({"date"}))
        try:
            value = date.fromisoformat(self.texts[token])
        except ValueError:
            self.fail(f"invalid calendar date {self.texts[token]!r}", token)
        self.pos += 1
        return value

    def declare_id(self, what: str) -> str:
        """An identifier that no earlier declaration took."""
        name = self.expect_ident(what)
        if name in self.seen_ids:
            self.fail(f"duplicate identifier {name!r}", self.pos - 1)
        self.seen_ids.add(name)
        return name

    def span(self, start: int) -> SourceSpan:
        """From where token ``start`` begins to where the last token read ends."""
        line, col = self.position(start)
        end_line, end_col = _position(self.line_starts, self.ends[self.pos - 1])
        if end_line == line:  # a one-line span holds one line number object, not two
            end_line = line
        # the end is never before the start, so the span's check would pass
        return tuple.__new__(SourceSpan, (line, col, end_line, end_col))

    def field(self, key: str, read, *args):
        """``read(*args)`` after ``key =``."""
        self.expect(key)
        self.expect("=")
        return read(*args)

    def at_clause(self) -> bool:
        """Does a constraint or configuration clause start here?"""
        return self.kinds[self.pos] == "ident" and self.texts[self.pos] not in KEYWORDS

    # -- values ------------------------------------------------------------

    def parse_value(self) -> TypedValue:
        token = self.pos
        kind, text = self.kinds[token], self.texts[token]
        if kind == "number":
            self.pos += 1
            try:
                magnitude = exact_number(text)
            except ValueError as exc:
                self.fail(str(exc), token)
            unit = self.maybe_unit()
            return TypedValue("numeric", magnitude, unit)
        if kind == "ident" and text in ("true", "false"):
            self.pos += 1
            self.reject_unit_after("a boolean")
            return TypedValue.boolean(text == "true")
        if kind == "string":
            self.pos += 1
            self.reject_unit_after("a text")
            return TypedValue.text(self.string(token))
        self.fail(
            f"expected a value (number, true/false, or string), "
            f"found {self._describe(token)}",
            token,
            frozenset({"number", "true", "false", "string"}),
        )
        raise AssertionError("unreachable")

    def maybe_unit(self) -> str | None:
        # A trailing identifier is a unit unless it starts the next clause
        # (config key followed by '=', or constraint metric followed by a
        # comparator); only operators are spelt as those.
        following = self.texts[self.pos + 1]
        if not self.at_clause() or following == "=" or following in COMPARATORS:
            return None
        self.pos += 1
        return self.texts[self.pos - 1]

    def reject_unit_after(self, what: str):
        if self.maybe_unit() is not None:
            self.fail(f"{what} value cannot carry a unit", self.pos - 1)

    # -- productions ---------------------------------------------------------

    def parse_document(self) -> SlaDocument:
        start = self.expect("sla")
        title = self.expect_string("the agreement title")
        self.expect("{")
        doc_id = self.field("id", self.declare_id, "the agreement id")
        app_type = self.field("application", self.expect_ident, "an application type")
        start_date = self.field("starts", self.expect_date, "the start date")
        end_date = self.field("ends", self.expect_date, "the end date")
        self.expect("}")
        header_span = self.span(start)

        parties = self.blocks("party", self.parse_party)
        slos = self.blocks("slo", self.parse_slo)
        activities = self.blocks("activity", self.parse_activity)
        services = self.blocks("service", self.parse_owner, "service", SERVICE_KINDS)
        resources = self.blocks("resource", self.parse_owner, "resource", RESOURCE_KINDS)

        if self.kinds[self.pos] != "eof":
            self.fail(
                f"expected a party/slo/activity/service/resource block or end "
                f"of input, found {self._describe(self.pos)}",
                self.pos,
                frozenset({"party", "slo", "activity", "service", "resource"}),
            )

        return build_document(
            title=title,
            doc_id=doc_id,
            application_type=app_type,
            start_date=start_date,
            end_date=end_date,
            parties=parties,
            slos=slos,
            activities=activities,
            services=services,
            resources=resources,
            span=header_span,
        )

    def blocks(self, keyword: str, parse_block, *args) -> tuple:
        """``parse_block(*args)`` for each block in a row that opens with ``keyword``."""
        items = []
        while self.texts[self.pos] == keyword:
            items.append(parse_block(*args))
        return tuple(items)

    def parse_party(self) -> Party:
        start = self.expect("party")
        party_id = self.declare_id("a party id")
        self.expect("{")
        name = self.field("name", self.expect_string, "the party name")
        role = self.field("role", self.expect_choice, "ident", PARTY_ROLES, "a party role")
        self.expect("}")
        return Party(party_id, name, role, span=self.span(start))

    def parse_slo(self) -> Slo:
        start = self.expect("slo")
        slo_id = self.declare_id("an slo id")
        self.expect("on")
        if self.texts[self.pos] == APP_TARGET:
            target = self.texts[self.expect(APP_TARGET)]
        else:
            target = self.expect_ident("an slo target (app or an entity id)")
        self.expect("{")
        constraints = [self.parse_constraint()]
        while self.at_clause():
            constraints.append(self.parse_constraint())
        self.expect("}")
        return Slo(slo_id, target, tuple(constraints), span=self.span(start))

    def parse_constraint(self) -> MetricConstraint:
        start = self.pos
        metric = self.expect_ident("a metric name")
        comparator = self.expect_choice("op", COMPARATORS, "a comparator")
        value = self.parse_value()
        return MetricConstraint(metric, comparator, value, span=self.span(start))

    def parse_activity(self) -> WorkflowActivity:
        start = self.expect("activity")
        activity_id = self.declare_id("an activity id")
        self.expect(":")
        kind = self.expect_choice("name", ACTIVITY_KINDS, "an activity kind")
        self.expect("requires")
        required = [self.expect_ident("a service id")]
        while self.texts[self.pos] == ",":
            self.pos += 1
            required.append(self.expect_ident("a service id"))
        return WorkflowActivity(activity_id, kind, tuple(required), span=self.span(start))

    def parse_config_block(self) -> list[ConfigParam]:
        self.expect("{")
        params: list[ConfigParam] = []
        while self.at_clause():
            start = self.pos
            term = self.expect_ident("a configuration term")
            self.expect("=")
            value = self.parse_value()
            params.append(ConfigParam(term, value, span=self.span(start)))
        self.expect("}")
        return params

    def parse_owner(self, keyword: str, kinds: tuple[str, ...]) -> ServiceSpec | InfraResourceSpec:
        """A ``service`` or ``resource`` block; a service alone names the
        resource it is deployed ``on``."""
        start = self.expect(keyword)
        owner_id = self.declare_id(f"a {keyword} id")
        self.expect(":")
        kind = self.expect_choice("name", kinds, f"a {keyword} kind")
        deployed_on = ()
        if keyword == "service":
            self.expect("on")
            deployed_on = (self.expect_ident("a resource id"),)
        config = tuple(self.parse_config_block())
        owner = ServiceSpec if deployed_on else InfraResourceSpec
        return owner(owner_id, kind, *deployed_on, config=config, span=self.span(start))


def parse(text: str | bytes) -> SlaDocument:
    """Parse SLA source text.

    Raises :class:`ParseError` (and only ParseError) on any malformed
    input, with the 1-based position of the first offending token.  Kind
    and role words are checked during parsing because the model cannot
    represent unknown ones; everything semantic beyond that is left to the
    validator.
    """
    decoded = _decode(text)
    try:
        return _Parser(decoded).parse_document()
    except ValueError as exc:
        # Defensive: model constructors reject some malformed values before
        # the parser sees them; surface those as ordinary parse errors.
        raise ParseError(str(exc), 1, 1) from exc


# -- serialization ---------------------------------------------------------


def _escape_string(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def _format_value(value: TypedValue, number=decimal_repr) -> str:
    """``value`` as agreement text, its magnitude written by ``number``."""
    if value.tag == "numeric":
        text = number(value.magnitude)
        if value.unit is not None:
            return f"{text} {value.unit}"
        return text
    if value.tag == "boolean":
        return "true" if value.value else "false"
    # text and enumerated both serialize as quoted strings; a reparse reads
    # them back as text.
    return _escape_string(str(value.value))


def _slo_block(slo: Slo, target: str) -> str:
    lines = [f"slo {slo.id} on {target} {{"]
    for c in slo.constraints:
        lines.append(f"  {c.metric} {c.comparator} {_format_value(c.value)}")
    lines.append("}")
    return "\n".join(lines)


def serialize(doc: SlaDocument) -> str:
    """Canonical text form: two-space indent, one blank line between blocks.

    Deterministic, and a fixed point: serializing a document parsed from
    canonical text reproduces that text byte for byte.  Comments are not
    part of the model, so they do not survive.
    """
    blocks: list[str] = []
    blocks.append("\n".join([
        f"sla {_escape_string(doc.title)} {{",
        f"  id = {doc.id}",
        f"  application = {doc.application_type}",
        f"  starts = {doc.start_date.isoformat()}",
        f"  ends = {doc.end_date.isoformat()}",
        "}",
    ]))

    for party in doc.parties:
        blocks.append("\n".join([
            f"party {party.id} {{",
            f"  name = {_escape_string(party.name)}",
            f"  role = {party.role}",
            "}",
        ]))

    for owner, _, slo in owned_slos(doc):
        blocks.append(_slo_block(slo, owner or slo.target))

    for act in doc.activities:
        requires = ", ".join(act.required_services)
        blocks.append(f"activity {act.id} : {act.kind} requires {requires}")

    for owner in (*doc.services, *doc.resources):
        head = (f"service {owner.id} : {owner.kind} on {owner.deployed_on}"
                if isinstance(owner, ServiceSpec) else f"resource {owner.id} : {owner.kind}")
        blocks.append("\n".join([f"{head} {{", *[
            f"  {p.term} = {_format_value(p.value)}" for p in owner.config], "}"]))

    return "\n\n".join(blocks) + "\n"
