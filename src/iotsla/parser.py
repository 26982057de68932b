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


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, one regex match each, then two ``eof`` tokens:
    looking one token ahead never runs off the end."""
    tokens: list[_Token] = []
    append = tokens.append
    match_at = _TOKEN_RE.match
    new = tuple.__new__  # a _Token checks nothing, so skip its Python-level __new__
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``
    while True:
        match = match_at(text, pos)
        kind = match.lastgroup
        start = match.start(kind)
        newlines = text.count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", pos, start) + 1
        col = start - line_start + 1
        if kind == "eof":
            break
        pos = match.end()
        append(new(_Token, (kind, match.group(kind), line, col, line, col + pos - start)))
    if start < len(text):
        char = text[start]
        if char == '"':
            raise ParseError("unterminated string literal", line, col)
        raise ParseError(f"unexpected character {char!r}", line, col)
    eof = _Token("eof", "", line, col, line, col)
    tokens += (eof, eof)
    return tokens


def _unescape_string(token: _Token) -> str:
    body = token.text[1:-1]
    if "\\" not in body:
        return body

    def unescape(match: re.Match) -> str:
        escape = match.group(1)
        if escape not in _STRING_ESCAPES:
            raise ParseError(
                f"invalid escape sequence '\\{escape}'", token.line, token.col
            )
        return _STRING_ESCAPES[escape]

    return _ESCAPE_RE.sub(unescape, body)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.seen_ids: dict[str, _Token] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.type != "eof":
            self.pos += 1
        return token

    def fail(self, message: str, token: _Token, expected: frozenset[str] | None = None):
        raise ParseError(message, token.line, token.col, expected)

    def _describe(self, token: _Token) -> str:
        if token.type == "eof":
            return "end of input"
        return repr(token.text)

    def expect(self, text: str) -> _Token:
        """The next token, a keyword or operator spelt ``text``: no other
        kind of token is spelt as one."""
        token = self.tokens[self.pos]
        if token.text != text:
            self.fail(f"expected {text!r}, found {self._describe(token)}", token,
                      frozenset({text}))
        self.pos += 1  # the token is not eof, so advance()'s check is not needed
        return token

    def expect_ident(self, what: str = "identifier") -> _Token:
        token = self.tokens[self.pos]
        if token.type != "ident":
            self.fail(f"expected {what}, found {self._describe(token)}", token,
                      frozenset({what}))
        if token.text in KEYWORDS:
            self.fail(f"{token.text!r} is a reserved keyword", token)
        self.pos += 1
        return token

    def expect_choice(self, token_type: str, choices: tuple[str, ...], what: str) -> _Token:
        """The next token, a ``token_type`` in ``choices``.

        A ``"name"`` is an identifier read by :meth:`expect_ident`, and one
        outside ``choices`` is unknown; any other token outside them fails
        with ``choices`` listed.  ``what`` begins with its article.
        """
        if token_type == "name":
            token = self.expect_ident(what)
            if token.text not in choices:
                self.fail(f"unknown {what.partition(' ')[2]} {token.text!r}", token,
                          frozenset(choices))
            return token
        token = self.tokens[self.pos]
        if token.type != token_type or token.text not in choices:
            self.fail(f"expected {what} ({', '.join(choices)}), found {self._describe(token)}",
                      token, frozenset(choices))
        self.pos += 1
        return token

    def expect_string(self, what: str) -> str:
        token = self.peek()
        if token.type != "string":
            self.fail(f"expected {what} (a quoted string), found {self._describe(token)}",
                      token, frozenset({"string"}))
        self.advance()
        return _unescape_string(token)

    def expect_date(self, what: str) -> date:
        token = self.peek()
        if token.type != "date":
            self.fail(f"expected {what} (YYYY-MM-DD), found {self._describe(token)}",
                      token, frozenset({"date"}))
        try:
            value = date.fromisoformat(token.text)
        except ValueError:
            self.fail(f"invalid calendar date {token.text!r}", token)
        self.advance()
        return value

    def declare_id(self, token: _Token) -> str:
        if token.text in self.seen_ids:
            self.fail(f"duplicate identifier {token.text!r}", token)
        self.seen_ids[token.text] = token
        return token.text

    @staticmethod
    def span(start: _Token, end: _Token) -> SourceSpan:
        # ``end`` is never read before ``start``, so the span's check would pass
        return tuple.__new__(SourceSpan, (start.line, start.col, end.end_line, end.end_col))

    def prev(self) -> _Token:
        return self.tokens[self.pos - 1]

    def field(self, key: str, read, *args):
        """``read(*args)`` after ``key =``."""
        self.expect(key)
        self.expect("=")
        return read(*args)

    # -- values ------------------------------------------------------------

    def parse_value(self) -> TypedValue:
        token = self.tokens[self.pos]
        if token.type == "number":
            self.pos += 1
            try:
                magnitude = exact_number(token.text)
            except ValueError as exc:
                self.fail(str(exc), token)
            unit = self.maybe_unit()
            return TypedValue("numeric", magnitude, unit)
        if token.type == "ident" and token.text in ("true", "false"):
            self.pos += 1
            self.reject_unit_after("a boolean")
            return TypedValue.boolean(token.text == "true")
        if token.type == "string":
            self.pos += 1
            self.reject_unit_after("a text")
            return TypedValue.text(_unescape_string(token))
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
        # comparator).
        token = self.tokens[self.pos]
        if token.type != "ident" or token.text in KEYWORDS:
            return None
        following = self.tokens[self.pos + 1]
        if following.type == "op" and (following.text == "=" or following.text in COMPARATORS):
            return None
        self.pos += 1
        return token.text

    def reject_unit_after(self, what: str):
        unit = self.maybe_unit()
        if unit is not None:
            self.fail(f"{what} value cannot carry a unit", self.prev())

    # -- productions ---------------------------------------------------------

    def parse_document(self) -> SlaDocument:
        start = self.peek()
        self.expect("sla")
        title = self.expect_string("the agreement title")
        self.expect("{")
        doc_id_token = self.field("id", self.expect_ident, "the agreement id")
        self.declare_id(doc_id_token)
        app_type = self.field("application", self.expect_ident, "an application type").text
        start_date = self.field("starts", self.expect_date, "the start date")
        end_date = self.field("ends", self.expect_date, "the end date")
        self.expect("}")
        header_span = self.span(start, self.prev())

        parties = self.blocks("party", self.parse_party)
        slos = self.blocks("slo", self.parse_slo)
        activities = self.blocks("activity", self.parse_activity)
        services = self.blocks("service", self.parse_owner, "service", SERVICE_KINDS)
        resources = self.blocks("resource", self.parse_owner, "resource", RESOURCE_KINDS)

        trailing = self.peek()
        if trailing.type != "eof":
            self.fail(
                f"expected a party/slo/activity/service/resource block or end "
                f"of input, found {self._describe(trailing)}",
                trailing,
                frozenset({"party", "slo", "activity", "service", "resource"}),
            )

        return build_document(
            title=title,
            doc_id=doc_id_token.text,
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
        while self.peek().text == keyword:
            items.append(parse_block(*args))
        return tuple(items)

    def parse_party(self) -> Party:
        start = self.expect("party")
        id_token = self.expect_ident("a party id")
        self.declare_id(id_token)
        self.expect("{")
        name = self.field("name", self.expect_string, "the party name")
        role = self.field("role", self.expect_choice, "ident", PARTY_ROLES, "a party role").text
        self.expect("}")
        return Party(id_token.text, name, role,
                     span=self.span(start, self.prev()))

    def parse_slo(self) -> Slo:
        start = self.expect("slo")
        id_token = self.expect_ident("an slo id")
        self.declare_id(id_token)
        self.expect("on")
        if self.peek().text == APP_TARGET:
            target = self.advance().text
        else:
            target = self.expect_ident("an slo target (app or an entity id)").text
        self.expect("{")
        constraints = [self.parse_constraint()]
        while (token := self.tokens[self.pos]).type == "ident" and token.text not in KEYWORDS:
            constraints.append(self.parse_constraint())
        self.expect("}")
        return Slo(id_token.text, target, tuple(constraints),
                   span=self.span(start, self.prev()))

    def parse_constraint(self) -> MetricConstraint:
        metric_token = self.expect_ident("a metric name")
        comparator = self.expect_choice("op", COMPARATORS, "a comparator").text
        value = self.parse_value()
        return MetricConstraint(
            metric_token.text, comparator, value,
            span=self.span(metric_token, self.prev()),
        )

    def parse_activity(self) -> WorkflowActivity:
        start = self.expect("activity")
        id_token = self.expect_ident("an activity id")
        self.declare_id(id_token)
        self.expect(":")
        kind = self.expect_choice("name", ACTIVITY_KINDS, "an activity kind").text
        self.expect("requires")
        required = [self.expect_ident("a service id").text]
        while self.peek().text == ",":
            self.advance()
            required.append(self.expect_ident("a service id").text)
        return WorkflowActivity(id_token.text, kind, tuple(required),
                                span=self.span(start, self.prev()))

    def parse_config_block(self) -> list[ConfigParam]:
        self.expect("{")
        params: list[ConfigParam] = []
        while (token := self.tokens[self.pos]).type == "ident" and token.text not in KEYWORDS:
            term_token = self.expect_ident("a configuration term")
            self.expect("=")
            value = self.parse_value()
            params.append(ConfigParam(term_token.text, value,
                                      span=self.span(term_token, self.prev())))
        self.expect("}")
        return params

    def parse_owner(self, keyword: str, kinds: tuple[str, ...]) -> ServiceSpec | InfraResourceSpec:
        """A ``service`` or ``resource`` block; a service alone names the
        resource it is deployed ``on``."""
        start = self.expect(keyword)
        id_token = self.expect_ident(f"a {keyword} id")
        self.declare_id(id_token)
        self.expect(":")
        kind = self.expect_choice("name", kinds, f"a {keyword} kind").text
        deployed_on = ()
        if keyword == "service":
            self.expect("on")
            deployed_on = (self.expect_ident("a resource id").text,)
        config = tuple(self.parse_config_block())
        owner = ServiceSpec if deployed_on else InfraResourceSpec
        return owner(id_token.text, kind, *deployed_on, config=config,
                     span=self.span(start, self.prev()))


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
        return _Parser(_tokenize(decoded)).parse_document()
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
