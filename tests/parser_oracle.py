"""The tokenizer as it was before the single ``finditer`` pass: the oracle.

``_Token``, ``_tokenize`` and ``_unescape_string`` below are the code that
``iotsla.parser`` replaced, kept unchanged but for absolute imports, with
the token regex and escape table they used.  ``_tokenize`` matches one
token at a time from the current offset and keeps the column by hand;
``_unescape_string`` walks the string body character by character.  Both
are slow but simple, so ``test_parser_oracle.py`` checks the parser's
token streams, unescaped strings and errors against them on generated
text.

One shape differs: this token list ends in one ``eof`` token, the
parser's in two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from iotsla.constraints import DECIMAL_RE
from iotsla.errors import ParseError

_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<date>%s)
    | (?P<number>%s)
    | (?P<ident>[a-z][a-z0-9_]*)
    | (?P<string>"(?:\\.|[^"\\\n])*")
    | (?P<op>==|<=|>=|[{}=:,<>])
    """ % (_DATE_RE.pattern, DECIMAL_RE.pattern),
    re.VERBOSE,
)

_STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


@dataclass(frozen=True)
class _Token:
    type: str  # date | number | ident | string | op | eof
    text: str
    line: int
    col: int
    end_line: int
    end_col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    col = 1
    length = len(text)
    while pos < length:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            char = text[pos]
            if char == '"':
                raise ParseError("unterminated string literal", line, col)
            raise ParseError(f"unexpected character {char!r}", line, col)
        kind = match.lastgroup
        raw = match.group()
        if kind in ("ws", "comment"):
            newlines = raw.count("\n")
            if newlines:
                line += newlines
                col = len(raw) - raw.rfind("\n")
            else:
                col += len(raw)
        else:
            assert kind is not None
            end_col = col + len(raw)
            tokens.append(_Token(kind, raw, line, col, line, end_col))
            col = end_col
        pos = match.end()
    tokens.append(_Token("eof", "", line, col, line, col))
    return tokens


def _unescape_string(token: _Token) -> str:
    body = token.text[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        char = body[i]
        if char == "\\":
            escape = body[i + 1]
            if escape not in _STRING_ESCAPES:
                raise ParseError(
                    f"invalid escape sequence '\\{escape}'", token.line, token.col
                )
            out.append(_STRING_ESCAPES[escape])
            i += 2
        else:
            out.append(char)
            i += 1
    return "".join(out)
