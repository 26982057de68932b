"""The tokenizer against the one it replaced, kept in parser_oracle.py.

Both must give the same token stream (type, text and both positions), the
same unescaped string values, or the same ``ParseError`` message and
position, on mutated fixtures and on soups of token fragments.
"""

from hypothesis import example, given, settings, strategies as st

from iotsla import ParseError
from iotsla import parser

import parser_oracle as oracle
from support import FIXTURES, fixture_text

FIXTURE_NAMES = sorted(path.name for path in FIXTURES.glob("*.sla"))

# Fragments that sit on the tokenizer's edges: line breaks of three kinds,
# whitespace it refuses, comments, strings closed, open and holding valid
# and invalid escapes, non-ASCII letters and digits, numerals, dates and
# every operator.
FRAGMENTS = [
    " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c",
    "#", "# only", "#\n", "# a # b\n", "#\r\n",
    '"', "\\", '"plain"', '"a\\"b"', '"\\n\\t\\\\"', '"\\q"', '"x\\', '"open',
    '"é\\n"', '"\\\n"',
    "é", "ß", "Ω", "ｆ", "٣", "²", "Ⅻ", "\U0001f600",
    "0", "5", "99.95", "1e5", "2.5E-3", ".5", "5.", "-1", "0x1", "1_000",
    "2026-01-01", "2026-13-40", "2026-1-1",
    "==", "<=", ">=", "<", ">", "=", "{", "}", ":", ",", "!", "=<",
    "sla", "on", "true", "x_1", "abc", "A", "_", "a-b",
]

fragment = st.sampled_from(FRAGMENTS) | st.text(max_size=2)


@st.composite
def mutated_fixture(draw) -> str:
    text = fixture_text(draw(st.sampled_from(FIXTURE_NAMES)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(fragment) + text[at + cut:]
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]  # e.g. a comment at EOF
    return text


token_soup = st.lists(fragment, max_size=40).map("".join)


def _error(exc: ParseError) -> tuple:
    return ("error", exc.message, exc.line, exc.col)


def _outcome(module, text: str):
    try:
        tokens = module._tokenize(text)
    except ParseError as exc:
        return _error(exc)
    if module is parser:
        # the parser ends its list in two eof tokens, the oracle in one
        assert tokens[-1] == tokens[-2] and tokens[-1].type == "eof"
        tokens = tokens[:-1]
    strings = []
    for token in tokens:
        if token.type == "string":
            try:
                strings.append(module._unescape_string(token))
            except ParseError as exc:
                strings.append(_error(exc))
    stream = [(t.type, t.text, t.line, t.col, t.end_line, t.end_col) for t in tokens]
    return stream, strings


def _same(text: str):
    assert _outcome(parser, text) == _outcome(oracle, text)


@settings(max_examples=300, deadline=None)
@given(mutated_fixture())
def test_mutated_fixtures_tokenize_as_before(text):
    _same(text)


@settings(max_examples=600, deadline=None)
@given(token_soup)
@example("sla # only")
@example("# only")
@example("#")
@example("a\r\nb\rc\n\rd")
@example("\x0b")
@example("a \x0c b")
@example('x "open')
@example('"a\\qb" "c\\\\"')
@example("é")
@example("x٣ 2²")
def test_token_soups_tokenize_as_before(text):
    _same(text)


def test_fixtures_tokenize_as_before():
    for name in FIXTURE_NAMES:
        _same(fixture_text(name))
