"""Every entity span against the token stream of the oracle tokenizer.

The parser computes a line and column only when it builds a span, from the
token's offset.  Here each entity is found again in ``parser_oracle``'s
token list by its shape alone, and its span must run from the ``(line,
col)`` of the token that opens it to the ``(end_line, end_col)`` of the
token that closes it: the header, parties, SLOs, constraints, activities,
services, resources and configuration parameters, on every fixture and on
mutated fixtures that still parse.
"""

from hypothesis import given, settings, strategies as st

from iotsla import COMPARATORS, ParseError, parse

import parser_oracle as oracle
from support import fixture_text
from test_parser_oracle import FIXTURE_NAMES, mutated_fixture

BLOCKS = ("party", "slo", "activity", "service", "resource")

# layout that moves the tokens after it without changing what they are
LAYOUT = [" ", "\t", "\n", "\r\n", "\n\n", "  # note\n", "#\n", "\t# a # b\r\n"]


@st.composite
def relaid_fixture(draw) -> str:
    """A fixture with layout inserted before some of its whitespace, which
    parses unless a string literal took the layout."""
    text = fixture_text(draw(st.sampled_from(FIXTURE_NAMES)))
    for _ in range(draw(st.integers(1, 6))):
        gaps = [i for i, char in enumerate(text) if char in " \n"]
        at = draw(st.sampled_from(gaps))
        text = text[:at] + draw(st.sampled_from(LAYOUT)) + text[at:]
    return text


def _oracle_spans(text: str) -> list[tuple]:
    """(kind, span) of each entity, read off the oracle's tokens."""
    tokens = oracle._tokenize(text)
    spans = []

    def add(kind: str, first: int, last: int):
        start, end = tokens[first], tokens[last]
        spans.append((kind, (start.line, start.col, end.end_line, end.end_col)))

    def after(i: int, text: str) -> int:
        return next(j for j in range(i, len(tokens)) if tokens[j].text == text)

    def clauses(kind: str, opening: int, closing: int, heads: tuple[str, ...]):
        """Split the tokens between two braces at each one followed by an
        operator in ``heads``: a metric before its comparator, a term
        before its ``=``."""
        starts = [j for j in range(opening + 1, closing)
                  if tokens[j + 1].type == "op" and tokens[j + 1].text in heads]
        for first, following in zip(starts, starts[1:] + [closing]):
            add(kind, first, following - 1)

    i = after(0, "}")
    add("header", 0, i)
    i += 1
    while tokens[i].type != "eof":
        kind = tokens[i].text
        if kind == "activity":  # no braces: it runs to the next block
            last = next(j for j in range(i + 1, len(tokens))
                        if tokens[j].type == "eof" or tokens[j].text in BLOCKS) - 1
        else:
            last = after(i, "}")
            if kind == "slo":
                clauses("constraint", after(i, "{"), last, COMPARATORS)
            elif kind != "party":
                clauses("config", after(i, "{"), last, ("=",))
        add(kind, i, last)
        i = last + 1
    return sorted(spans)


def _model_spans(doc) -> list[tuple]:
    spans = [("header", doc.span)]
    spans += [("party", party.span) for party in doc.parties]
    for slo in doc.all_slos():
        spans.append(("slo", slo.span))
        spans += [("constraint", c.span) for c in slo.constraints]
    spans += [("activity", activity.span) for activity in doc.activities]
    for kind, owners in (("service", doc.services), ("resource", doc.resources)):
        for owner in owners:
            spans.append((kind, owner.span))
            spans += [("config", param.span) for param in owner.config]
    return sorted((kind, tuple(span)) for kind, span in spans)


def _same_spans(text: str) -> bool:
    """Whether ``text`` parsed, after checking its spans if it did."""
    try:
        doc = parse(text)
    except ParseError:
        return False
    assert _model_spans(doc) == _oracle_spans(text)
    return True


def test_fixture_spans_match_the_oracle_tokens():
    for name in FIXTURE_NAMES:
        assert _same_spans(fixture_text(name)), name


@settings(max_examples=300, deadline=None)
@given(relaid_fixture() | mutated_fixture())
def test_mutated_fixture_spans_match_the_oracle_tokens(text):
    _same_spans(text)
