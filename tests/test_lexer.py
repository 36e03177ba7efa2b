"""Differential tests of the tokeniser against a character-at-a-time
reference.

``_reference_tokenize`` is the loop the pattern-based lexer replaced,
kept here as the specification: the two must agree on every token's kind,
text and span, and on every diagnostic's message, span and order, once
each label-list token is expanded into the tokens it stands for.  The
inputs mix the fuzz vocabulary with the characters where ``str`` methods
and regular-expression classes such as ``\\w`` and ``\\d`` disagree, and
with label lists, well formed or nearly so.  The parser, given the
reference's tokens, must build the same tree and report the same
diagnostics as :func:`parse_model` does from the lexer's.
"""

import dataclasses
import time

import pytest
from hypothesis import given, settings, strategies as st

from evidentia.dsl import ModelError, parse_model
from evidentia.dsl.diagnostics import Diagnostic, SourceSpan
from evidentia.dsl.lexer import IDENT, LIST, NUMBER, STRING, Token, expand, list_labels, tokenize
from evidentia.dsl.parser import _Parser

_TWO_CHAR = ("==", "<=", ">=")
_ONE_CHAR = set("{}(),;:|<>=")


def _reference_tokenize(source: str):
    """Tokens as ``(kind, text, span)`` triples, and diagnostics."""
    tokens = []
    diagnostics = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)

    while pos < n:
        ch = source[pos]
        if ch == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        if ch.isspace():
            pos += 1
            continue
        if ch == "#":
            while pos < n and source[pos] != "\n":
                pos += 1
            continue
        col = pos - line_start + 1
        start = pos
        if ch == '"':
            pos += 1
            while pos < n and source[pos] not in ('"', "\n"):
                pos += 1
            if pos >= n or source[pos] == "\n":
                diagnostics.append(
                    Diagnostic("unterminated string", SourceSpan(start, pos, line, col))
                )
                continue
            pos += 1
            tokens.append((STRING, source[start + 1 : pos - 1], SourceSpan(start, pos, line, col)))
            continue
        if "0" <= ch <= "9":
            while pos < n and "0" <= source[pos] <= "9":
                pos += 1
            if pos + 1 < n and source[pos] == "." and "0" <= source[pos + 1] <= "9":
                pos += 1
                while pos < n and "0" <= source[pos] <= "9":
                    pos += 1
            tokens.append((NUMBER, source[start:pos], SourceSpan(start, pos, line, col)))
            continue
        if ch.isalpha() or ch == "_":
            while pos < n and (source[pos].isalnum() or source[pos] == "_"):
                pos += 1
            tokens.append((IDENT, source[start:pos], SourceSpan(start, pos, line, col)))
            continue
        two = source[pos : pos + 2]
        if two in _TWO_CHAR:
            pos += 2
            tokens.append((two, two, SourceSpan(start, pos, line, col)))
            continue
        if ch in _ONE_CHAR:
            pos += 1
            tokens.append((ch, ch, SourceSpan(start, pos, line, col)))
            continue
        diagnostics.append(
            Diagnostic(f"unexpected character {ch!r}", SourceSpan(start, pos + 1, line, col))
        )
        pos += 1

    return tokens, diagnostics


def _lexed(source: str):
    tokens, diagnostics = tokenize(source)
    return [(t.kind, t.text, t.span) for token in tokens for t in expand(token)], diagnostics


# Letters, digits and spaces outside ASCII, where str methods and the
# regular-expression classes part ways: "²" and "٣" are alphanumeric but not
# alphabetic, "٣" is a decimal digit but not 0-9, and U+00A0, U+0085 and
# U+2028 are spaces that do not end a line.
UNICODE = ["é", "ß", "²", "٣", "\u00a0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
PIECES = (
    'model "m" { } dimension continuum partition query d x a b = , : ; ( ) | '
    "from to tranches aleph P not and in == < <= > >= 0 1 2.5 10 # \n \t \r "
    '" # . _ @ 0. .5 x1 _9'
).split(" ") + UNICODE + [
    # Pieces of label lists: openings, and what may sit between labels.
    "in {", "= {", "d in {a, b}", "{a,\n b}", ", ", ",\n", " # c, }\n", '"a,b"', '"}"', '"#"',
]

# Labels (keywords, strings holding list punctuation), the gaps between
# them and separators, and the flaws that make the pattern refuse a list,
# one at a time: a non-ASCII label, a non-ASCII space, a wrong separator, a
# wrong end, or no labels at all.
LIST_LABELS = ["a", "b", "q1", "_", "7", "2.5", '"a b"', '"}"', '","', '"#"', "query", "in", "model", "zz"]
GAPS = ["", "", " ", "\n", "  # note, }\n  ", "\t", "\r\n", "\x0c"]
SEPARATORS = [",", ",", ", ", ",\n"]
FLAWS = {"label": ["é", "aé"], "gap": ["\u00a0"], "separator": ["", ",,", ";"], "end": [",}", "", "@}"]}


@st.composite
def label_lists(draw):
    """A list the pattern reads whole, or one with a single flaw."""
    labels = draw(st.lists(st.sampled_from(LIST_LABELS), min_size=1, max_size=6))
    n = len(labels)
    gaps = draw(st.lists(st.sampled_from(GAPS), min_size=2 * n, max_size=2 * n))
    separators = draw(st.lists(st.sampled_from(SEPARATORS), min_size=n - 1, max_size=n - 1))
    end = ["}"]
    flaw = draw(st.sampled_from([None, None, "empty", *FLAWS]))
    if flaw == "empty":
        return "{" + gaps[0] + "}"
    parts = {"label": labels, "gap": gaps, "separator": separators, "end": end}.get(flaw)
    if parts:
        parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(FLAWS[flaw]))
    text = "{" + gaps[0]
    for i, label in enumerate(labels):
        if i:
            text += separators[i - 1] + gaps[2 * i]
        text += label + gaps[2 * i + 1]
    return text + end[0]


# A list after "in" or "=", in the places the grammar wants one and in
# places it does not.
query_lines = st.builds(
    lambda kind, name, op, labels, tail: f"query {kind}({name} {op}{labels}{tail}\n",
    st.sampled_from("POLE"),
    st.sampled_from(["d", "x", "zz", "in"]),
    st.sampled_from(["in ", "in ", "= ", "== ", "in in ", ""]),
    label_lists(),
    st.sampled_from([")", ")", " or d in {a})", " | d in {a, a})", ""]),
)
statement_lines = st.builds(
    lambda head, labels: f"  {head}{labels}\n",
    st.sampled_from(
        ["dimension e = ", "dimension e = ", "dimension e in ", "partition in ", "dimension e = = "]
    ),
    label_lists(),
)
model_texts = st.builds(
    lambda labels, statements, block, queries: (
        'model "m" {\n  dimension d = ' + labels + "\n  continuum x from 0 to 10 tranches 4\n"
        + "".join(statements) + "  partition p { b: d in " + block + "; }\n}\n" + "".join(queries)
    ),
    label_lists(),
    st.lists(statement_lines, max_size=2),
    label_lists(),
    st.lists(query_lines, min_size=1, max_size=5),
)
# Whole models, models cut short anywhere, and lists after other tokens.
model_sources = st.one_of(
    model_texts,
    model_texts.flatmap(lambda text: st.integers(0, len(text)).map(lambda k: text[:k])),
    st.builds("".join, st.lists(st.one_of(st.sampled_from(PIECES), label_lists()), max_size=30)),
)

sources = st.one_of(
    st.text(alphabet=st.sampled_from("".join(PIECES) + "aZ9_"), max_size=60),
    st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
    st.lists(st.sampled_from(PIECES), max_size=40).map(" ".join),
    model_sources,
)


@settings(max_examples=600)
@given(source=sources)
def test_lexer_matches_the_reference(source):
    assert _lexed(source) == _reference_tokenize(source)


def test_each_character_matches_the_reference():
    # Every character up to U+3000 (Latin, Greek, Cyrillic, Arabic-Indic
    # digits, superscripts, the Unicode spaces), alone and inside an
    # identifier, after a number and before one.
    for code in range(0x3001):
        ch = chr(code)
        for source in (ch, f"a{ch}b", f"1{ch}", f"{ch}x9 2"):
            assert _lexed(source) == _reference_tokenize(source), repr(source)


def test_token_span_is_built_from_its_fields():
    (token,), _ = tokenize('\n  "ab"')
    assert (token.kind, token.text) == (STRING, "ab")
    assert token.span == SourceSpan(3, 7, 2, 3)


# -- label lists -------------------------------------------------------------------


def test_a_label_list_is_one_token():
    source = 'd = {a,\n  "b, }" # c, }\n  , 2.5}  x\nin {q}'
    tokens, diagnostics = tokenize(source)
    assert not diagnostics
    assert [t.kind for t in tokens] == [IDENT, "=", LIST, IDENT, IDENT, LIST]
    listed = tokens[2]
    assert listed.text == source[4:32] and listed.span == SourceSpan(4, 32, 1, 5)
    assert list_labels(listed) == ["a", "b, }", "2.5"]
    # Counting goes on after a list that spans lines.
    assert tokens[3].span == SourceSpan(34, 35, 3, 11)
    assert tokens[5].span == SourceSpan(39, 42, 4, 4)
    assert list_labels(tokens[5]) == ["q"]
    assert [t for token in tokens for t in expand(token)][2:12] == [
        Token("{", "{", 4, 5, 1, 5),
        Token(IDENT, "a", 5, 6, 1, 6),
        Token(",", ",", 6, 7, 1, 7),
        Token(STRING, "b, }", 10, 16, 2, 3),
        Token(",", ",", 26, 27, 3, 3),
        Token(NUMBER, "2.5", 28, 31, 3, 5),
        Token("}", "}", 31, 32, 3, 8),
        Token(IDENT, "x", 34, 35, 3, 11),
        Token(IDENT, "in", 36, 38, 4, 1),
        Token("{", "{", 39, 40, 4, 4),
    ]


@pytest.mark.parametrize(
    "source",
    ["x in {}", "x in {a,}", "x in {a b}", "x in {a,,b}", "x = {é}", 'x = {"a}', "x in {a @}",
     "x in {a # c}", "x in {1.}", "model {a}", "x == {a}", 'x in {a\u00a0}'],
)
def test_lists_the_pattern_refuses_are_scanned_token_by_token(source):
    tokens, _ = tokenize(source)
    assert LIST not in [t.kind for t in tokens]
    assert _lexed(source) == _reference_tokenize(source)


# Each list below is refused; a pattern with more than one way to read its
# input could take exponential time to say so.
@pytest.mark.parametrize(
    "source",
    [
        "x in {a " + "#" * 10**4 + "\n b c}",
        "x in {" + ", ".join(f"l{i}" for i in range(10**5)) + ",}",
        "in {a," * 10**4,
    ],
    ids=["long-comment", "long-list", "many-openings"],
)
def test_refused_lists_take_linear_time(source):
    started = time.perf_counter()
    tokens, _ = tokenize(source)
    elapsed = time.perf_counter() - started
    assert LIST not in [t.kind for t in tokens]
    assert elapsed < 5


# -- the parser on the reference tokens ----------------------------------------------


def _spanned(node):
    """A syntax tree as nested tuples that keep every span, which node
    equality ignores."""
    if isinstance(node, tuple):
        return tuple(_spanned(item) for item in node)
    if dataclasses.is_dataclass(node) and not isinstance(node, SourceSpan):
        return (type(node).__name__,) + tuple(
            _spanned(getattr(node, f.name)) for f in dataclasses.fields(node)
        )
    return node


def _parsed(tokens, diagnostics):
    """The tree and the sorted diagnostics the parser gives for tokens."""
    parser = _Parser(tokens)
    parser.diagnostics.extend(diagnostics)
    model = parser.parse_file()
    return _spanned(model), sorted(parser.diagnostics, key=lambda d: (d.span.start, d.message))


def _assert_parser_matches_the_reference(source):
    triples, reference_diagnostics = _reference_tokenize(source)
    if not triples and not reference_diagnostics:
        return
    reference = [Token(kind, text, *dataclasses.astuple(span)) for kind, text, span in triples]
    expected = _parsed(reference, reference_diagnostics)
    assert _parsed(*tokenize(source)) == expected
    try:
        model = parse_model(source)
    except ModelError as err:
        assert err.diagnostics == expected[1]
    else:
        assert (_spanned(model), []) == expected


@settings(max_examples=300)
@given(source=model_sources)
def test_parser_matches_the_reference_tokens(source):
    _assert_parser_matches_the_reference(source)


# A list token where the grammar wants no list: in a message ("found '{'"),
# where the parser expects a '{', and where it skips to the next statement,
# which may start at a keyword used as a label or at the list's '}'.
@pytest.mark.parametrize(
    "tail",
    [
        "query P(in {a, b})\nquery P(d == a)\n",
        "query P(d = {query, P(d in {a}), b})\nquery O(d in {b})\n",
        "query P(d = {a,\n  b}) query P(d in {a})\n",
    ],
)
@pytest.mark.parametrize(
    "statement", ["", "  dimension e in {a}\n", "  partition in {b}\n", "  dimension e = = {a, b}\n"]
)
def test_list_tokens_where_no_list_belongs(statement, tail):
    source = 'model "m" {\n  dimension d = {a, b}\n' + statement + "}\n" + tail
    assert LIST in [t.kind for t in tokenize(source)[0][7:]]
    _assert_parser_matches_the_reference(source)
