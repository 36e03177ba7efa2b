"""Differential tests of the tokeniser against a character-at-a-time
reference.

``_reference_tokenize`` is the loop the pattern-based lexer replaced,
kept here as the specification: the two must agree on every token's kind,
text and span, and on every diagnostic's message, span and order.  The
inputs mix the fuzz vocabulary with the characters where ``str`` methods
and regular-expression classes such as ``\\w`` and ``\\d`` disagree.
"""

from hypothesis import given, settings, strategies as st

from evidentia.dsl.diagnostics import Diagnostic, SourceSpan
from evidentia.dsl.lexer import IDENT, NUMBER, STRING, tokenize

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
    return [(t.kind, t.text, t.span) for t in tokens], diagnostics


# Letters, digits and spaces outside ASCII, where str methods and the
# regular-expression classes part ways: "²" and "٣" are alphanumeric but not
# alphabetic, "٣" is a decimal digit but not 0-9, and U+00A0, U+0085 and
# U+2028 are spaces that do not end a line.
UNICODE = ["é", "ß", "²", "٣", "\u00a0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
PIECES = (
    'model "m" { } dimension continuum partition query d x a b = , : ; ( ) | '
    "from to tranches aleph P not and in == < <= > >= 0 1 2.5 10 # \n \t \r "
    '" # . _ @ 0. .5 x1 _9'
).split(" ") + UNICODE

sources = st.one_of(
    st.text(alphabet=st.sampled_from("".join(PIECES) + "aZ9_"), max_size=60),
    st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
    st.lists(st.sampled_from(PIECES), max_size=40).map(" ".join),
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
