"""Tokeniser for the model language.

Identifiers, numbers (ASCII digits only, with an optional fraction part),
double-quoted strings and punctuation; ``#`` starts a comment running to
end of line, and whitespace separates tokens.  Every token carries its
source span.  Illegal characters become diagnostics rather than
exceptions so later stages can keep accumulating errors.

Keywords are not distinguished here: the parser matches identifier text in
context, which keeps labels free to reuse words like ``to`` or ``table``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Diagnostic, SourceSpan

IDENT = "identifier"
NUMBER = "number"
STRING = "string"

# Punctuation tokens use their own text as the kind.
_TWO_CHAR = ("==", "<=", ">=")
_ONE_CHAR = set("{}(),;:|<>=")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: SourceSpan


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
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
            tokens.append(
                Token(STRING, source[start + 1 : pos - 1], SourceSpan(start, pos, line, col))
            )
            continue
        if "0" <= ch <= "9":
            while pos < n and "0" <= source[pos] <= "9":
                pos += 1
            if pos + 1 < n and source[pos] == "." and "0" <= source[pos + 1] <= "9":
                pos += 1
                while pos < n and "0" <= source[pos] <= "9":
                    pos += 1
            tokens.append(Token(NUMBER, source[start:pos], SourceSpan(start, pos, line, col)))
            continue
        if ch.isalpha() or ch == "_":
            while pos < n and (source[pos].isalnum() or source[pos] == "_"):
                pos += 1
            tokens.append(Token(IDENT, source[start:pos], SourceSpan(start, pos, line, col)))
            continue
        two = source[pos : pos + 2]
        if two in _TWO_CHAR:
            pos += 2
            tokens.append(Token(two, two, SourceSpan(start, pos, line, col)))
            continue
        if ch in _ONE_CHAR:
            pos += 1
            tokens.append(Token(ch, ch, SourceSpan(start, pos, line, col)))
            continue
        diagnostics.append(
            Diagnostic(f"unexpected character {ch!r}", SourceSpan(start, pos + 1, line, col))
        )
        pos += 1

    return tokens, diagnostics
