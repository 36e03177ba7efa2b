"""Tokeniser for the model language.

Identifiers, numbers (ASCII digits only, with an optional fraction part),
double-quoted strings and punctuation; ``#`` starts a comment running to
end of line, and whitespace separates tokens.  Every token carries its
source span.  Illegal characters become diagnostics rather than
exceptions so later stages can keep accumulating errors.

Scanning is one pass of one compiled pattern, :data:`_MASTER`, in time
linear in the source: each match is a token, a run of whitespace, a
newline or a comment, named by the group it matched.  The pattern reads
ASCII text, and strings and comments of any characters; a non-ASCII
character anywhere else reaches slower rules, one character at a time:
an identifier starts at a character for which ``str.isalpha()``
holds or at ``_``, and continues while ``str.isalnum()`` holds or at
``_``; a character for which ``str.isspace()`` holds separates tokens;
any other character is an ``unexpected character`` diagnostic.  The
pattern avoids ``\\d`` and ``\\w`` because they disagree with these rules
on some characters: ``٣`` is a digit to ``\\d`` but not ``0``-``9``, and
``²`` is a word character to ``\\w`` but not alphabetic.  Digits are
``0``-``9`` only, and only ``\\n`` ends a line.

Keywords are not distinguished here: the parser matches identifier text in
context, which keeps labels free to reuse words like ``to`` or ``table``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import Diagnostic, SourceSpan

IDENT = "identifier"
NUMBER = "number"
STRING = "string"

# The ASCII characters str.isspace() accepts, less "\n".
_SPACE = r"[ \t\r\x0b\x0c\x1c-\x1f]"

# Punctuation tokens use their own text as the kind.  An ASCII identifier
# run followed by a non-ASCII character matches ``wide`` as well, which
# sends it to the slow identifier rule; ``other`` takes any character no
# earlier alternative starts with.
_MASTER = re.compile(
    rf"""
      (?P<ident>[A-Za-z_][A-Za-z0-9_]*)(?P<wide>[^\x00-\x7f])?
    | {_SPACE}+
    | (?P<punct>==|<=|>=|[{{}}(),;:|<>=])
    | (?P<newline>\n{_SPACE}*)
    | (?P<number>[0-9]+(?:\.[0-9]+)?)
    | (?P<string>"[^"\n]*")
    | \#[^\n]*
    | (?P<unterminated>"[^"\n]*)
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    """One token: its kind, its text (a string's without the quotes), and
    where it sits in the source."""

    kind: str
    text: str
    start: int
    end: int
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end, self.line, self.column)


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    # A tuple's constructor skips NamedTuple's Python-level __new__.
    new = tuple.__new__
    line = 1
    line_start = 0
    pos = 0
    n = len(source)
    while pos < n:
        for m in _MASTER.finditer(source, pos):
            kind = m.lastgroup
            if kind is None:  # whitespace or a comment
                continue
            start, end = m.span()
            column = start - line_start + 1
            if kind == "ident":
                append(new(Token, (IDENT, m.group(), start, end, line, column)))
            elif kind == "punct":
                text = m.group()
                append(new(Token, (text, text, start, end, line, column)))
            elif kind == "newline":
                line += 1
                line_start = start + 1
            elif kind == "number":
                append(new(Token, (NUMBER, m.group(), start, end, line, column)))
            elif kind == "string":
                text = source[start + 1 : end - 1]
                append(new(Token, (STRING, text, start, end, line, column)))
            elif kind == "unterminated":
                span = SourceSpan(start, end, line, column)
                diagnostics.append(Diagnostic("unterminated string", span))
            else:
                ch = source[start]
                if kind == "other" and ch.isspace():
                    continue
                if kind == "wide" or ch.isalpha():
                    # An identifier with a non-ASCII character in it: scan
                    # it by the slow rule, then resume the pattern after it.
                    pos = start + 1
                    while pos < n and (source[pos].isalnum() or source[pos] == "_"):
                        pos += 1
                    text = source[start:pos]
                    append(new(Token, (IDENT, text, start, pos, line, column)))
                    break
                span = SourceSpan(start, end, line, column)
                diagnostics.append(Diagnostic(f"unexpected character {ch!r}", span))
        else:
            break
    return tokens, diagnostics
