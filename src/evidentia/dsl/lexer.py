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

A braced label list after ``in`` or ``=`` is read in one match of
:data:`_LIST`: one or more labels (ASCII identifiers, numbers or strings)
separated by commas, with whitespace, newlines and comments between them,
becomes a single :data:`LIST` token whose text is the source of the whole
list.  :func:`expand` gives back the tokens such a list stands for.  A list
the pattern refuses (empty, a trailing or missing comma, a non-ASCII
identifier, a stray character) is scanned token by token as above.  Each
input has only one way to match the pattern, so a refusal costs time linear
in what was read: comments in a gap must end at their newline, and the
repeats inside a gap cannot trade characters with one another.

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
LIST = "list"
#: The kinds of token a label may be.
LABEL_KINDS = (IDENT, NUMBER, STRING)

# The ASCII characters str.isspace() accepts, less "\n".
_SPACE_CHARS = r" \t\r\x0b\x0c\x1c-\x1f"
_SPACE = f"[{_SPACE_CHARS}]"
#: An ASCII identifier and a number: the two forms of a bare label, which
#: the scan, the label-list pattern and rendering back to source all share.
IDENT_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"
NUMBER_PATTERN = r"[0-9]+(?:\.[0-9]+)?"

# Punctuation tokens use their own text as the kind.  An ASCII identifier
# run followed by a non-ASCII character matches ``wide`` as well, which
# sends it to the slow identifier rule; ``other`` takes any character no
# earlier alternative starts with.
_MASTER = re.compile(
    rf"""
      (?P<ident>{IDENT_PATTERN})(?P<wide>[^\x00-\x7f])?
    | {_SPACE}+
    | (?P<punct>==|<=|>=|[{{}}(),;:|<>=])
    | (?P<newline>\n{_SPACE}*)
    | (?P<number>{NUMBER_PATTERN})
    | (?P<string>"[^"\n]*")
    | \#[^\n]*
    | (?P<unterminated>"[^"\n]*)
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)


# Whitespace and comments between the labels of a list.  A comment there
# must end at its newline, so a run of "#" has one reading, not one per way
# of cutting it into comments.
_BLANK = rf"[\n{_SPACE_CHARS}]*"
_GAP = rf"{_BLANK}(?:\#[^\n]*\n{_BLANK})*"
_LABEL = rf'(?:{IDENT_PATTERN}|{NUMBER_PATTERN}|"[^"\n]*")'
# "(?=(X))\1" reads X as an atomic group would; Python 3.10 has none.  The
# repeat never backtracks into a comma and label it has read, so a list the
# pattern refuses costs time linear in its length, and the matcher keeps
# one small frame per label rather than one per choice inside it.
_LIST = re.compile(rf"\{{{_GAP}{_LABEL}(?:(?=({_GAP},{_GAP}{_LABEL}))\1)*{_GAP}\}}")
# The labels of a list without strings or comments: the runs of the
# characters identifiers and numbers are made of.
_BARE_LABEL = re.compile(r"[A-Za-z0-9_.]+")


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
    return _scan(source, 1, 0)


def expand(token: Token) -> list[Token]:
    """The tokens a :data:`LIST` token stands for, with the kinds, texts and
    spans the token-by-token scan gives them; any other token alone."""
    if token.kind != LIST:
        return [token]
    # Scanned on its own, a list's text never starts another list token:
    # its "{" has no token before it, and its other braces are in strings.
    tokens, _ = _scan(token.text, token.line, 1 - token.column)
    base = token.start
    return [
        tuple.__new__(Token, (kind, text, start + base, end + base, line, column))
        for kind, text, start, end, line, column in tokens
    ]


def list_labels(token: Token) -> list[str]:
    """The label texts of a :data:`LIST` token, in order, repeats kept."""
    text = token.text
    if '"' in text or "#" in text:
        return [t.text for t in expand(token) if t.kind in LABEL_KINDS]
    return _BARE_LABEL.findall(text)


def _scan(source: str, line: int, line_start: int) -> tuple[list[Token], list[Diagnostic]]:
    """Tokens and diagnostics of ``source``, whose first character sits on
    ``line`` at column ``1 - line_start``."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    # A tuple's constructor skips NamedTuple's Python-level __new__.
    new = tuple.__new__
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
                if text == "{" and tokens:
                    before = tokens[-1]
                    if before[0] == "=" or (before[1] == "in" and before[0] == IDENT):
                        listed = _LIST.match(source, start)
                        if listed is not None:
                            pos = listed.end()
                            text = listed.group()
                            append(new(Token, (LIST, text, start, pos, line, column)))
                            breaks = text.count("\n")
                            if breaks:
                                line += breaks
                                line_start = start + text.rindex("\n") + 1
                            break
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
