"""Source positions, diagnostics, and the error type shared by the lexer,
parser and compiler."""

from __future__ import annotations

from typing import Iterable

from .._value import Value, record


@record
class SourceSpan(Value):
    """Half-open range of ``str`` indices into the source, plus the 1-based
    line/column of its start."""

    start: int
    end: int
    line: int
    column: int

    def __init__(self, start, end, line, column):
        attrs = self.__dict__
        attrs["start"] = start
        attrs["end"] = end
        attrs["line"] = line
        attrs["column"] = column

    def __str__(self):
        return f"{self.line}:{self.column}"


@record
class Diagnostic(Value):
    """One problem with the source, and the span it is found at."""

    message: str
    span: SourceSpan

    def __init__(self, message, span):
        attrs = self.__dict__
        attrs["message"] = message
        attrs["span"] = span

    def render(self, filename: str = "<model>") -> str:
        return f"{filename}:{self.span.line}:{self.span.column}: error: {self.message}"


class ModelError(Exception):
    """Parse or compile failure; carries every diagnostic gathered."""

    def __init__(self, diagnostics: Iterable[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.message for d in self.diagnostics))

    def render(self, filename: str = "<model>") -> str:
        return "\n".join(d.render(filename) for d in self.diagnostics)
