"""Recursive-descent parser for the model language.

Single pass, LL(1), with a precedence ladder for predicates
(``or`` < ``and`` < ``not`` < atoms).  Identifiers are resolved here
against a symbol table built from the declarations, so unknown dimensions,
unknown labels and type mismatches (ordering comparisons on unordered
dimensions) are parse-time diagnostics.  Errors accumulate: on a syntax
error the parser reports what it expected, skips to the next statement
boundary, and keeps going; :func:`parse_model` raises a single
:class:`ModelError` carrying everything it found.

Inputs that later stages could not handle are diagnostics too: a number
literal of more than :data:`MAX_NUMBER_DIGITS` digits, checked before it
is converted, and a predicate nested more than
:data:`MAX_PREDICATE_DEPTH` levels deep, since the compiler and the
printers recurse once per level.  Only parentheses and ``not`` nest: a
chain of ``and`` (or of ``or``) terms is one node, and one level, however
long it is.

The productions a query runs through (:meth:`_Parser.parse_query`, the
``and`` and ``or`` chains, ``not``, atoms and label lists) dispatch once
per production, in the manner of Pratt's top-down operator precedence
(1973): each reads the token in front into a local once and branches on
its kind and text, rather than asking the parser one question per
alternative.  Past the last token they read :data:`_END`, whose kind and
text match nothing the grammar looks for.

The two places a label list belongs (``dimension X = {...}`` and
``X in {...}``) share one reader, :meth:`_Parser.parse_label_list`.  A list
the lexer read whole as one token gives its labels from one
regular-expression call, :meth:`dict.fromkeys` orders them and drops
repeats, and one cheap test (for repeats, or a subset test against the
declaration) tells whether any label needs a diagnostic.  Only then is the
token split into the tokens it stands for, which are read one at a time,
each label checked as it is read, as is every list the lexer did not read
whole.  A list token met anywhere else is expanded back into the tokens it
stands for before the parser looks at it, so messages and recovery are
those of the token-by-token scan.
"""

from __future__ import annotations

from fractions import Fraction

from . import ast
from .diagnostics import Diagnostic, ModelError, SourceSpan
from .lexer import IDENT, LABEL_KINDS, LIST, NUMBER, STRING, Token, expand, list_labels, tokenize

_QUERY_KINDS = ("P", "O", "L", "E")
_COMPARE_OPS = ("<", "<=", ">", ">=")
_STATEMENT_STARTS = ("dimension", "continuum", "partition", "query")
# Stands for the token after the last one: its kind and text match nothing
# the grammar looks for, so a production reads it like any other token.
_END = Token("", "", 0, 0, 0, 0)

#: Deepest predicate accepted; each parenthesis level and each ``not``
#: counts as one level, and a chain of ``and`` or ``or`` terms as none.
MAX_PREDICATE_DEPTH = 100
#: Most digits a number literal may have; ``int`` refuses 4300.
MAX_NUMBER_DIGITS = 1000


class _Resync(Exception):
    """Internal: unwind to the nearest statement boundary."""


def _join(first: SourceSpan | Token, last: SourceSpan | Token) -> SourceSpan:
    """The span from the start of ``first`` to the end of ``last``, each a
    span or a token."""
    return SourceSpan(first.start, last.end, first.line, first.column)


class _Parser:
    def __init__(self, tokens: list[Token]):
        # The unread tokens, the next one last, so that a list token can be
        # replaced by its expansion in time linear in the expansion.
        self.tokens = tokens[::-1]
        self.last = tokens[-1] if tokens else None
        self.diagnostics: list[Diagnostic] = []
        self.declarations: dict[str, ast.DimensionDecl | ast.ContinuumDecl] = {}
        # The labels of each declared dimension, for lookups by hash.
        self.label_sets: dict[str, frozenset[str]] = {}
        self.partitions: dict[str, ast.PartitionDecl] = {}

    # -- token plumbing ------------------------------------------------------

    def _eof_span(self) -> SourceSpan:
        """The empty span just after the last token."""
        if self.last is None:
            return SourceSpan(0, 0, 1, 1)
        # A list may end on a later line than it starts; its "}" may not.
        last = expand(self.last)[-1]
        return SourceSpan(last.end, last.end, last.line, last.column + last.end - last.start)

    def peek(self) -> Token | None:
        return self.tokens[-1] if self.tokens else None

    def _expand(self):
        """Replace a list token in front by the tokens it stands for."""
        tokens = self.tokens
        if tokens and tokens[-1].kind == LIST:
            tokens[-1:] = expand(tokens[-1])[::-1]

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            return False
        return text is None or tok.text == text

    def at_keyword(self, word: str) -> bool:
        return self.at(IDENT, word)

    def advance(self) -> Token:
        return self.tokens.pop()

    def error(self, message: str, span: SourceSpan | None = None):
        if span is None:
            tok = self.peek()
            span = tok.span if tok else self._eof_span()
        self.diagnostics.append(Diagnostic(message, span))

    def _found(self) -> str:
        self._expand()
        tok = self.peek()
        return f"'{tok.text}'" if tok else "end of input"

    def expect(self, kind: str, what: str) -> Token:
        tokens = self.tokens
        if not tokens or tokens[-1].kind != kind:
            self._expand()
            if not tokens or tokens[-1].kind != kind:
                self.error(f"expected {what}, found {self._found()}")
                raise _Resync
        return tokens.pop()

    def expect_keyword(self, word: str) -> Token:
        if self.at_keyword(word):
            return self.advance()
        self.error(f"expected '{word}', found {self._found()}")
        raise _Resync

    def synchronize(self, also: tuple[str, ...] = ()):
        while (tok := self.peek()) is not None:
            if tok.kind == LIST:
                self._expand()
                continue
            if tok.kind == IDENT and tok.text in _STATEMENT_STARTS:
                return
            if tok.kind in ("}",) or tok.kind in also:
                return
            self.advance()

    # -- grammar -------------------------------------------------------------

    def parse_file(self) -> ast.Model:
        name = "<invalid>"
        declarations: list[ast.DimensionDecl | ast.ContinuumDecl] = []
        partitions: list[ast.PartitionDecl] = []
        queries: list[ast.Query] = []
        first = self.peek()
        start_span = first.span if first else self._eof_span()
        try:
            self.expect_keyword("model")
            name = self.expect(STRING, "the model name as a string").text
            self.expect("{", "'{'")
        except _Resync:
            self.synchronize()
        while True:
            if self.at_keyword("dimension") or self.at_keyword("continuum"):
                try:
                    if self.at_keyword("dimension"):
                        decl = self.parse_dimension()
                    else:
                        decl = self.parse_continuum()
                except _Resync:
                    self.synchronize()
                    continue
                if decl.name in self.declarations:
                    self.error(f"duplicate declaration of {decl.name!r}", decl.span)
                else:
                    self.declarations[decl.name] = decl
                    declarations.append(decl)
                    if isinstance(decl, ast.DimensionDecl):
                        self.label_sets[decl.name] = frozenset(decl.labels)
                continue
            break
        while self.at_keyword("partition"):
            try:
                part = self.parse_partition()
            except _Resync:
                self.synchronize()
                continue
            if part.name in self.partitions or part.name in self.declarations:
                self.error(f"duplicate declaration of {part.name!r}", part.span)
            else:
                self.partitions[part.name] = part
                partitions.append(part)
        if self.at_keyword("dimension") or self.at_keyword("continuum"):
            self.error("declarations must come before partitions")
            self.synchronize(also=("query",))
        try:
            self.expect("}", "'}' closing the model block")
        except _Resync:
            self.synchronize()
            if self.at("}"):
                self.advance()
        while self.at_keyword("query"):
            try:
                queries.append(self.parse_query())
            except _Resync:
                self.synchronize()
        if self.peek() is not None:
            self.error(f"expected 'query' or end of input, found {self._found()}")
        span = _join(start_span, self.last or start_span)
        return ast.Model(name, tuple(declarations), tuple(partitions), tuple(queries), span)

    def parse_label(self) -> Token:
        tokens = self.tokens
        if tokens and tokens[-1].kind in LABEL_KINDS:
            return tokens.pop()
        self.error(f"expected a label, found {self._found()}")
        raise _Resync

    def parse_label_list(self, report, clean) -> tuple[tuple[str, ...], Token]:
        """A braced label list: its labels in order without repeats, and its
        closing token (the list token itself when it is not split).

        ``report(token, seen)`` checks each label token as it is read
        against the labels before it.  A list token is split into the
        tokens it stands for, and read as they are, only when
        ``clean(labels, count)`` is false: a cheap test over the list's
        labels without repeats and its number of labels that no report is
        due.  A false test costs only the split."""
        tokens = self.tokens
        tok = tokens[-1] if tokens else _END
        if tok.kind == LIST:
            texts = list_labels(tok)
            labels = dict.fromkeys(texts)
            if clean(labels, len(texts)):
                return tuple(labels), tokens.pop()
            self._expand()
        self.expect("{", "'{'")
        # A dict keeps the labels in order and tests membership by hash.
        labels = {}
        try:
            while True:
                label_tok = self.parse_label()
                report(label_tok, labels)
                labels[label_tok.text] = None
                if not tokens or tokens[-1].kind != ",":
                    return tuple(labels), self.expect("}", "',' or '}'")
                tokens.pop()
        except _Resync:
            # Resume after the list's own '}', not at it as at a block's end.
            self.synchronize()
            if self.at("}"):
                self.advance()
            raise

    def parse_dimension(self) -> ast.DimensionDecl:
        start = self.advance().span
        name = self.expect(IDENT, "a dimension name").text
        self.expect("=", "'='")

        def repeated(label_tok: Token, seen: dict[str, None]):
            if label_tok.text in seen:
                message = f"duplicate label {label_tok.text!r} in dimension {name!r}"
                self.error(message, label_tok.span)

        labels, closing = self.parse_label_list(
            repeated, lambda labels, count: len(labels) == count
        )
        return ast.DimensionDecl(name, labels, _join(start, closing))

    def _number(self, what: str) -> tuple[Fraction, Token]:
        tok = self.expect(NUMBER, what)
        if len(tok.text.replace(".", "")) > MAX_NUMBER_DIGITS:
            self.error(f"number has more than {MAX_NUMBER_DIGITS} digits", tok.span)
            raise _Resync
        # The lexer's [0-9]+(\.[0-9]+)? as digits over a power of ten, which
        # skips the string parsing Fraction(text) would do.
        whole, _, decimals = tok.text.partition(".")
        return Fraction(int(whole + decimals), 10 ** len(decimals)), tok

    def parse_continuum(self) -> ast.ContinuumDecl:
        start = self.advance().span
        name = self.expect(IDENT, "a continuum name").text
        self.expect_keyword("from")
        low, _ = self._number("a number after 'from'")
        self.expect_keyword("to")
        high, high_tok = self._number("a number after 'to'")
        self.expect_keyword("tranches")
        if self.at_keyword("aleph"):
            end_tok = self.advance()
            tranches: int | None = None
        else:
            count, tok = self._number("a tranche count or 'aleph'")
            end_tok = tok
            if "." in tok.text:
                self.error("tranche count must be an integer", tok.span)
                tranches = max(1, int(count))
            else:
                tranches = int(count)
                if tranches < 1:
                    self.error("tranche count must be at least 1", tok.span)
                    tranches = 1
        if low >= high:
            self.error(
                f"continuum {name!r} needs 'from' below 'to' ({low} >= {high})",
                high_tok.span,
            )
        return ast.ContinuumDecl(name, low, high, tranches, _join(start, end_tok.span))

    def parse_partition(self) -> ast.PartitionDecl:
        start = self.advance().span
        name = self.expect(IDENT, "a partition name").text
        self.expect("{", "'{'")
        blocks: list[ast.Block] = []
        names: set[str] = set()
        while not self.at("}"):
            if self.peek() is None:
                self.error("expected a block or '}' before end of input")
                raise _Resync
            block_name_tok = self.expect(IDENT, "a block name")
            self.expect(":", "':'")
            predicate = self.parse_predicate()
            semi = self.expect(";", "';' after the block predicate")
            if block_name_tok.text in names:
                self.error(
                    f"duplicate block name {block_name_tok.text!r}",
                    block_name_tok.span,
                )
            else:
                names.add(block_name_tok.text)
                span = _join(block_name_tok.span, semi.span)
                blocks.append(ast.Block(block_name_tok.text, predicate, span))
        closing = self.advance()
        if not blocks:
            self.error(f"partition {name!r} has no blocks", start)
        return ast.PartitionDecl(name, tuple(blocks), _join(start, closing.span))

    def parse_query(self) -> ast.Query:
        tokens = self.tokens
        start = tokens.pop()
        tok = tokens[-1] if tokens else _END
        kind = tok.text
        if tok.kind == IDENT:
            if kind == "atomic":
                tokens.pop()
                return ast.Query(kind, span=_join(start, tok))
            if kind == "table":
                tokens.pop()
                self.expect("(", "'('")
                name_tok = self.expect(IDENT, "a partition name")
                if name_tok.text not in self.partitions:
                    self.error(f"unknown partition {name_tok.text!r}", name_tok.span)
                closing = self.expect(")", "')'")
                return ast.Query(kind, partition=name_tok.text, span=_join(start, closing))
            if kind in _QUERY_KINDS:
                tokens.pop()
                self.expect("(", "'('")
                predicate = self.parse_predicate()
                given = None
                if tokens and tokens[-1].kind == "|":
                    if kind != "P":
                        self.error(f"'{kind}' does not take a conditioning predicate")
                    tokens.pop()
                    given = self.parse_predicate()
                    kind = "P_cond"
                closing = self.expect(")", "')'")
                return ast.Query(kind, predicate, given, span=_join(start, closing))
        self.error(
            "expected one of 'P', 'O', 'L', 'E', 'table', 'atomic' after 'query', "
            f"found {self._found()}"
        )
        raise _Resync

    # -- predicates ------------------------------------------------------------

    # Each rule below takes the number of '(' and 'not' enclosing it.

    def _open(self, level: int) -> Token:
        """Consume a '(' or 'not' that would nest ``level + 1`` deep; stop
        before recursing past the limit."""
        if level == MAX_PREDICATE_DEPTH:
            self.error(f"predicate nests deeper than {MAX_PREDICATE_DEPTH} levels")
            raise _Resync
        return self.advance()

    def _chain(self, level: int, word: str, node, operand) -> ast.Predicate:
        """``operand`` terms joined by ``word`` as one ``node``; a
        parenthesised chain of the same kind in front joins it."""
        first = operand(level)
        tokens = self.tokens
        tok = tokens[-1] if tokens else _END
        if tok.text != word or tok.kind != IDENT:
            return first
        parts = list(first.operands) if isinstance(first, node) else [first]
        while tok.text == word and tok.kind == IDENT:
            tokens.pop()
            parts.append(operand(level))
            tok = tokens[-1] if tokens else _END
        return node(tuple(parts), _join(first.span, parts[-1].span))

    def parse_predicate(self, level: int = 0) -> ast.Predicate:
        return self._chain(level, "or", ast.OrPred, self.parse_and)

    def parse_and(self, level: int) -> ast.Predicate:
        return self._chain(level, "and", ast.AndPred, self.parse_unary)

    def parse_unary(self, level: int) -> ast.Predicate:
        tok = self.tokens[-1] if self.tokens else _END
        if tok.text == "not" and tok.kind == IDENT:
            start = self._open(level).span
            operand = self.parse_unary(level + 1)
            return ast.NotPred(operand, _join(start, operand.span))
        return self.parse_atom(level)

    def _declared(self, name_tok: Token):
        decl = self.declarations.get(name_tok.text)
        if decl is None:
            self.error(f"unknown dimension {name_tok.text!r}", name_tok.span)
        return decl

    def _check_label(self, decl, label_tok: Token, name: str):
        if isinstance(decl, ast.ContinuumDecl):
            self.error(
                f"continuum {name!r} has no labels to match; "
                "use an ordering comparison",
                label_tok.span,
            )
        elif (
            isinstance(decl, ast.DimensionDecl)
            and label_tok.text not in self.label_sets[decl.name]
        ):
            self.error(
                f"unknown label {label_tok.text!r} for dimension {name!r}",
                label_tok.span,
            )

    def parse_atom(self, level: int) -> ast.Predicate:
        tokens = self.tokens
        tok = tokens[-1] if tokens else _END
        kind = tok.kind
        if kind == IDENT:
            name = tok.text
            if name == "true":
                return ast.TrueLiteral(tokens.pop().span)
            if name == "false":
                return ast.FalseLiteral(tokens.pop().span)
            name_tok = tokens.pop()
            decl = self._declared(name_tok)
            tok = tokens[-1] if tokens else _END
            op = tok.kind
            if op == "==":
                tokens.pop()
                label_tok = self.parse_label()
                self._check_label(decl, label_tok, name)
                return ast.LabelIs(name, label_tok.text, _join(name_tok, label_tok))
            if op == IDENT and tok.text == "in":
                tokens.pop()
                # Repeated members are dropped; the first is kept.
                labels, closing = self.parse_label_list(
                    lambda label_tok, seen: self._check_label(decl, label_tok, name),
                    lambda labels, count: isinstance(decl, ast.DimensionDecl)
                    and labels.keys() <= self.label_sets[decl.name],
                )
                return ast.LabelIn(name, labels, _join(name_tok, closing))
            if op in _COMPARE_OPS:
                tokens.pop()
                value, value_tok = self._number(f"a number after '{op}'")
                if decl is not None and not isinstance(decl, ast.ContinuumDecl):
                    self.error(
                        f"ordering comparison needs a continuum; "
                        f"{name!r} is a labelled dimension",
                        name_tok.span,
                    )
                return ast.Comparison(name, op, value, _join(name_tok, value_tok))
            self.error(
                f"expected '==', 'in' or a comparison after {name!r}, "
                f"found {self._found()}"
            )
            raise _Resync
        if kind == "(":
            self._open(level)
            inner = self.parse_predicate(level + 1)
            self.expect(")", "')'")
            return inner
        self.error(
            f"expected a predicate (dimension test, 'true', 'false' or '('), "
            f"found {self._found()}"
        )
        raise _Resync


def parse_model(source: str, filename: str = "<model>") -> ast.Model:
    """Parse a model file into a syntax tree.

    Raises :class:`ModelError` carrying every diagnostic if anything is
    wrong; the ``filename`` is only used when rendering those diagnostics.
    """
    tokens, diagnostics = tokenize(source)
    if not tokens and not diagnostics:
        raise ModelError([Diagnostic("empty model", SourceSpan(0, 0, 1, 1))])
    parser = _Parser(tokens)
    parser.diagnostics.extend(diagnostics)
    model = parser.parse_file()
    if parser.diagnostics:
        parser.diagnostics.sort(key=lambda d: (d.span.start, d.message))
        raise ModelError(parser.diagnostics)
    return model
