"""Syntax tree for the model language, plus its two renderers.

Node equality lives in :class:`evidentia._value.Value`, the base of every
node, and ignores source spans (span fields are marked ``compare=False``),
so a pretty-printed tree reparses to an equal tree.
:func:`render_model` emits canonical source text; :func:`dump_tree` emits
the indented, span-annotated view the CLI ``parse --dump-ast`` command
prints.

A label prints bare when it reads back as one identifier or number, and in
double quotes otherwise.  A :class:`LabelTexts` map renders each label the
first time it is asked for and keeps the text, so a label is rendered once
per map however often it is named.  The map belongs to its caller:
:func:`render_model`, :func:`dump_tree` and each ``compile_model`` start
from an empty one and drop it when they return.  A number prints as its
exact decimal form through :func:`~evidentia.hyperrational._rounded`, the
field's one decimal printer.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .._value import Value, field, record
from ..hyperrational import _rounded
from .diagnostics import SourceSpan
from .lexer import IDENT_PATTERN, NUMBER_PATTERN

_NO_SPAN = SourceSpan(0, 0, 1, 1)

#: Every node's ``span``: left out of equality, hashing and ``repr``.
_SPAN_FIELD = field(default=_NO_SPAN, compare=False, repr=False)


class Predicate(Value):
    """Base class for boolean predicate nodes."""

    __slots__ = ()


@record
class TrueLiteral(Predicate):
    """``true``: every atom."""

    span: SourceSpan = _SPAN_FIELD

    def __init__(self, span=_NO_SPAN):
        self.__dict__["span"] = span


@record
class FalseLiteral(Predicate):
    """``false``: no atom."""

    span: SourceSpan = _SPAN_FIELD

    def __init__(self, span=_NO_SPAN):
        self.__dict__["span"] = span


@record
class LabelIs(Predicate):
    """``dimension == label``."""

    dimension: str
    label: str
    span: SourceSpan = _SPAN_FIELD

    def __init__(self, dimension, label, span=_NO_SPAN):
        attrs = self.__dict__
        attrs["dimension"] = dimension
        attrs["label"] = label
        attrs["span"] = span


@record
class LabelIn(Predicate):
    """``dimension in {label, ...}``."""

    dimension: str
    labels: tuple[str, ...]
    span: SourceSpan = _SPAN_FIELD

    def __init__(self, dimension, labels, span=_NO_SPAN):
        attrs = self.__dict__
        attrs["dimension"] = dimension
        attrs["labels"] = labels
        attrs["span"] = span


@record
class Comparison(Predicate):
    """``dimension op value`` on a continuum."""

    dimension: str
    op: str  # one of < <= > >=
    value: Fraction
    span: SourceSpan = _SPAN_FIELD

    def __init__(self, dimension, op, value, span=_NO_SPAN):
        attrs = self.__dict__
        attrs["dimension"] = dimension
        attrs["op"] = op
        attrs["value"] = value
        attrs["span"] = span


@record
class NotPred(Predicate):
    """``not operand``."""

    operand: Predicate
    span: SourceSpan = _SPAN_FIELD

    def __init__(self, operand, span=_NO_SPAN):
        attrs = self.__dict__
        attrs["operand"] = operand
        attrs["span"] = span


@record
class _Chain(Predicate):
    """Two or more operands under one connective: the base of
    :class:`AndPred` and :class:`OrPred`."""

    operands: tuple[Predicate, ...]
    span: SourceSpan = _SPAN_FIELD

    def __init__(self, operands, span=_NO_SPAN):
        attrs = self.__dict__
        attrs["operands"] = operands
        attrs["span"] = span
        self.__post_init__()

    def __post_init__(self):
        if not isinstance(self.operands, tuple) or len(self.operands) < 2:
            raise ValueError(f"{type(self).__name__} needs a tuple of two or more operands")


class AndPred(_Chain):
    """``a and b and ...``: one node per chain."""


class OrPred(_Chain):
    """``a or b or ...``: one node per chain."""


@record
class DimensionDecl(Value):
    """``dimension name = {label, ...}``."""

    name: str
    labels: tuple[str, ...]
    span: SourceSpan = _SPAN_FIELD

    def __init__(self, name, labels, span=_NO_SPAN):
        attrs = self.__dict__
        attrs["name"] = name
        attrs["labels"] = labels
        attrs["span"] = span


@record
class ContinuumDecl(Value):
    """``continuum name from low to high tranches count``."""

    name: str
    low: Fraction
    high: Fraction
    tranches: int | None  # None means the 'aleph' marker
    span: SourceSpan = _SPAN_FIELD

    def __init__(self, name, low, high, tranches, span=_NO_SPAN):
        attrs = self.__dict__
        attrs["name"] = name
        attrs["low"] = low
        attrs["high"] = high
        attrs["tranches"] = tranches
        attrs["span"] = span

    @property
    def tranche_count(self) -> int:  # 'aleph' tranches are one cell
        return 1 if self.tranches is None else self.tranches


@record
class Block(Value):
    """``name: predicate;``, one block of a partition."""

    name: str
    predicate: Predicate
    span: SourceSpan = _SPAN_FIELD

    def __init__(self, name, predicate, span=_NO_SPAN):
        attrs = self.__dict__
        attrs["name"] = name
        attrs["predicate"] = predicate
        attrs["span"] = span


@record
class PartitionDecl(Value):
    """``partition name { block ... }``."""

    name: str
    blocks: tuple[Block, ...]
    span: SourceSpan = _SPAN_FIELD

    def __init__(self, name, blocks, span=_NO_SPAN):
        attrs = self.__dict__
        attrs["name"] = name
        attrs["blocks"] = blocks
        attrs["span"] = span


@record
class Query(Value):
    """``query kind(...)``, with the parts its kind takes."""

    kind: str  # P | P_cond | O | L | E | table | atomic
    predicate: Predicate | None = None
    given: Predicate | None = None
    partition: str | None = None
    span: SourceSpan = _SPAN_FIELD

    def __init__(self, kind, predicate=None, given=None, partition=None, span=_NO_SPAN):
        attrs = self.__dict__
        attrs["kind"] = kind
        attrs["predicate"] = predicate
        attrs["given"] = given
        attrs["partition"] = partition
        attrs["span"] = span


@record
class Model(Value):
    """A model file: declarations, partitions and queries in source order."""

    name: str
    declarations: tuple[DimensionDecl | ContinuumDecl, ...]
    partitions: tuple[PartitionDecl, ...]
    queries: tuple[Query, ...]
    span: SourceSpan = _SPAN_FIELD

    def __init__(self, name, declarations, partitions, queries, span=_NO_SPAN):
        attrs = self.__dict__
        attrs["name"] = name
        attrs["declarations"] = declarations
        attrs["partitions"] = partitions
        attrs["queries"] = queries
        attrs["span"] = span


# -- rendering back to source ----------------------------------------------

# ASCII digits only, as in the lexer: a label of other decimal digits
# (``\d`` would match ``٣``) must be quoted to parse back.
_BARE_LABEL = re.compile(rf"(?:{IDENT_PATTERN}|{NUMBER_PATTERN})$")


def _label_text(label: str) -> str:
    return label if _BARE_LABEL.match(label) else f'"{label}"'


def _number_text(value: Fraction) -> str:
    """Exact decimal form, in the fewest places that hold it; only powers
    of 2 and 5 can divide the denominator, which holds for every number the
    grammar can produce."""
    p, q = value.numerator, value.denominator
    if q == 1:
        return str(p)
    # q = 2^a * 5^b divides 10^max(a, b), and max(a, b) < q.bit_length().
    places = next((k for k in range(1, q.bit_length()) if 10**k % q == 0), None)
    if places is None:
        raise ValueError(f"{value} has no finite decimal form")
    return _rounded(p, q, places)  # exact: nothing is rounded


class LabelTexts(dict):
    """Label -> its source text, rendered the first time it is asked for
    and kept."""

    __slots__ = ()

    def __missing__(self, label: str) -> str:
        text = self[label] = _label_text(label)
        return text


# Precedence levels: or=1, and=2, not=3, atoms=4.


def render_predicate(pred: Predicate, parent_level: int = 0, texts=None) -> str:
    """Source text of ``pred``, parenthesised when its precedence is below
    ``parent_level``.  ``texts`` is the :class:`LabelTexts` map the labels'
    source text is read from and kept in; without it a fresh map serves
    this one call."""
    if texts is None:
        texts = LabelTexts()
    kind = type(pred)
    if kind is LabelIn:
        return f"{pred.dimension} in {{{', '.join(map(texts.__getitem__, pred.labels))}}}"
    if kind is LabelIs:
        return f"{pred.dimension} == {texts[pred.label]}"
    if kind is Comparison:
        return f"{pred.dimension} {pred.op} {_number_text(pred.value)}"
    if kind is TrueLiteral:
        return "true"
    if kind is FalseLiteral:
        return "false"
    if kind is NotPred:
        text = "not " + render_predicate(pred.operand, 3, texts)
        level = 3
    elif kind is AndPred or kind is OrPred:
        level, word = (2, " and ") if kind is AndPred else (1, " or ")
        first, *rest = pred.operands
        text = word.join(
            [render_predicate(first, level, texts), *[render_predicate(p, level + 1, texts) for p in rest]]
        )
    else:
        raise TypeError(f"not a predicate node: {pred!r}")
    return f"({text})" if level < parent_level else text


def render_query(query: Query, texts=None) -> str:
    if query.kind == "atomic":
        return "atomic"
    if query.kind == "table":
        return f"table({query.partition})"
    if query.kind == "P_cond":
        predicate = render_predicate(query.predicate, 0, texts)
        return f"P({predicate} | {render_predicate(query.given, 0, texts)})"
    return f"{query.kind}({render_predicate(query.predicate, 0, texts)})"


def _continuum_text(decl: ContinuumDecl) -> str:
    count = "aleph" if decl.tranches is None else str(decl.tranches)
    return f"from {_number_text(decl.low)} to {_number_text(decl.high)} tranches {count}"


def render_model(model: Model) -> str:
    texts = LabelTexts()
    lines = [f'model "{model.name}" {{']
    for decl in model.declarations:
        if isinstance(decl, DimensionDecl):
            labels = ", ".join(map(texts.__getitem__, decl.labels))
            lines.append(f"  dimension {decl.name} = {{{labels}}}")
        else:
            lines.append(f"  continuum {decl.name} {_continuum_text(decl)}")
    for part in model.partitions:
        lines.append(f"  partition {part.name} {{")
        for block in part.blocks:
            lines.append(f"    {block.name}: {render_predicate(block.predicate, 0, texts)};")
        lines.append("  }")
    lines.append("}")
    for query in model.queries:
        lines.append(f"query {render_query(query, texts)}")
    return "\n".join(lines) + "\n"


# -- span-annotated dump -----------------------------------------------------


def _span_text(span: SourceSpan) -> str:
    return f"@{span.line}:{span.column}[{span.start}:{span.end}]"


def dump_tree(model: Model) -> str:
    """Stable indented view of the tree with one span per node."""
    texts = LabelTexts()
    lines = [f'model "{model.name}" {_span_text(model.span)}']
    for decl in model.declarations:
        if isinstance(decl, DimensionDecl):
            labels = ", ".join(decl.labels)
            lines.append(f"  dimension {decl.name} {_span_text(decl.span)}: {labels}")
        else:
            lines.append(
                f"  continuum {decl.name} {_span_text(decl.span)}: {_continuum_text(decl)}"
            )
    for part in model.partitions:
        lines.append(f"  partition {part.name} {_span_text(part.span)}")
        for block in part.blocks:
            lines.append(
                f"    block {block.name} {_span_text(block.span)}: "
                f"{render_predicate(block.predicate, 0, texts)}"
            )
    for query in model.queries:
        lines.append(f"  query {_span_text(query.span)}: {render_query(query, texts)}")
    return "\n".join(lines) + "\n"
