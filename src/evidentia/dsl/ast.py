"""Syntax tree for the model language, plus its two renderers.

Node equality ignores source spans (span fields are marked
``compare=False``), so a pretty-printed tree reparses to an equal tree.
:func:`render_model` emits canonical source text; :func:`dump_tree` emits
the indented, span-annotated view the CLI ``parse --dump-ast`` command
prints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .diagnostics import SourceSpan
from .lexer import IDENT_PATTERN, NUMBER_PATTERN

_NO_SPAN = SourceSpan(0, 0, 1, 1)


def _span_field():
    return field(default=_NO_SPAN, compare=False, repr=False)


class Predicate:
    """Base class for boolean predicate nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueLiteral(Predicate):
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class FalseLiteral(Predicate):
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class LabelIs(Predicate):
    dimension: str
    label: str
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class LabelIn(Predicate):
    dimension: str
    labels: tuple[str, ...]
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class Comparison(Predicate):
    dimension: str
    op: str  # one of < <= > >=
    value: Fraction
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class NotPred(Predicate):
    operand: Predicate
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class _Chain(Predicate):
    operands: tuple[Predicate, ...]
    span: SourceSpan = _span_field()

    def __post_init__(self):
        if not isinstance(self.operands, tuple) or len(self.operands) < 2:
            raise ValueError(f"{type(self).__name__} needs a tuple of two or more operands")


class AndPred(_Chain):
    """``a and b and ...``: one node per chain."""


class OrPred(_Chain):
    """``a or b or ...``: one node per chain."""


@dataclass(frozen=True)
class DimensionDecl:
    name: str
    labels: tuple[str, ...]
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class ContinuumDecl:
    name: str
    low: Fraction
    high: Fraction
    tranches: int | None  # None means the 'aleph' marker
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class Block:
    name: str
    predicate: Predicate
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class PartitionDecl:
    name: str
    blocks: tuple[Block, ...]
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class Query:
    kind: str  # P | P_cond | O | L | E | table | atomic
    predicate: Predicate | None = None
    given: Predicate | None = None
    partition: str | None = None
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class Model:
    name: str
    declarations: tuple[DimensionDecl | ContinuumDecl, ...]
    partitions: tuple[PartitionDecl, ...]
    queries: tuple[Query, ...]
    span: SourceSpan = _span_field()


# -- rendering back to source ----------------------------------------------

# ASCII digits only, as in the lexer: a label of other decimal digits
# (``\d`` would match ``٣``) must be quoted to parse back.
_BARE_LABEL = re.compile(rf"(?:{IDENT_PATTERN}|{NUMBER_PATTERN})$")


def _label_text(label: str) -> str:
    return label if _BARE_LABEL.match(label) else f'"{label}"'


def _number_text(value: Fraction) -> str:
    """Exact decimal form; only powers of 2 and 5 can divide the
    denominator, which holds for every number the grammar can produce."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{value} has no finite decimal form")
    places = max(twos, fives)
    scaled = value * 10**places
    digits = str(abs(scaled.numerator)).rjust(places + 1, "0")
    sign = "-" if value < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


# Precedence levels: or=1, and=2, not=3, atoms=4.


def render_predicate(pred: Predicate, parent_level: int = 0) -> str:
    if isinstance(pred, TrueLiteral):
        return "true"
    if isinstance(pred, FalseLiteral):
        return "false"
    if isinstance(pred, LabelIs):
        return f"{pred.dimension} == {_label_text(pred.label)}"
    if isinstance(pred, LabelIn):
        inner = ", ".join(_label_text(l) for l in pred.labels)
        return f"{pred.dimension} in {{{inner}}}"
    if isinstance(pred, Comparison):
        return f"{pred.dimension} {pred.op} {_number_text(pred.value)}"
    if isinstance(pred, NotPred):
        text = f"not {render_predicate(pred.operand, 3)}"
        level = 3
    elif isinstance(pred, _Chain):
        level, word = (2, " and ") if isinstance(pred, AndPred) else (1, " or ")
        rest = [render_predicate(p, level + 1) for p in pred.operands[1:]]
        text = word.join([render_predicate(pred.operands[0], level), *rest])
    else:
        raise TypeError(f"not a predicate node: {pred!r}")
    return f"({text})" if level < parent_level else text


def render_query(query: Query) -> str:
    if query.kind == "atomic":
        return "atomic"
    if query.kind == "table":
        return f"table({query.partition})"
    if query.kind == "P_cond":
        return (
            f"P({render_predicate(query.predicate)} | {render_predicate(query.given)})"
        )
    return f"{query.kind}({render_predicate(query.predicate)})"


def render_model(model: Model) -> str:
    lines = [f'model "{model.name}" {{']
    for decl in model.declarations:
        if isinstance(decl, DimensionDecl):
            labels = ", ".join(_label_text(l) for l in decl.labels)
            lines.append(f"  dimension {decl.name} = {{{labels}}}")
        else:
            count = "aleph" if decl.tranches is None else str(decl.tranches)
            lines.append(
                f"  continuum {decl.name} from {_number_text(decl.low)}"
                f" to {_number_text(decl.high)} tranches {count}"
            )
    for part in model.partitions:
        lines.append(f"  partition {part.name} {{")
        for block in part.blocks:
            lines.append(f"    {block.name}: {render_predicate(block.predicate)};")
        lines.append("  }")
    lines.append("}")
    for query in model.queries:
        lines.append(f"query {render_query(query)}")
    return "\n".join(lines) + "\n"


# -- span-annotated dump -----------------------------------------------------


def _span_text(span: SourceSpan) -> str:
    return f"@{span.line}:{span.column}[{span.start}:{span.end}]"


def dump_tree(model: Model) -> str:
    """Stable indented view of the tree with one span per node."""
    lines = [f'model "{model.name}" {_span_text(model.span)}']
    for decl in model.declarations:
        if isinstance(decl, DimensionDecl):
            labels = ", ".join(decl.labels)
            lines.append(f"  dimension {decl.name} {_span_text(decl.span)}: {labels}")
        else:
            count = "aleph" if decl.tranches is None else str(decl.tranches)
            lines.append(
                f"  continuum {decl.name} {_span_text(decl.span)}: "
                f"from {_number_text(decl.low)} to {_number_text(decl.high)} "
                f"tranches {count}"
            )
    for part in model.partitions:
        lines.append(f"  partition {part.name} {_span_text(part.span)}")
        for block in part.blocks:
            lines.append(
                f"    block {block.name} {_span_text(block.span)}: "
                f"{render_predicate(block.predicate)}"
            )
    for query in model.queries:
        lines.append(f"  query {_span_text(query.span)}: {render_query(query)}")
    return "\n".join(lines) + "\n"
