"""Lowering from syntax to spaces, partitions and answered queries.

Labelled dimensions become axes directly, one cell per label.  For each
continuum the compiler collects every threshold its model compares
against, from partition blocks and queries alike, and builds the axis with
:meth:`~evidentia.spaces.Dimension.continuum`, which cuts the grid there
and lumps each run of tranches between two cuts into one weighted cell.
A continuum declared with ``tranches aleph`` asserts that the interval is
infinitely subdivided; it compiles to a single whole-interval cell, is only
accepted in a scaled compile (where the infinite interior is what
``aleph`` measures), and cannot be cut by comparisons.

Predicates lower to member sets over whole cells.  An ordering comparison
resolves through :meth:`~evidentia.spaces.Dimension.compare`, and a
threshold it cannot resolve, strictly inside a tranche or (lowered on its
own against a compiled space) not one of the space's cuts, becomes a
diagnostic at the comparison's span.

Queries are lowered and answered at compile time: every predicate problem
surfaces there, and as an answer is a ratio of atom counts, no mask
outlives the compile.  A partition is tabulated once, as soon as it
validates, and every ``table`` query of it shares those rows, so no
partition outlives its own check.  Each query's text is rendered with one
label-text map per compile (:class:`~evidentia.dsl.ast.LabelTexts`), which
renders a label the first time a query names it and keeps the text, so a
label is rendered once however many queries name it; the map is dropped
when the compile returns.

A lowering fault raises :class:`ModelError` where it is found, carrying
the one diagnostic at the span of the node at fault; the compile collects
them and raises them all together.  A declaration the space refuses (only
a hand-built tree has one) is a diagnostic at its span.
"""

from __future__ import annotations

from functools import reduce

from .._value import Value, record
from ..evidence import (
    _log_of_odds,
    atomic_probability,
    conditional_probability,
    evidence,
    odds,
    partition_distribution,
    probability,
)
from ..spaces import (
    Dimension,
    PossibilitySpace,
    Proposition,
    make_partition,
)
from . import ast
from .diagnostics import Diagnostic, ModelError, SourceSpan
from .parser import atom_count

DEFAULT_ATOM_LIMIT = 10**7

_PROVENANCE = {
    "P": "Theorem 4",
    "P_cond": "Theorem 5",
    "O": "Theorem 3",
    "L": "Theorem 3",
    "E": "Axiom 3",
    "table": "Theorem 4",
    "atomic": "Axiom 4",
}


#: What :meth:`PreparedQuery.evaluate` raises for an undefined answer: a
#: condition with no evidence, or log-odds of odds with no finite logarithm.
UNDEFINED = (ZeroDivisionError, ValueError)


@record
class PreparedQuery(Value):
    """One query and the answer its compile counted (for ``L``, the odds)."""

    text: str
    kind: str
    provenance: str
    _answer: object

    def __init__(self, text, kind, provenance, _answer):
        attrs = self.__dict__
        attrs["text"] = text
        attrs["kind"] = kind
        attrs["provenance"] = provenance
        attrs["_answer"] = _answer

    def evaluate(self, digits: int = 6):
        """The answer; ``digits`` only affects log-odds precision.  A table
        is a fresh list, and a refusal is raised, on every call."""
        answer = self._answer
        if isinstance(answer, ZeroDivisionError):
            raise ZeroDivisionError(*answer.args)  # fresh: no call alters the stored one
        if self.kind == "L":
            return _log_of_odds(answer, digits, "e")
        return list(answer) if self.kind == "table" else answer


@record
class CompiledModel(Value):
    """A compiled model: its name, its space and its answered queries."""

    name: str
    space: PossibilitySpace
    queries: tuple[PreparedQuery, ...]

    def __init__(self, name, space, queries):
        attrs = self.__dict__
        attrs["name"] = name
        attrs["space"] = space
        attrs["queries"] = queries


def _thresholds(pred: ast.Predicate | None, out: dict[str, set]) -> None:
    """Add each comparison threshold in ``pred`` to ``out[dimension]``."""
    if isinstance(pred, ast.Comparison):
        out.setdefault(pred.dimension, set()).add(pred.value)
    elif isinstance(pred, ast.NotPred):
        _thresholds(pred.operand, out)
    elif isinstance(pred, (ast.AndPred, ast.OrPred)):
        for part in pred.operands:
            _thresholds(part, out)


def _dimension(decl: ast.DimensionDecl | ast.ContinuumDecl, thresholds) -> Dimension:
    if isinstance(decl, ast.DimensionDecl):
        return Dimension(decl.name, decl.labels)
    return Dimension.continuum(decl.name, decl.low, decl.high, decl.tranche_count, thresholds)


def lower_predicate(space: PossibilitySpace, pred: ast.Predicate) -> Proposition:
    """Turn a predicate tree into the subset of cells it denotes.

    Raises :class:`ModelError` when a comparison cannot be resolved to
    whole cells.
    """
    return _lower(space, pred)


def _lower(space: PossibilitySpace, pred: ast.Predicate) -> Proposition:
    if isinstance(pred, ast.TrueLiteral):
        return space.top
    if isinstance(pred, ast.FalseLiteral):
        return space.bottom
    if isinstance(pred, ast.NotPred):
        return ~_lower(space, pred.operand)
    if isinstance(pred, (ast.AndPred, ast.OrPred)):
        join = int.__and__ if isinstance(pred, ast.AndPred) else int.__or__
        return Proposition(space, reduce(join, (_lower(space, p).mask for p in pred.operands)))
    if isinstance(pred, (ast.LabelIs, ast.LabelIn)):
        dim = _find_dimension(space, pred.dimension, pred.span)
        names = (pred.label,) if isinstance(pred, ast.LabelIs) else pred.labels
        index = dim.index
        for name in names:
            if name not in index:
                message = f"unknown label {name!r} for dimension {pred.dimension!r}"
                raise ModelError([Diagnostic(message, pred.span)])
        return space.axis_proposition(pred.dimension, [index[name] for name in names])
    if isinstance(pred, ast.Comparison):
        dim = _find_dimension(space, pred.dimension, pred.span)
        try:
            indices = dim.compare(pred.op, pred.value)
        except ValueError as exc:
            raise ModelError([Diagnostic(str(exc), pred.span)]) from None
        return space.axis_proposition(pred.dimension, indices)
    raise TypeError(f"not a predicate node: {pred!r}")


def _find_dimension(space: PossibilitySpace, name: str, span: SourceSpan) -> Dimension:
    if name not in space._positions:
        raise ModelError([Diagnostic(f"unknown dimension {name!r}", span)])
    return space.dimensions[space._positions[name]]


def compile_model(
    model: ast.Model,
    scaled: bool = False,
    atom_limit: int = DEFAULT_ATOM_LIMIT,
) -> CompiledModel:
    """Build the space the model implies and answer all of its queries.

    Each partition's blocks are lowered, validated and tabulated in turn,
    and only the rows are kept.  ``scaled`` switches the space to total
    cardinality ``aleph``; ratio queries answer identically either way,
    which is what the scale-invariance suite verifies.
    """
    diagnostics: list[Diagnostic] = []
    if not model.declarations:
        message = "empty model: declare at least one dimension or continuum"
        raise ModelError([Diagnostic(message, model.span)])
    # Count the atoms from the declarations alone: an over-limit model is
    # rejected before any of its tranches is built.
    size = atom_count(model.declarations)
    for decl in model.declarations:
        if isinstance(decl, ast.ContinuumDecl) and decl.tranches is None and not scaled:
            message = (
                f"continuum {decl.name!r} with aleph tranches needs a scaled space "
                "(--scaled): its cells are infinitely subdivided"
            )
            diagnostics.append(Diagnostic(message, decl.span))
    if size > atom_limit:
        message = (
            f"model spans {size} atoms, above the limit of {atom_limit}; "
            "use coarser tranches or raise the limit"
        )
        diagnostics.append(Diagnostic(message, model.span))
    if diagnostics:
        raise ModelError(diagnostics)

    thresholds: dict[str, set] = {}
    for part in model.partitions:
        for block in part.blocks:
            _thresholds(block.predicate, thresholds)
    for query in model.queries:
        _thresholds(query.predicate, thresholds)
        _thresholds(query.given, thresholds)
    dimensions = []
    try:
        for decl in model.declarations:
            dimensions.append(_dimension(decl, thresholds.get(decl.name, ())))
        space = PossibilitySpace(dimensions, scaled=scaled)
    except (ValueError, TypeError) as exc:  # from a hand-built tree: the parser refuses these
        if len(dimensions) == len(model.declarations):  # a name's second declaration
            names = [d.name for d in model.declarations]
            decl = next(d for k, d in enumerate(model.declarations) if d.name in names[:k])
        raise ModelError([Diagnostic(str(exc), decl.span)]) from None

    tables: dict[str, tuple] = {}  # each valid partition's rows
    for part in model.partitions:
        blocks = []
        for block in part.blocks:
            try:
                blocks.append((block.name, _lower(space, block.predicate)))
            except ModelError as exc:
                diagnostics.extend(exc.diagnostics)
        if len(blocks) < len(part.blocks):
            continue
        try:
            partition = make_partition(space, blocks)
        except ValueError as exc:
            diagnostics.append(Diagnostic(f"partition {part.name!r}: {exc}", part.span))
            continue
        tables[part.name] = tuple(partition_distribution(partition))
        del blocks, partition  # else they live on while the next one is lowered

    texts = ast.LabelTexts()
    queries: list[PreparedQuery] = []
    for query in model.queries:
        try:
            queries.append(_prepare(space, tables, query, texts))
        except ModelError as exc:
            diagnostics.extend(exc.diagnostics)

    if diagnostics:
        raise ModelError(diagnostics)
    return CompiledModel(model.name, space, tuple(queries))


def _prepare(
    space: PossibilitySpace,
    tables: dict[str, tuple],
    query: ast.Query,
    texts: ast.LabelTexts,
) -> PreparedQuery:
    kind = query.kind
    if kind == "atomic":
        answer = atomic_probability(space)
    elif kind == "table":
        if query.partition not in tables:
            message = f"unknown or invalid partition {query.partition!r}"
            raise ModelError([Diagnostic(message, query.span)])
        answer = tables[query.partition]
    elif kind == "P_cond":
        prop, given = _lower(space, query.predicate), _lower(space, query.given)
        try:
            answer = conditional_probability(prop, given)
        except ZeroDivisionError as exc:
            # Without its traceback the refusal keeps no frame, so no mask.
            answer = exc.with_traceback(None)
    else:
        # Built per call, so a measure replaced at run time is the one asked.
        measure = {"P": probability, "O": odds, "L": odds, "E": evidence}[kind]
        answer = measure(_lower(space, query.predicate))
    return PreparedQuery(ast.render_query(query, texts), kind, _PROVENANCE[kind], answer)
