"""The model language: lexer, parser, syntax tree, and compiler.

``parse_model`` turns source text into a :class:`~evidentia.dsl.ast.Model`;
``compile_model`` turns a model into a possibility space plus answered
queries.  Both raise :class:`ModelError` carrying accumulated, span-tagged
diagnostics.
"""

from .compiler import CompiledModel, PreparedQuery, compile_model, lower_predicate
from .diagnostics import Diagnostic, ModelError, SourceSpan
from .parser import parse_model

__all__ = [
    "CompiledModel",
    "Diagnostic",
    "ModelError",
    "PreparedQuery",
    "SourceSpan",
    "compile_model",
    "lower_predicate",
    "parse_model",
]
