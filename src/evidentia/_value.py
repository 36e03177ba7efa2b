"""The one ``__eq__``, ``__hash__`` and ``__repr__`` of the package's
dataclasses.

Each dataclass is declared ``@dataclass(frozen=True, eq=False, repr=False)``
on :class:`Value` and has a docstring of its own, so ``dataclasses`` writes
only its ``__init__`` and the frozen ``__setattr__``/``__delattr__``: it
neither generates the three methods below for each class nor derives a
docstring from the class signature.  The methods read each class's fields
once, on first use, and keep the names.
"""

from __future__ import annotations

from dataclasses import fields
from functools import cache


@cache
def _names(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names of ``cls``'s ``compare=True`` fields and of its
    ``repr=True`` fields."""
    found = fields(cls)
    return tuple(f.name for f in found if f.compare), tuple(f.name for f in found if f.repr)


def _key(value: Value) -> tuple:
    """The values of ``value``'s compared fields, in declaration order."""
    return tuple([getattr(value, name) for name in _names(value.__class__)[0]])


class Value:
    """Base of a dataclass that compares and hashes by its ``compare=True``
    fields, and shows its ``repr=True`` fields, as ``dataclasses`` would."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _key(self) == _key(other)

    def __hash__(self):
        return hash(_key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in _names(self.__class__)[1])
        return f"{self.__class__.__qualname__}({shown})"
