"""The one ``__eq__``, ``__hash__``, ``__repr__``, ``__setattr__`` and
``__delattr__`` of the package's dataclasses.

Each dataclass is declared ``@dataclass(init=False, eq=False, repr=False)``
on :class:`Value`, has a docstring of its own and writes its own
``__init__``, so ``dataclasses`` compiles no method for it and derives no
docstring from its signature: it only records the fields, which
``dataclasses.fields``, ``replace`` and ``astuple`` read.  ``frozen=True``
would make it ``exec`` an ``__init__``, a ``__setattr__`` and a
``__delattr__`` for every class at import, which was most of the package's
import time.  Instead :class:`Value` refuses every assignment and deletion,
and each ``__init__`` stores its arguments straight into the instance
``__dict__`` (a slotted class through ``object.__setattr__``), which is also
quicker than the generated one.  A class with a ``__post_init__`` calls it
last, as the generated ``__init__`` would.

The comparison and ``repr`` methods read each class's fields once, on first
use, and keep the names.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, fields
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
    """Base of an immutable dataclass that compares and hashes by its
    ``compare=True`` fields, and shows its ``repr=True`` fields, as
    ``dataclasses`` would.  Assigning or deleting any attribute raises
    ``FrozenInstanceError``, an ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete {type(self).__name__}.{name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _key(self) == _key(other)

    def __hash__(self):
        return hash(_key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in _names(self.__class__)[1])
        return f"{self.__class__.__qualname__}({shown})"
