"""The one ``__eq__``, ``__hash__``, ``__repr__``, ``__setattr__`` and
``__delattr__`` of the package's value classes, and the dataclass view
they show when asked.

Each value class is declared ``@record`` on :class:`Value`, has a docstring
of its own and writes its own ``__init__``, which stores its arguments
straight into the instance ``__dict__`` (a slotted class through
``object.__setattr__``) and calls ``__post_init__`` last where the class
has one.  :func:`record` only notes the fields: the annotated names in
order, with the options of any declared through :func:`field`.
:class:`Value` compares, hashes and shows an instance by that note, and
refuses every assignment and deletion.  So the import builds no code and
imports neither ``dataclasses`` nor ``inspect``, which were most of the
package's import time.

Every recorded class still answers ``dataclasses.is_dataclass``,
``fields``, ``replace`` and ``astuple``, which all read
``__dataclass_fields__``.  Until a class is first asked, that name is
found on :class:`Value`: it imports ``dataclasses`` and applies
``dataclass(init=False, eq=False, repr=False)`` to the nearest recorded
class in the MRO, once, under one lock.  That generates no method; it only
puts ``dataclasses.Field`` objects, made from the noted options, in the
class's ``__dict__``, where every later read finds them.  :class:`Value`
and an unrecorded base such as ``Predicate`` stay non-dataclasses.

The comparison and ``repr`` methods read each class's note once, on first
use, and keep the names.
"""

from __future__ import annotations

from _thread import RLock
from functools import cache

#: Held while a class's dataclass view is built; reentrant, as building a
#: class reads the view of each recorded base.
_BUILDING = RLock()


class _Options(dict):
    """The keyword arguments of one :func:`field` call."""

    __slots__ = ()


def field(**options) -> _Options:
    """A field's ``default``, ``default_factory``, ``compare`` and ``repr``,
    as ``dataclasses.field`` takes them: :func:`record` keeps them, and the
    dataclass view passes them to ``dataclasses.field``."""
    return _Options(options)


def _fields(cls: type) -> dict[str, _Options]:
    """Each field of ``cls`` and its options, bases' fields first, as
    ``dataclasses`` orders them."""
    found = {}
    for klass in reversed(cls.__mro__):
        found.update(vars(klass).get("__record__", ()))
    return found


def record(cls: type) -> type:
    """Note ``cls``'s annotated names as its fields, and leave each class
    attribute as ``dataclass`` leaves it: the field's default, or none."""
    noted = []
    for name in cls.__annotations__:
        options = vars(cls).get(name)
        if isinstance(options, _Options):
            if "default" in options:
                setattr(cls, name, options["default"])
            else:
                delattr(cls, name)
        else:  # a plain default, a slot or nothing: dataclasses reads it there
            options = _Options()
        noted.append((name, options))
    cls.__record__ = tuple(noted)
    cls.__match_args__ = tuple(_fields(cls))
    return cls


@cache
def _names(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names of ``cls``'s compared fields and of its shown fields."""
    found = _fields(cls).items()
    return (
        tuple(name for name, options in found if options.get("compare", True)),
        tuple(name for name, options in found if options.get("repr", True)),
    )


def _key(value: Value) -> tuple:
    """The values of ``value``'s compared fields, in declaration order."""
    return tuple([getattr(value, name) for name in _names(value.__class__)[0]])


class _View:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a recorded
    class whose view is not built yet: builds it and reads it from the
    class's ``__dict__``, where every later lookup finds it first."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner):
        marked = next((klass for klass in owner.__mro__ if "__record__" in vars(klass)), None)
        if marked is None:
            raise AttributeError(f"{owner.__qualname__} is not a dataclass")
        with _BUILDING:
            # Checked again under the lock: two passes at once could each
            # read a default the other had put back, and mark a span compared.
            if "__dataclass_fields__" not in vars(marked):
                import dataclasses

                for name, options in vars(marked)["__record__"]:
                    if options:
                        setattr(marked, name, dataclasses.field(**options))
                dataclasses.dataclass(marked, init=False, eq=False, repr=False)
        return vars(marked)[self.name]


class Value:
    """Base of an immutable value class that compares and hashes by its
    compared fields, and shows its shown fields, as ``dataclasses`` would.
    Assigning or deleting any attribute raises
    ``dataclasses.FrozenInstanceError``, an ``AttributeError``."""

    __slots__ = ()

    __dataclass_fields__ = _View()
    __dataclass_params__ = _View()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete {type(self).__name__}.{name}")

    def __replace__(self, /, **changes):
        # copy.replace (Python 3.13) before the view is built, which adds
        # dataclasses' own.
        from dataclasses import replace

        return replace(self, **changes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _key(self) == _key(other)

    def __hash__(self):
        return hash(_key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in _names(self.__class__)[1])
        return f"{self.__class__.__qualname__}({shown})"
