"""Slotted record classes, the base of the package's value types.

A record class lists its fields in ``__slots__`` and writes its own
``__init__``.  A :class:`Record` equals another of the same class with equal
fields, prints as ``Name(field=value, ...)`` and is mutable and unhashable.
A :class:`Frozen` record also hashes as its field tuple does and refuses to
set or delete a field, so its ``__init__`` writes each one with
:data:`set_field`.  Every ``__init__`` takes the fields in slot order, by
position or keyword: :func:`replace`, :mod:`copy` and :mod:`pickle` rebuild
records through it.
"""

from __future__ import annotations

set_field = object.__setattr__  # writes a field of a Frozen record being built


class Record:
    """Fields in ``__slots__``, compared and printed by value."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}"
                            for name, value in zip(self.__slots__, self._values())])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild a record by its __init__
        return type(self), self._values()


class Frozen(Record):
    """An immutable record, hashed as the tuple of its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes):
    """A new record of the same class, with the named fields changed."""
    fields = dict(zip(record.__slots__, record._values()))
    unknown = changes.keys() - fields.keys()
    if unknown:
        raise TypeError(f"{type(record).__qualname__} has no field {sorted(unknown)[0]!r}")
    return type(record)(**(fields | changes))
