"""Immutable records for the classes that validate what they are built from.

A subclass lists its fields in ``__slots__`` and sets them once, through
``_set``, from its own ``__init__``.  Records compare, hash and print by
those fields in slot order, and refuse assignment and deletion, the way a
frozen dataclass does, without generating any code when a class is defined.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild the fields as they are, without __init__
        return _restore, (self.__class__, self._values())


def _restore(cls: type, values: tuple) -> Record:
    record = object.__new__(cls)
    record._set(*values)
    return record
