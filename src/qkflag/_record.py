"""Slotted records: field-wise ``==`` and ``repr``, and frozen fields.

The fields are the ``__slots__`` of the record classes, base first.  Equal
records have the same class and equal fields; frozen ones refuse assignment.
"""


class Record:
    __slots__ = ()
    __hash__ = None
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields += cls.__dict__.get("__slots__", ())

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
