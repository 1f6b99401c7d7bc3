"""The base class of the package's value types (see ``_Value``).

A plain base class rather than ``dataclasses``, which, with ``inspect``,
``ast`` and ``dis`` behind it and the code each decoration generates and
``exec``s, would add milliseconds to every CLI call's start-up. It is a
module of its own because every layer's value types derive from it.
"""

from operator import attrgetter

# sets a field of a value type past its assignment guard
_setattr = object.__setattr__


class _Value:
    """The behaviour the package's value types share, over the fields that
    ``_fields`` names in order: value equality between instances of one
    class, hashing, the ``Name(field=value, ...)`` repr, pickling and
    copying by calling the constructor again, ``__match_args__``, and no
    assigning or deleting a field once built.

    Each subclass writes its own ``__init__``, which validates its arguments
    and then sets each field once, by ``_setattr``; on a class without slots
    writing ``__dict__`` instead would give every instance a dict of its
    own, twice the size of the values it keeps. Equality and hashing compare
    the fields, read by one ``attrgetter`` in C.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
