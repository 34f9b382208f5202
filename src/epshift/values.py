"""Base classes of the plain value types: fields named by ``__slots__``.

A subclass lists its fields, at least two, in ``__slots__`` and sets them
in its own ``__init__``, which must accept them positionally in that
order.  It gets equality between instances of the same class by field
values, a ``repr`` naming the fields, ``__match_args__``, and pickling and
copying through the constructor.  :class:`Frozen` also blocks assignment
and deletion of fields, so its instances hash by their values.

They stand in for ``dataclasses``, whose import and generated code would
cost every command that loads a value type several milliseconds.
"""

from operator import attrgetter


class Fields:
    """Mutable fields; instances are unhashable, as they compare by value."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls.__match_args__ = cls.__slots__
            # one C call reads every field into a tuple
            cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        inside = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({inside})"

    def __reduce__(self):
        return type(self), self._values(self)


class Frozen(Fields):
    """Fields set once, by ``__init__`` through ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
