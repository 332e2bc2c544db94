"""The base class of the package's immutable value types.

A value type names its fields, in constructor order, in a ``_fields``
tuple (usually also its ``__slots__``) and assigns them in an explicit
``__init__`` through ``_set = object.__setattr__``.  :class:`Value`
derives from that tuple what a frozen dataclass would generate: equality
between instances of one class with equal fields, a hash of the fields,
the ``Name(field=value, ...)`` repr, and an AttributeError on assignment
or deletion.  The field getter is an ``operator.attrgetter`` built once,
when the class is defined; nothing here inspects an instance at run time.
"""

from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # attrgetter is not a descriptor: self._values(self) calls it as is.
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
