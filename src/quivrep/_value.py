"""The base class of the immutable value types, and the gate for caller numbers and flags.

A value type names its fields, in constructor order, in a ``_fields``
tuple (usually also its ``__slots__``).  :class:`Value` derives from that
tuple what a frozen dataclass would generate: a constructor that binds
positionals, then keywords, in field order and raises TypeError on a
missing, unknown or twice-given field; equality between instances of one
class with equal fields (an instance at once equals itself); a hash of the
fields; the ``Name(field=value, ...)`` repr; an AttributeError on
assignment or deletion; and ``copy``, ``deepcopy`` and ``pickle``, which
rebuild an instance through its class from its fields (so a kept
computed attribute, such as a representation's integer form, is
recomputed, not carried over).  A validating subclass checks its arguments, then
calls ``super().__init__``; ``linalg.MatrixQ``, built in hot loops, writes
its constructor out with ``_set = object.__setattr__``.  The field getter
is an ``operator.attrgetter`` built once, when the class is defined.
"""

from fractions import Fraction
from operator import attrgetter

from .errors import QuivrepError

_set = object.__setattr__


class Value:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # attrgetter is not a descriptor: self._values(self) calls it as is.
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} fields, "
                            f"got {len(args)} positionals")
        for name, value in zip(fields, args):
            _set(self, name, value)
        for name in fields[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__qualname__}() missing field {name!r}")
            _set(self, name, kwargs.pop(name))
        for name in kwargs:
            problem = "given twice" if name in fields else "unknown"
            raise TypeError(f"{type(self).__qualname__}() field {name!r} {problem}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def rational(x) -> Fraction:
    """A Fraction, an int (not a bool) or an integer, ``p/q`` or decimal string
    as an exact Fraction; anything else is a QuivrepError.

    A float is a binary fraction (``0.1`` is not 1/10), so it is refused.
    So is exponent notation, before `Fraction` sees it:
    ``Fraction('1e100000000')`` builds a hundred-million-digit integer.
    Fractions are tested first, as every matrix entry passes here.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and x.__class__ is not bool:
        return Fraction(x)
    if isinstance(x, str) and "e" not in x and "E" not in x:
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise QuivrepError(f"cannot read {x!r} as an exact rational")


def count(x, what: str, least: int) -> int:
    """`x` if it is an int, not a bool, of at least `least`; else QuivrepError."""
    if isinstance(x, int) and x.__class__ is not bool and x >= least:
        return x
    raise QuivrepError(f"{what} must be an integer >= {least}, got {x!r}")


def flag(x, what: str) -> bool:
    """`x` if it is True or False; else QuivrepError (``"no"`` would read as true)."""
    if x is True or x is False:
        return x
    raise QuivrepError(f"{what} must be True or False, got {x!r}")
