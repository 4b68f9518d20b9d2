"""The base of qflow's record classes: a dataclass's repr and equality, read from ``__slots__``.

A record lists its fields, in order, as its ``__slots__`` and assigns
them in its own ``__init__``; building the classes with ``dataclasses``
cost more at import than analysing a small design.
"""

from itertools import repeat

_field = "{}={!r}".format


class Record:
    """``Name(field=value, ...)``, equal to a record of its class with equal fields; unhashable."""

    __slots__ = ()

    def __repr__(self):
        names = self.__slots__
        fields = ", ".join(map(_field, names, map(getattr, repeat(self), names)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return (tuple(map(getattr, repeat(self), names))
                == tuple(map(getattr, repeat(other), names)))

    __hash__ = None
