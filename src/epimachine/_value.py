"""The shared base of the package's immutable value classes.

A subclass lists its fields in ``_fields``, in constructor order, and its
own ``__init__`` sets each of them once through ``_set``. Objects are equal
when they are of one class with equal fields, hash by their fields, print as
``Name(field=value, ...)`` and refuse assignment and deletion. Importing this
module builds nothing: there is no generated code.
"""

_set = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple = ()
    _unshown: tuple = ()  # fields left out of ``repr``

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        names = [name for name in self._fields if name not in self._unshown]
        shown = [f"{name}={getattr(self, name)!r}" for name in names]
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
