"""The base of the package's immutable result types."""


class Value:
    """Equality, hashing and repr from the field names in ``_fields``.

    A subclass sets its fields in ``__init__`` with ``object.__setattr__``.
    Two values are equal when they are of the same class and their fields
    are equal; the hash is that of the field tuple; the repr is
    ``Name(field=value, ...)``.  Fields can be neither assigned nor deleted.
    """

    _fields = ()

    def _astuple(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} cannot be deleted")
