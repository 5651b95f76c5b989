"""The base of the package's immutable result types."""

_set = object.__setattr__


class Value:
    """Construction, equality, hashing and repr from the field names in
    ``_fields``.  A subclass stating ``_fields`` gets a constructor compiled
    from them (``_init``), which takes the fields positionally or by name,
    with a class attribute of a field's name as its default, and raises
    Python's TypeError on a wrong call; a subclass with checks defines
    ``__init__`` and passes its fields to ``super().__init__``.  Two values
    are equal when they are of the same class and their fields are equal;
    the hash is that of the field tuple; the repr is ``Name(field=value,
    ...)``.  Fields can be neither assigned nor deleted.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in vars(cls):
            cls._init = _compile_init(cls)
            if "__init__" not in vars(cls):
                cls.__init__ = cls._init

    def __init__(self, *args, **kwargs):
        self._init(*args, **kwargs)

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


def _compile_init(cls):
    """``def __init__(self, f1, ..., fk=cls.fk)`` storing each field of cls,
    compiled once per class as collections.namedtuple compiles its
    ``__new__``, so that a construction costs what a hand-written one does."""
    params = ", ".join(f"{f}=_cls.{f}" if hasattr(cls, f) else f for f in cls._fields)
    body = "".join(f"\n    _set(self, {f!r}, {f})" for f in cls._fields)
    namespace = {"_cls": cls, "_set": _set}
    exec(f"def __init__(self, {params}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
