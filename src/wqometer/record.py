"""The one base class of the package's immutable records."""

from operator import attrgetter


class Record:
    """An immutable value: the slots named by its class's `_fields`.

    Records of different classes are never equal; a record hashes as the
    tuple of its fields and prints as ``Cls(field=value!r, ...)``.  Any
    other slot is a cache, which these ignore.  Constructors write past the
    guard, through `object.__setattr__` or a slot's ``__set__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes the fields {self._fields}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple in one C call; `attrgetter` of one name gives the
        # bare value, so a one-field class wraps it
        if cls._fields:
            get = attrgetter(*cls._fields)
            one = len(cls._fields) == 1
            cls._values = (lambda self: (get(self),)) if one else lambda self: get(self)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return ()

    def __reduce__(self):
        # every record's constructor takes its fields in order, so pickle
        # and copy rebuild it through the constructor, past the guard
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
