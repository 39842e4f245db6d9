"""The base of the library's immutable value classes.

A subclass lists its fields in `__slots__`, in constructor order; its
`__init__` checks them and sets them with `_set` (`object.__setattr__`).  A
class whose slots hold something else, such as a cache, names its fields in
`__match_args__` instead, and reads any field that is no slot through a
property.  The base gives what a frozen, slotted dataclass would, without
importing dataclasses: equality and hashing over the fields, the same repr,
read-only fields, pickle and copy through the constructor, `__match_args__`
and `__replace__` (for `copy.replace`).
"""

from operator import attrgetter

_set = object.__setattr__


class _Value:
    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__match_args__ = cls.__dict__.get("__match_args__", cls.__slots__)
        # For one name attrgetter returns the value, not a 1-tuple, so a class
        # with one field overrides __eq__, __hash__ and __reduce__, its readers.
        cls._fields = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields(self)

    def __replace__(self, **changes):
        kept = {name: getattr(self, name) for name in self.__match_args__ if name not in changes}
        return type(self)(**kept, **changes)
