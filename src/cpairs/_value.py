"""Base of the package's immutable value types.

`Value` gives a class what a frozen dataclass would: equality and a hash over
the fields named in `_fields`, only between instances of the same class; a
repr of those fields; and AttributeError on assigning or deleting any
attribute.  A subclass names its fields in `_fields` (and usually in
`__slots__`), validates in its own `__init__`, and stores each field with
`object.__setattr__`; copy and pickle work as they do for a dataclass.  It
is a plain class, so importing the package builds no class by `exec` and
does not load `dataclasses`.  `exact_int` and `exact_bool` check an integer
or a flag input where a constructor would otherwise coerce it.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setstate__(self, state) -> None:
        # copy and pickle restore (instance dict, slot values) past __setattr__
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


def exact_int(x, what: str) -> int:
    """x itself when it is an int; a float, Fraction, str or bool raises ValueError naming `what`."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def exact_bool(x, what: str) -> bool:
    """x itself when it is a bool; an int, str or None raises ValueError naming `what`."""
    if type(x) is not bool:
        raise ValueError(f"{what} must be True or False, got {x!r}")
    return x
