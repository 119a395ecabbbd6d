"""Value types that compile no code, and the one check on numbers read from files.

Record types without checks are ``NamedTuple``s; the few whose constructor
checks its arguments derive from :class:`Frozen`. Neither is a dataclass:
``@dataclass`` builds each class's methods with ``exec`` whenever its module
is imported, and ``import dataclasses`` loads ``inspect`` besides, both of
which a short CLI call would pay at every start.
"""

from __future__ import annotations

from numbers import Integral, Real

from .errors import InvalidInputError

__all__ = ["Frozen", "as_number"]


class Frozen:
    """Base of immutable types that check their fields: compared and hashed by value.

    A subclass names its fields, in order, in ``__slots__`` and sets them
    once, in ``__init__``, through :meth:`_set`.
    """

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle through __init__, which checks again
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def as_number(value, name: str, *, integer: bool = False):
    """``value``, a number read from JSON, as an int (``integer``) or a float.

    Strings and booleans are refused, which ``int("1")``, ``float("1")`` and
    ``int(True)`` would read, and so is a number with a fractional part (or
    not finite) where an int belongs, which ``int(5.9)`` would cut to 5.
    """
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidInputError(f"{name} must be {kind}, got {value!r}")
    if integer and isinstance(value, Integral):
        return int(value)
    try:
        number = float(value)
    except OverflowError as exc:  # an int past the float range
        raise InvalidInputError(f"{name} is too large for a float") from exc
    if integer and not number.is_integer():
        raise InvalidInputError(f"{name} must be {kind}, got {value!r}")
    return int(number) if integer else number
