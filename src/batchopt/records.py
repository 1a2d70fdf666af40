"""The base of the slotted records that check their fields or that the
engine reads on every event.

A `Record` subclass names its slots in `__slots__` and sets them in its own
`__init__`, whose parameters are its fields.  Its fields are the slots
whose names do not start with an underscore, in slot order; the other
slots hold what `__init__` derives from them.  A record equals only a
record of its own class with equal fields, hashes as its fields do, and
its repr shows its fields by keyword.  Defining a record class costs one
`type` call, where a dataclass costs the generation and compilation of its
methods.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # `_key(record)`, the field values of a record: a tuple, or the value of
    # a lone field.  A C getter, since a search hashes and compares the
    # nested records of a policy-set key for every candidate.
    _key: attrgetter

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def _replace(self, **changes):
        """A new record with `changes` to its fields, checked by `__init__`
        as any new record is."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
