"""The bases of the records that check their fields or that the engine
reads on every event, and of the five run configs.

A `Record` subclass names its slots in `__slots__` and sets them in its own
`__init__`, whose parameters are its fields.  Its fields are the slots
whose names do not start with an underscore, in slot order; the other
slots hold what `__init__` derives from them.  The engine's per-event
records (`InstanceRecord`, `BatchRecord`, `BatchState`) are named tuples
instead, which it builds with one `tuple.__new__` call each.

A `Config` subclass declares its fields as annotated class attributes,
each with its default (the configs `SimConfig`, `DetectionConfig`,
`InterventionConfig`, `RLConfig` and `OptimizerConfig`).  The base reads
their names, annotations and defaults once, when the class is created,
into the field table that `codec` reads; its `__init__` takes the fields
by position or keyword, as a dataclass's does, and then runs the class's
`_check`.  A config is frozen: its fields cannot be assigned.

Both kinds compare as values: a record equals only a record of its own
class with equal fields, hashes as its fields do, and its repr shows its
fields by keyword.  `_replace` makes a new one with some fields changed,
checked as any new one is.  Defining a class of either kind costs one
`type` call, where a dataclass costs the generation and compilation of its
methods, and importing neither base imports `dataclasses` or `inspect`.
`fixtures.Fixture` stays a dataclass: the CLI never imports `fixtures`.
"""

from __future__ import annotations

from operator import attrgetter


class _Fields:
    """Value semantics over the field names `_fields`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # `_key(record)`, the field values of a record: a tuple, or the value of
    # a lone field.  A C getter, since a search hashes and compares the
    # nested records of a policy-set key for every candidate.
    _key: attrgetter

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


class Record(_Fields):
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields)


class Config(_Fields):
    __slots__ = ()
    # field name -> its annotation as written (`"int | None"`), in field order
    _kinds: dict[str, str] = {}
    # field name -> its default, for the fields that have one
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        annotations = cls.__dict__.get("__annotations__", {})
        cls._kinds = {
            name: kind if isinstance(kind, str) else getattr(kind, "__name__", str(kind))
            for name, kind in annotations.items()
        }
        cls._fields = tuple(cls._kinds)
        cls._key = attrgetter(*cls._fields)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if args:
            if len(args) > len(self._fields):
                raise TypeError(f"{type(self).__name__}() takes at most {len(self._fields)} "
                                f"positional arguments, got {len(args)}")
            for name, value in zip(self._fields, args):
                if name in kwargs:
                    raise TypeError(f"{type(self).__name__}() got multiple values for {name!r}")
                kwargs[name] = value
        values = {**self._defaults, **kwargs}
        if values.keys() != self._kinds.keys():
            unknown = [name for name in values if name not in self._kinds]
            if unknown:
                raise TypeError(f"{type(self).__name__}() got an unexpected keyword argument "
                                f"{unknown[0]!r}")
            missing = [name for name in self._fields if name not in values]
            raise TypeError(f"{type(self).__name__}() missing required argument {missing[0]!r}")
        self.__dict__.update(values)
        self._check()

    def _check(self) -> None:
        """Raise the class's own error unless the fields hold together."""

    def _replace(self, **changes):
        # read the fields from the instance dict at once: a search makes
        # one `SimConfig` per simulation this way
        return type(self)(**{**self.__dict__, **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
