"""The wire rules shared by every input document.

A document key is the camelCase of a field name, a misspelled key is an
error, never a silent default, and no value is coerced: a bool is not a
number, a string is not a list.  The model, policies and front documents
read each field with `read`.

The five configs, `SimConfig`, `OptimizerConfig`, `DetectionConfig`,
`InterventionConfig` and `RLConfig`, are `records.Config` subclasses.
Their documents have no reader of their own: `from_doc` reads them and
`to_doc` writes them from the class's field table, each field's camelCase
name, annotation and default, and each config checks its field types in
its `_check` via `check_fields`, which reads the same annotations.  Every
other record is a `typing.NamedTuple` or a `records.Record`.
"""

from __future__ import annotations

import math
import sys

from .records import Config


class ParseError(ValueError):
    """Document parse failure; message carries the path to the bad field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def finite_number(value) -> float | None:
    """`value` as a float if it is a JSON number (an int or a float, not a
    bool) that a float holds finitely, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return number if math.isfinite(number) else None


REQUIRED = object()  # the `default` of a field that must be present
_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string"),
          list: (list, "a list"), dict: (dict, "an object")}


def read(doc: dict, key: str, where: str, kind: type, default=REQUIRED):
    """`doc[key]` if it holds the JSON `kind` (`float` any number, NaN and
    inf included, returned as a float; `int`, `str`, `list` or `dict`), or
    `default` when the key is missing; else a ParseError at
    `<where>.<key>`.  A bool is never a number, and an integer beyond the
    float range is `number out of range`."""
    path = f"{where}.{key}"
    if key not in doc:
        if default is REQUIRED:
            raise ParseError(path, "missing required field")
        return default
    value = doc[key]
    types, name = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ParseError(path, f"expected {name}, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ParseError(path, "number out of range")
    return float(value) if kind is float else value


def read_finite(doc: dict, key: str, where: str, default=REQUIRED) -> float:
    """`read` of a number that must also be finite."""
    value = read(doc, key, where, float, default)
    if not math.isfinite(value):
        raise ParseError(f"{where}.{key}", f"expected a finite number, got {value!r}")
    return value


def read_strings(doc: dict, key: str, where: str) -> tuple[str, ...]:
    """`read` of a required list whose items are all strings."""
    items = read(doc, key, where, list)
    if not all(isinstance(item, str) for item in items):
        raise ParseError(f"{where}.{key}", "expected a list of strings")
    return tuple(items)


def check_fields(obj, error) -> None:
    """Raise `error` unless each field of the config `obj` holds what its
    annotation names: `int` an int that is not a bool (`int | None` also
    None), `float` a finite JSON number (see `finite_number`), `bool` a
    bool, `str` a string.  Other fields are left to their class; nothing
    is coerced."""
    for name, kind in obj._kinds.items():
        value = getattr(obj, name)
        if kind == "int" or (kind == "int | None" and value is not None):
            if isinstance(value, bool) or not isinstance(value, int):
                raise error(f"{name} must be an integer, got {value!r}")
        elif kind == "float" and finite_number(value) is None:
            raise error(f"{name} must be a finite number, got {value!r}")
        elif kind == "bool" and not isinstance(value, bool):
            raise error(f"{name} must be true or false, got {value!r}")
        elif kind == "str" and not isinstance(value, str):
            raise error(f"{name} must be a string, got {value!r}")


def reject_unknown_keys(doc, known, where: str) -> dict:
    """`doc`, if it is an object whose keys are all in `known`; else a
    ParseError naming `where`, or its first unknown key in sorted order."""
    if not isinstance(doc, dict):
        raise ParseError(where, f"expected an object, got {doc!r}")
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ParseError(f"{where}.{min(unknown)}", f"unknown key; expected one of {list(known)}")
    return doc


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(part.capitalize() for part in rest)


def from_doc(cls, doc, error):
    """The config `cls` read from its document.

    Each key is the camelCase of a field name; a missing key keeps the
    field's default.  A field whose default is a config is read from a
    nested object and a field whose default is a tuple from a list.  Any
    failure, an unknown key or a value the class rejects, raises `error`
    with the path of the object at fault."""
    try:
        return _read(cls, doc, "$")
    except ParseError as err:
        raise error(str(err)) from err


def _read(cls, doc, where: str):
    wire = {_camel(name): name for name in cls._fields}
    reject_unknown_keys(doc, wire, where)
    kwargs = {}
    for key, value in doc.items():
        name = wire[key]
        default = cls._defaults.get(name)
        if isinstance(default, Config):
            value = _read(type(default), value, f"{where}.{key}")
        elif isinstance(default, tuple):
            if not isinstance(value, list):
                raise ParseError(where, f"{key} must be a list, got {value!r}")
            value = tuple(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (ValueError, RuntimeError) as err:  # the class's own error type
        raise ParseError(where, str(err)) from err


def to_doc(obj) -> dict:
    """The document of the config `obj`: `from_doc` reads it back to an
    equal object.  A value is written as given: an int in a float field
    stays an int."""
    doc = {}
    for name in obj._fields:
        value = getattr(obj, name)
        if isinstance(value, Config):
            value = to_doc(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[_camel(name)] = value
    return doc
