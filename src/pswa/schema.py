"""Typed JSON objects: one reader and one writer for config dataclasses.

Run configs and checkpoint manifests both hold dataclasses whose
annotations say what each JSON value may be.  `read_fields` checks every
value against its annotation before anything is built -- int (never
bool), float (a finite int or float, never bool), str, a fixed-length
``tuple[int, int]``, a variable-length ``tuple[float, ...]``, ``Optional``
of those, and nested dataclass sections -- and rejects unknown keys, so a
typo or a wrong type fails as ConfigurationError naming the key.

Range rules are declared once on their field with `at_least` or `inside`
and checked by `check_ranges` from ``__post_init__``, so they hold for
values set in code (``dataclasses.replace``) as well as for values read
from JSON.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from typing import Optional, Union

from .errors import ConfigurationError

_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}
_type_hints = functools.cache(typing.get_type_hints)  # it re-parses string annotations on each call


def at_least(low, *, default):
    """A dataclass field whose value must be >= low."""
    return dataclasses.field(default=default, metadata={"min": low})


def inside(low, high=math.inf, *, default):
    """A dataclass field whose value must be > low and < high."""
    return dataclasses.field(default=default, metadata={"open": (low, high)})


def check_ranges(obj) -> None:
    for f in dataclasses.fields(obj):
        low = f.metadata.get("min")
        value = getattr(obj, f.name)
        if low is not None and value < low:
            raise ConfigurationError(f"{f.name} must be >= {low}, got {value!r}")
        if "open" in f.metadata:
            low, high = f.metadata["open"]
            if not low < value < high:
                upper = f" and < {high}" if high < math.inf else ""
                raise ConfigurationError(f"{f.name} must be > {low}{upper}, got {value!r}")


def read_fields(cls, raw, where: str, keys: Optional[dict] = None) -> dict:
    """Type-checked keyword arguments for `cls` from the JSON object `raw`.

    ``where`` names the object in messages ("" for the root).  ``keys``
    maps JSON keys to field names (default: every field under its own
    name).  Keys absent from `raw` are left to the field defaults.
    """
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config section {where or '<root>'} must be an object, got {type(raw).__name__}")
    keys = keys or {f.name: f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigurationError(f"unknown config key(s) at {where or 'top level'}: {', '.join(unknown)}")
    hints = _type_hints(cls)
    return {keys[k]: _checked(v, hints[keys[k]], f"{where}.{k}" if where else k) for k, v in raw.items()}


def write_fields(obj, keys: Optional[dict] = None) -> dict:
    """The JSON object that `read_fields` reads back into the same values."""
    keys = keys or {f.name: f.name for f in dataclasses.fields(obj)}
    return {k: _plain(getattr(obj, name)) for k, name in keys.items()}


def _plain(value):
    if dataclasses.is_dataclass(value):
        return write_fields(value)
    return list(value) if isinstance(value, tuple) else value


def _checked(value, hint, key: str):
    if typing.get_origin(hint) is Union:  # Optional[X]
        if value is None:
            return None
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    if dataclasses.is_dataclass(hint):
        return hint(**read_fields(hint, value, key))
    if typing.get_origin(hint) is tuple:  # tuple[T, T] or tuple[T, ...]
        item, *rest = typing.get_args(hint)
        size = None if rest == [Ellipsis] else 1 + len(rest)
        if not isinstance(value, (list, tuple)) or (size is not None and len(value) != size):
            raise ConfigurationError(f"config key {key} must be a list of {size or 'any number of'} values, got {value!r}")
        return tuple(_checked(v, item, f"{key}[{i}]") for i, v in enumerate(value))
    ok = isinstance(value, (int, float) if hint is float else hint) and not isinstance(value, bool)
    if not ok or (hint is float and not math.isfinite(value)):
        raise ConfigurationError(f"config key {key} must be {_TYPE_NAMES[hint]}, got {value!r}")
    return value
