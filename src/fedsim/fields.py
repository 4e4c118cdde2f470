"""The one JSON decoder for what fedsim reads back, derived from dataclass fields.

A Record's to_dict is its JSON form (tuples as lists, dict keys as strings,
nested records as dicts), and its from_dict takes back exactly what to_dict
can write, or raises the class's `error`. What a JSON value may be follows
from the field's annotation alone:

- int: an integer, not a boolean;
- float: a float, or an integer no larger in magnitude than the largest
  float, kept as parsed; finite unless the field's metadata is
  {"finite": False};
- X | None: null or an X;
- tuple[int, ...]: a list of integers, or one integer read as a 1-tuple;
- list[int]: a list of integers;
- dict[int, float]: an object whose keys are integers as str() writes them;
- str: a string;
- a Record: an object that class reads.

from_dict also refuses unknown and missing keys. Range and cross-field
checks are the class's own __post_init__, whose ValueError leaves from_dict
as the class's error too. Checkpoint manifests call decode directly.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import sys
import typing


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_key(k, key: str) -> int:
    """k, an object key, as the int whose str() it is, or ValueError."""
    try:
        i = int(k)
    except (ValueError, TypeError):  # not an integer, or too long for int()
        i = None
    if i is None or str(i) != k:
        raise ValueError(f"{key} key {k!r} is not an integer as str() writes it")
    return i


def decode(hint, value, key: str, finite: bool = True):
    """A JSON value as a field of annotation `hint`, or ValueError naming key."""
    if hint is float:
        if not ((math.isfinite(value) or not finite) if isinstance(value, float)
                else _is_int(value) and abs(value) <= sys.float_info.max):
            raise ValueError(f"{key} must be {'a finite' if finite else 'a'} number "
                             f"in the float range, got {value!r}")
        return value
    if hint is int or hint is str:
        if not (_is_int(value) if hint is int else isinstance(value, str)):
            raise ValueError(f"{key} must be of type {hint.__name__}, got {value!r}")
        return value
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint.from_dict(value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if type(None) in args:  # X | None
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else decode(inner, value, key, finite)
    if origin is tuple and _is_int(value):  # a bare int is a 1-tuple
        value = [value]
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} must be a list, got {value!r}")
        return origin(decode(args[0], v, key, finite) for v in value)
    if not isinstance(value, dict):  # dict[int, float], the one mapping
        raise ValueError(f"{key} must be an object, got {value!r}")
    return {_int_key(k, key): decode(args[1], v, key, finite) for k, v in value.items()}


@functools.cache
def _table(cls) -> dict[str, tuple]:
    """{field name: (annotation, finite)} of a Record class, derived once."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata.get("finite", True))
            for f in dataclasses.fields(cls)}


def _encode(v):
    if isinstance(v, Record):
        return v.to_dict()
    if isinstance(v, (list, tuple)):
        return list(v)
    if isinstance(v, dict):
        return {str(k): x for k, x in v.items()}
    return v


class Record:
    """Base of a dataclass that is written as JSON and read back (see above)."""

    error = ValueError  # what from_dict raises

    def to_dict(self) -> dict:
        return {name: _encode(getattr(self, name)) for name in _table(type(self))}

    @classmethod
    def from_dict(cls, d):
        table = _table(cls)
        if not isinstance(d, dict):
            raise cls.error(f"a {cls.__name__} must be an object, got {d!r}")
        unknown = d.keys() - table
        if unknown:
            raise cls.error(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        try:
            kwargs = {}
            for k, v in d.items():
                hint, finite = table[k]
                kwargs[k] = decode(hint, v, k, finite)
            return cls(**kwargs)
        except (ValueError, TypeError) as e:  # TypeError: a required key is missing
            raise cls.error(str(e)) from e
