"""Dataclass records as JSON: json_form writes one and build reads it
back.  The run config's sections, a mask's stats.json and a checkpoint's
header are each read by build, so each refuses a key or value alike.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing

from .errors import RmaeError


def json_form(obj):
    """obj as JSON values: dataclasses as field dicts, NaN as null."""
    if dataclasses.is_dataclass(obj):
        obj = vars(obj)
    if isinstance(obj, dict):
        return {k: json_form(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_form(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _tuplify(v):
    if isinstance(v, list):
        return tuple(_tuplify(x) for x in v)
    return v


def fits(value, hint) -> bool:
    """Whether a JSON value (lists as tuples) has a field's type: an int
    field takes no bool, a float field also takes an int but no NaN or
    infinity, and None fits only a union that names it."""
    if isinstance(hint, types.UnionType):
        return any(fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(fits, value, args))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        finite = isinstance(value, float) and math.isfinite(value)
        return finite or isinstance(value, int)
    return isinstance(value, hint)


def build(cls, doc, error: type[RmaeError], name: str, built=None):
    """cls from doc, the JSON object of the record called name: each key
    names a field, whose value must fit its hint, and a field left out
    takes its default.  A field of a dataclass type takes that record from
    built, by field name.  What doc or cls's own checks refuse is raised as
    error, whose message names the record and a key that does not fit."""
    if not isinstance(doc, dict):
        raise error(f"{name} must be a JSON object")
    hints = typing.get_type_hints(cls)
    kwargs = {
        k: built[k] for k, h in hints.items() if dataclasses.is_dataclass(h)
    }
    for key, value in doc.items():
        hint = hints.get(key)
        if hint is None or key in kwargs:
            raise error(f"unknown key '{name}.{key}'")
        kwargs[key] = _tuplify(value)
        if not fits(kwargs[key], hint):
            kind = hint if typing.get_args(hint) else hint.__name__
            raise error(f"{name}.{key}: {value!r} is not of type {kind}")
    try:
        return cls(**kwargs)
    except (ValueError, TypeError, RmaeError) as e:
        raise error(f"{name}: {e}") from e
