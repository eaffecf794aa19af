"""Typed config values: annotations and field metadata are the only schema.

`decode` parses INI strings (text=True) and checks checkpoint JSON values,
which must already have their field's type: int, float (an int is accepted),
bool (never accepted as a number), str, or a tuple of int or str. A field
marked `metadata={"day": True}` also reads an ISO date in text, as its day
index counted from 1970-01-01. `check_bounds`, each config class's
`__post_init__`, checks ranges: every float finite, and every value (each
tuple entry) within the bounds its field's metadata declares, as `{"min": 1}`.
"""

from __future__ import annotations

import dataclasses
import datetime
import math
import operator
import typing

from .errors import ConfigError

_TYPES = (int, float, bool, str, tuple[int, ...], tuple[str, ...])
_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}
# Metadata key of a field's bound -> (the test a value passes, its wording).
_BOUNDS = {"min": (operator.ge, "at least"), "above": (operator.gt, "greater than"),
           "below": (operator.lt, "below")}


def check_bounds(obj) -> None:
    """ConfigError `<Class>.<field> must be ..., got <value>` for the first
    field of dataclass `obj` that holds a float that is not finite, or a value
    (for a tuple, any entry) outside the bounds in the field's metadata."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        finite = isinstance(value, float)
        bounds = [(key, f.metadata[key]) for key in _BOUNDS if key in f.metadata]
        entries = value if isinstance(value, tuple) else (value,)
        if not all((not finite or math.isfinite(v))
                   and all(_BOUNDS[key][0](v, b) for key, b in bounds) for v in entries):
            rules = ["finite"] * finite + [f"{_BOUNDS[key][1]} {b}" for key, b in bounds]
            name = f"{type(obj).__name__}.{f.name}{' entries' if entries is value else ''}"
            raise ConfigError(f"{name} must be {' and '.join(rules)}, got {value!r}")


def decode(cls, values, text: bool = False) -> dict:
    """field -> typed value for every entry of `values`; ConfigError naming
    the field for a key that is not a field of `cls` of a known type, or a
    value not of the field's type (with text=True: not parsing as one)."""
    if not isinstance(values, dict):
        raise ConfigError(f"{cls.__name__} needs an object, got {type(values).__name__}")
    hints = typing.get_type_hints(cls)
    days = {name for name, f in getattr(cls, "__dataclass_fields__", {}).items()
            if f.metadata.get("day")}
    out = {}
    for name, raw in values.items():
        typ = hints.get(name)
        if typ not in _TYPES:
            raise ConfigError(f"unknown key {name!r} for {cls.__name__}")
        try:
            out[name] = _value(typ, raw, text, name in days)
        except (KeyError, TypeError, ValueError):
            expected = str(typ) if typing.get_origin(typ) else typ.__name__
            raise ConfigError(f"bad value for {cls.__name__}.{name}: {raw!r} "
                              f"(expected {expected})") from None
    return out


def _value(typ, raw, text: bool, day: bool):
    if typing.get_origin(typ) is tuple:
        if text:
            raw = [tok for tok in raw.split(",") if tok.strip()]
        elif not isinstance(raw, (list, tuple)):
            raise TypeError
        return tuple(_value(typing.get_args(typ)[0], tok, text, day) for tok in raw)
    if text:
        raw = raw.strip()
        if typ is bool:
            return _BOOL_WORDS[raw.lower()]
        if day and "-" in raw[1:]:  # an ISO date; no integer has a '-' past its sign
            return (datetime.date.fromisoformat(raw) - datetime.date(1970, 1, 1)).days
        return typ(raw)
    if isinstance(raw, bool) != (typ is bool) or not isinstance(
            raw, (int, float) if typ is float else typ):
        raise TypeError
    return typ(raw)
