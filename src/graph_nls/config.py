"""The JSON config-object format of CLI config sections, graph files and potentials.

Each value is read by its key's converter.  An unknown or missing key, a
string or boolean where a number belongs, a non-integral count, or an
unknown kind of a tagged object is a ConfigError.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from .errors import ConfigError


def as_is(value):
    return value


def number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"expected a number, got {value!r:.60}")
    return float(value)


def integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"expected an integer, got {value!r:.60}")
    return int(value)


def floats(value) -> np.ndarray:
    """A number or a (nested) list of numbers as a float array."""
    try:
        array = np.asarray(value)
    except ValueError as exc:  # a ragged list
        raise ConfigError(f"expected an array of numbers: {exc}") from exc
    # numpy reads a boolean among numbers as 0 or 1, so each entry is looked at
    if array.dtype.kind not in "iuf" or (
        isinstance(value, list) and bool in map(type, np.asarray(value, dtype=object).flat)
    ):
        raise ConfigError(f"expected numbers, got {value!r:.60}")
    return array.astype(float, copy=False)


def read_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def read_section(data, where, keys, required=()) -> dict:
    """The converted entries of ``data``; a key it leaves out keeps its default."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")
    section = {}
    for key, value in data.items():
        try:
            section[key] = keys[key](value)
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f'{where} "{key}": {exc}') from exc
    return section


def read_kind(data, where, kinds, tag, *args):
    """``build(*args, **section)`` for the kind ``data[tag]`` of ``kinds``."""
    kind = data.get(tag)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {where} {tag} {kind!r}")
    build, keys, required = kinds[kind]
    section = read_section(data, where, {tag: as_is, **keys}, required)
    del section[tag]
    return build(*args, **section)
