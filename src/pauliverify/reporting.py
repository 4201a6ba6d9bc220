"""JSON in and out.

In: every JSON value from outside the program (configs, target files,
reports) is read by ``read_object`` and ``field`` under one typing rule.  A
bool is never a number; a number must be finite; an int may be written as a
whole float (``10.0``) but not as ``10.7`` or ``"10"``; null stands for a
missing value only where the default is None.  A refusal reads "<key> must
be <type>, got <json>"; ranges are checked by the constructors.

Out: identical inputs must produce identical bytes: keys are sorted,
separators fixed, floats rendered by repr, no NaN or Infinity, and nothing
time- or path-dependent is ever written.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import numpy as np

TRIAL_CSV_HEADER = ("run", "group", "trial", "register", "branch", "passed")

_REQUIRED = object()
_NAMES = {dict: "a JSON object", list: "a list", str: "a string"}


def _refuse(key: str, type_name: str, value) -> ValueError:
    shown = "nothing" if value is _REQUIRED else json.dumps(value)
    return ValueError(f"{key} must be {type_name}, got {shown}")


def read_object(source, name: str) -> dict:
    """The JSON object in the file at path ``source``, or ``source`` if already parsed."""
    obj = source
    if isinstance(source, (str, Path)):
        try:
            obj = json.loads(Path(source).read_text())
        except RecursionError:  # nested past the parser's recursion limit
            raise ValueError(f"{name} is nested too deeply to parse") from None
    if not isinstance(obj, dict):
        raise _refuse(name, "a JSON object", obj)
    return obj


def field(obj: dict, key: str, kind, default=_REQUIRED):
    """``obj[key]`` as ``kind``: dict, list, str, int, float, or ``list[kind]``.

    Without a default the key is required.  Whole floats read as ints and ints
    as floats; list elements are checked and converted the same way.
    """
    if key not in obj and default is not _REQUIRED:
        return default
    value = obj.get(key, _REQUIRED)
    return None if value is None and default is None else _typed(key, value, kind)


def _typed(key: str, value, kind):
    if type(value) is kind and kind is not float:  # a well-typed int, str, dict or list
        return value
    origin = getattr(kind, "__origin__", kind)  # list for list[int]
    if origin in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _refuse(key, "an integer" if origin is int else "a number", value)
        if origin is float:
            if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints past float range
                raise _refuse(key, "a finite number", value)
            return float(value)
        if isinstance(value, float) and not value.is_integer():
            raise _refuse(key, "a whole number", value)
        return int(value)
    if not isinstance(value, origin):
        raise _refuse(key, _NAMES[origin], value)
    if origin is list and kind is not list:
        (item,) = kind.__args__
        return [_typed(f"{key}[{i}]", v, item) for i, v in enumerate(value)]
    return value


def to_jsonable(obj):
    """Recursively convert package values into plain JSON types."""
    if hasattr(obj, "to_jsonable"):
        return to_jsonable(obj.to_jsonable())
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(x) for x in items]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def trial_csv_lines(trials: Iterable) -> list[str]:
    """The trial CSV's data lines: run by run, group by group, trial by trial.

    Item r of ``trials`` holds run r's trial columns (protocol.TrialColumns).
    Each column is converted to Python values at once, labels come from the
    test's lookup, and the trial indices of a run size k are spelled once.
    """
    lines: list[str] = []
    names: dict[int, list[str]] = {}
    for run, columns in enumerate(trials):
        k = columns.passed.shape[1]
        if k not in names:
            names[k] = [str(t) for t in range(k)]
        rows = zip(columns.registers.tolist(), columns.branches, columns.passed.tolist())
        for group, (registers, branches, passed) in enumerate(rows):
            prefix = f"{run},{group},"
            lines.extend(
                f"{prefix}{t},{register},{label},{ok:d}"
                for t, register, label, ok in zip(
                    names[k], registers, columns.labels(group, branches), passed
                )
            )
    return lines


def write_trials_csv(path: str | Path, lines: Iterable[str]) -> Path:
    """The header, then one rendered line per trial (see ``trial_csv_lines``)."""
    path = Path(path)
    path.write_text("\n".join([",".join(TRIAL_CSV_HEADER), *lines]) + "\n")
    return path
