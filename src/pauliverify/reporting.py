"""Deterministic JSON and CSV emission.

Identical inputs must produce identical bytes: keys are sorted, separators
fixed, floats rendered by repr, and nothing time- or path-dependent is ever
written.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import numpy as np

TRIAL_CSV_HEADER = ("run", "group", "trial", "register", "branch", "passed")


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


def trials_to_csv_rows(run_index: int, trial_records) -> list[tuple]:
    return [
        (run_index, t.group, t.trial, t.register, t.branch, int(t.passed))
        for t in trial_records
    ]


def write_trials_csv(path: str | Path, rows: Iterable[tuple]) -> Path:
    path = Path(path)
    lines = [",".join(TRIAL_CSV_HEADER)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path
