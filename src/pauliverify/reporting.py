"""JSON in and out.

In: every JSON value from outside the program (configs, target files,
reports) is read by ``read_object`` and ``field`` under one typing rule.  A
bool is never a number; a number must be finite; an int may be written as a
whole float (``10.0``) but not as ``10.7`` or ``"10"``; null stands for a
missing value only where the default is None.  A refusal reads "<key> must
be <type>, got <json>"; ranges are checked by the constructors.

Out: identical inputs must produce identical bytes.  ``canonical_json`` is
the one writer of every report, manifest and error message.  It walks the
value once and appends string pieces: keys sorted, a two-space indent, ASCII
escapes (``json.encoder.encode_basestring_ascii``), ints and floats by repr,
NaN and Infinity refused with ValueError.  Package values are expanded as
they are met, so a list of reports is rendered one report at a time.  A list
of two or more verdict reports of one engine call is filled from a template
of its first report: only the slots ``VerdictReport.slots`` names are written
per report, by the same scalar rules.  A report whose shared fields differ
from the first one's, and every other value, takes the generic path, which
stays the reference.  Nothing time- or path-dependent is ever written.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable

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


_escape = json.encoder.encode_basestring_ascii
_int_text = int.__repr__
_float_repr = float.__repr__
_INF = float("inf")


def canonical_json(obj) -> str:
    """``obj`` as canonical JSON text, written in one pass.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) + "\n"`` once package values are plain: an object with
    ``to_jsonable()`` is expanded one level at a time, a Fraction is written
    as ``"num/den"``, numpy scalars and arrays as numbers and lists, a set as
    its sorted list, and every key as ``str(key)``.  Each list item is joined
    into one string as soon as it is written, so a list of reports holds the
    pieces of only one report at a time.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _float_text(x: float) -> str:
    if -_INF < x < _INF:
        return _float_repr(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


def _write(obj, nl: str, out: list[str]) -> None:
    """Append the text of ``obj``; ``nl`` is a newline and the current indent."""
    kind = type(obj)
    if kind is str:
        out.append(_escape(obj))
    elif kind is dict:
        _write_dict(obj, nl, out)
    elif kind is list or kind is tuple:
        _write_list(obj, nl, out)
    elif kind is int:
        out.append(_int_text(obj))
    elif kind is float:
        out.append(_float_text(obj))
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    else:
        _write_other(obj, nl, out)


def _write_dict(dct: dict, nl: str, out: list[str]) -> None:
    if not dct:
        out.append("{}")
        return
    if not all(type(key) is str for key in dct):
        dct = {str(key): value for key, value in dct.items()}
    inner = nl + "  "
    sep = "{" + inner
    for key, value in sorted(dct.items()):
        out.append(f"{sep}{_escape(key)}: ")
        _write(value, inner, out)
        sep = "," + inner
    out.append(nl + "}")


def _write_list(items, nl: str, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    inner = nl + "  "
    sep = "[" + inner
    fill = _report_template(items[0], inner) if len(items) > 1 else None
    for item in items:
        text = fill and fill(item)
        if text is None:
            piece = [sep]
            _write(item, inner, piece)
            out.append("".join(piece))
        else:
            out += (sep, text)
        sep = "," + inner
    out.append(nl + "]")


_SCALAR_TEXT = {
    bool: ("false", "true").__getitem__,
    int: _int_text,
    float: _float_text,
    type(None): lambda _: "null",
}


def _report_template(first, inner: str):
    """A filler of the text of each report that shares ``first``'s fields, or None.

    ``first`` (a protocol.VerdictReport) is written once at indent ``inner``
    with a unique sentinel string in each of its ``slots``, and the text is
    cut at the sentinels.  The filler joins the cuts with the text of a
    report's slot values, or gives None for a value the template does not
    fit: another type, other shared fields, or a slot value that is not a
    bool, int, float or None.
    """
    if not hasattr(first, "slots"):
        return None
    shared, values = first.slots()
    piece: list[str] = []
    _write(first.to_jsonable([f"\x00{i}\x00" for i in range(len(values))]), inner, piece)
    head, *rest = "".join(piece).split('"\\u0000')  # each slot's sentinel, as escaped
    cuts, in_text_order = [head], []
    for part in rest:
        slot, found, tail = part.partition('\\u0000"')
        if not (found and slot.isdigit()):
            return None
        in_text_order.append(int(slot))
        cuts.append(tail)
    if sorted(in_text_order) != list(range(len(values))):
        return None
    body = [None] * (2 * len(cuts) - 1)  # the cuts, with a place for each slot's text
    body[::2] = cuts
    kind = type(first)

    def fill(report) -> str | None:
        if type(report) is not kind:
            return None
        own, values = report.slots()
        if own != shared:
            return None
        try:
            texts = [_SCALAR_TEXT[type(v)](v) for v in values]
        except KeyError:
            return None
        # one join sizes the text once; a % format grows its buffer, which
        # raised the peak RSS of a process that writes many reports
        filled = body.copy()
        filled[1::2] = [texts[i] for i in in_text_order]
        return "".join(filled)

    return fill


def _write_other(obj, nl: str, out: list[str]) -> None:
    """Package values and subclasses of the JSON types."""
    np = sys.modules.get("numpy")  # no numpy value exists before numpy is imported
    if hasattr(obj, "to_jsonable"):
        _write(obj.to_jsonable(), nl, out)
    elif isinstance(obj, Fraction):
        out.append(f'"{obj.numerator}/{obj.denominator}"')
    elif np is not None and isinstance(obj, np.integer):
        out.append(_int_text(int(obj)))
    elif np is not None and isinstance(obj, np.floating):
        out.append(_float_text(float(obj)))
    elif np is not None and isinstance(obj, np.ndarray):
        _write_list(list(obj.tolist()), nl, out)  # a 0-d array is no list
    elif isinstance(obj, (set, frozenset)):
        _write_list(sorted(obj), nl, out)
    elif isinstance(obj, dict):
        _write_dict(obj, nl, out)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, nl, out)
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, int):  # IntEnum and the like, written as json writes them
        out.append(_int_text(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def trial_csv_lines(trials: Iterable) -> list[str]:
    """The trial CSV's data lines: run by run, group by group, trial by trial.

    Item r of ``trials`` holds run r's trial columns (protocol.TrialColumns).
    Each column is converted to Python values at once, labels come from the
    test's lookup, pass flags are read as 0/1, and the trial indices of a
    run size k are spelled once per call, each with its trailing comma.
    """
    lines: list[str] = []
    names: dict[int, list[str]] = {}
    for run, columns in enumerate(trials):
        k = columns.passed.shape[1]
        if k not in names:
            names[k] = [f"{t}," for t in range(k)]
        flags = columns.passed.astype("u1").tolist()
        rows = zip(columns.registers.tolist(), columns.branches, flags)
        for group, (registers, branches, passed) in enumerate(rows):
            prefix = f"{run},{group},"
            labels = columns.labels(group, branches)
            lines += [
                f"{prefix}{t}{register},{label},{ok}"
                for t, register, label, ok in zip(names[k], registers, labels, passed)
            ]
    return lines


def write_trials_csv(path: str | Path, lines: Iterable[str]) -> Path:
    """The header, then one rendered line per trial (see ``trial_csv_lines``)."""
    path = Path(path)
    path.write_text("\n".join([",".join(TRIAL_CSV_HEADER), *lines]) + "\n")
    return path
