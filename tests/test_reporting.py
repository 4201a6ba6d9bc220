"""The canonical JSON writer against the json module's encoder.

Plain JSON values must give exactly the bytes of ``json.dumps`` with sorted
keys, a two-space indent and no NaN.  Package values must give what the
writer's predecessor gave: a recursive conversion to plain JSON types (spelled
out here as ``_plain``) followed by that same ``json.dumps``.
"""
import enum
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pauliverify.reporting import canonical_json


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _plain(obj):
    """Package values as plain JSON types, as the writer's predecessor made them."""
    if hasattr(obj, "to_jsonable"):
        return _plain(obj.to_jsonable())
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_plain(x) for x in items]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class Packed:
    """A package value: it turns itself into another value when written."""

    def __init__(self, value):
        self.value = value

    def to_jsonable(self):
        return self.value


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 12


finite = st.floats(allow_nan=False, allow_infinity=False)
edge_floats = st.sampled_from([-0.0, 0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308])
tricky_text = st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "é", " ", "😀", "a\nb\tc"])
text = st.text(max_size=8) | tricky_text
big_ints = st.integers(-(2**130), 2**130)

json_scalars = st.none() | st.booleans() | big_ints | finite | edge_floats | text
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(text, inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple),
    max_leaves=24,
)


@given(json_values)
def test_plain_values_give_the_bytes_of_json_dumps(value):
    assert canonical_json(value) == _dumps(value)


package_scalars = (
    json_scalars
    | st.fractions(max_denominator=10**6)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers(-(2**31), 2**31 - 1).map(np.int32)
    | finite.map(np.float64)
    | st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32)
    | st.sampled_from(list(Level))
    | st.lists(big_ints.map(lambda i: i % 1000), max_size=4).map(np.array)
    | st.lists(finite, min_size=2, max_size=4).map(lambda xs: np.array(xs).reshape(-1, 1))
    | st.frozensets(big_ints, max_size=4)
    | st.sets(text, max_size=4)
)
# int, bool and str keys collide once str()-ed ("1", 1, True): the last one wins
package_keys = text | st.integers(-3, 3) | st.booleans() | st.sampled_from(["1", "True"])
package_values = st.recursive(
    package_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(package_keys, inner, max_size=4)
    | inner.map(Packed),
    max_leaves=24,
)


@given(package_values)
@example({5, -1, -2, 2**64, 3})
@example({"k": frozenset({"b", "a", "c"}), 2: [np.array([[1, 2], [3, 4]]), Fraction(-3, 6)]})
def test_package_values_give_the_bytes_of_the_plain_conversion(value):
    assert canonical_json(value) == _dumps(_plain(value))


def _bury(value, wraps):
    for container, key in wraps:
        if container == "list":
            value = [0, value, "after"]
        elif container == "dict":
            value = {key: value, "": None}
        else:
            value = Packed(value)
    return value


@given(
    bad=st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), np.float64("nan"), np.float32("-inf")]
    ),
    wraps=st.lists(
        st.tuples(st.sampled_from(["list", "dict", "packed"]), st.text(min_size=1, max_size=3)),
        max_size=6,
    ),
)
def test_nan_and_infinity_are_refused_at_any_depth(bad, wraps):
    with pytest.raises(ValueError):
        canonical_json(_bury(bad, wraps))


@pytest.mark.parametrize(
    "odd",
    [object(), 1j, b"bytes", np.bool_(True), np.array(0.0), np.array(1.5), Packed(object())],
)
def test_unknown_types_are_refused(odd):
    for value in (odd, [1, odd], {"a": {"b": odd}}):
        with pytest.raises(TypeError):
            canonical_json(value)
