"""The canonical JSON writer against the json module's encoder.

Plain JSON values must give exactly the bytes of ``json.dumps`` with sorted
keys, a two-space indent and no NaN.  Package values must give what the
writer's predecessor gave: a recursive conversion to plain JSON types (spelled
out here as ``_plain``) followed by that same ``json.dumps``.  The reports of
one verify call, written from one template, must give the generic writer's
bytes, and the trial CSV rows those of a per-row renderer.
"""
import dataclasses
import enum
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pauliverify import reporting
from pauliverify.cli import load_target
from pauliverify.protocol import GroupResult, TrialColumns, VerdictReport, prepare
from pauliverify.reporting import canonical_json, trial_csv_lines
from pauliverify.schedules import desk_params
from pauliverify.single_copy import ParityTest


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


# ---------------------------------------------------------------------------
# The reports of one verify call are written from one template of the first


SLOT_FIDELITIES = [None, 0.0, -0.0, 5e-324, 0.9999999999999996, 1.7976931348623157e308]


@st.composite
def engine_calls(draw, min_runs=2):
    """The reports of one engine call: shared params, provers and group shapes."""
    protocol = draw(st.sampled_from(["ground", "circuit", "hypergraph"]))
    k = draw(st.integers(1, 50))
    params = desk_params(
        protocol, draw(st.integers(1, 8)), k=k, m=draw(st.integers(0, 3)),
        epsilon=draw(st.fractions(Fraction(1, 100), Fraction(1, 2), max_denominator=100)),
    )
    prover_kind = draw(st.sampled_from(["honest", "iid_deviated", "classically_correlated"]))
    comparison = "<=" if protocol == "ground" else ">="
    thresholds = draw(st.lists(st.fractions(0, 1, max_denominator=1000), min_size=1, max_size=3))
    reports = []
    for _ in range(draw(st.integers(min_runs, 6))):
        groups = tuple(
            GroupResult(
                i, draw(st.integers(0, k)), k, f"{t.numerator}/{t.denominator}",
                comparison, draw(st.booleans()),
            )
            for i, t in enumerate(thresholds)
        )
        reports.append(
            VerdictReport(
                accepted=draw(st.booleans()),
                groups=groups,
                target_register=draw(st.integers(0, params.n_registers - 1)),
                target_fidelity=draw(st.sampled_from(SLOT_FIDELITIES)),
                seed=draw(st.integers(0, 2**63 - 1)),
                params=params,
                prover_kind=prover_kind,
            )
        )
    return reports


def _filled_and_generic(value) -> tuple[str, str, int]:
    """(canonical_json(value), its text from the generic writer, reports templated)."""
    filled = []
    template = reporting._report_template

    def counting(first, inner):
        fill = template(first, inner)
        if fill is None:
            return None
        return lambda report: filled.append(fill(report)) or filled[-1]

    with mock.patch.object(reporting, "_report_template", counting):
        text = canonical_json(value)
    with mock.patch.object(reporting, "_report_template", lambda first, inner: None):
        generic = canonical_json(value)
    return text, generic, sum(t is not None for t in filled)


@given(engine_calls(), st.booleans())
@example(
    [
        VerdictReport(True, (GroupResult(0, 3, 3, "1/2", "<=", True),), 1, None, 2**63 - 1,
                      desk_params("ground", 1, k=3), "honest"),
        VerdictReport(False, (GroupResult(0, 0, 3, "1/2", "<=", False),), 0, -0.0, 0,
                      desk_params("ground", 1, k=3), "honest"),
    ],
    True,
)
def test_the_reports_of_one_call_are_templated_with_the_generic_bytes(reports, in_manifest):
    value = {"reports": reports, "runs": len(reports)} if in_manifest else reports
    text, generic, templated = _filled_and_generic(value)
    assert text == generic == _dumps(_plain(value))
    assert templated == len(reports)


@pytest.mark.parametrize(
    "prover_kind, templated", [("\x000\x00", 0), ("\x00x\x00", 0), ("%s %d %% \x00", 2)]
)
def test_sentinel_or_percent_text_in_a_shared_field_keeps_the_bytes(prover_kind, templated):
    """A sentinel's text outside its slot leaves the generic path; a % is written as is."""
    params = desk_params("circuit", 2, k=4)
    reports = [
        VerdictReport(ok, (GroupResult(0, 4 * ok, 4, "9/10", ">=", ok),), 1, 0.5, 3, params,
                      prover_kind)
        for ok in (True, False)
    ]
    text, generic, filled = _filled_and_generic(reports)
    assert text == generic == _dumps(_plain(reports))
    assert filled == templated


@given(engine_calls(min_runs=1), engine_calls(min_runs=1), st.randoms(use_true_random=False))
def test_reports_of_two_calls_fall_back_to_the_generic_bytes(first, second, random):
    same_call = (first[0].params, first[0].prover_kind) == (second[0].params, second[0].prover_kind)
    mixed = first + second
    random.shuffle(mixed)
    text, generic, templated = _filled_and_generic(mixed)
    assert text == generic == _dumps(_plain(mixed))
    if not same_call:
        assert templated < len(mixed)


@given(
    engine_calls(),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.integers(0, 5),
)
def test_a_templated_report_still_refuses_a_non_finite_fidelity(reports, bad, index):
    index %= len(reports)
    reports[index] = dataclasses.replace(reports[index], target_fidelity=bad)
    with pytest.raises(ValueError, match="not JSON compliant"):
        canonical_json(reports)


# ---------------------------------------------------------------------------
# Trial rows


def _per_row_trial_lines(trials) -> list[str]:
    """The trial CSV's data lines, one formatted row at a time (the reference)."""
    lines = []
    for run, columns in enumerate(trials):
        rows = zip(columns.registers.tolist(), columns.branches, columns.passed.tolist())
        for group, (registers, branches, passed) in enumerate(rows):
            labels = columns.labels(group, branches)
            for t, (register, label, ok) in enumerate(zip(registers, labels, passed)):
                lines.append(f"{run},{group},{t},{register},{label},{ok:d}")
    return lines


DATA = Path(__file__).parent / "data"
# clifford_t: parity terms of three groups; hyper6: adaptive labels of support
# width 0 (its isolated vertex 5) and of widths 1 and more
CSV_TESTS = [prepare(load_target(DATA / name)[1]).test for name in ("clifford_t.json", "hyper6.json")]


def _branch_range(test, group: int) -> tuple[int, int]:
    if isinstance(test, ParityTest):
        lo = int(test.term_offset[group])
        return lo, lo + int(test.term_count[group]) - 1
    return 0, 2 ** len(test.forms[group].projector_support) - 1


@st.composite
def trial_columns(draw):
    test = draw(st.sampled_from(CSV_TESTS))
    groups, k = len(test.group_l1), draw(st.sampled_from([1, 2, 3, 7]))
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        registers = draw(st.permutations(range(groups * k + 3)))[: groups * k]
        branches = [
            draw(st.lists(st.integers(*_branch_range(test, i)), min_size=k, max_size=k))
            for i in range(groups)
        ]
        passed = draw(st.lists(st.booleans(), min_size=groups * k, max_size=groups * k))
        runs.append(
            TrialColumns(
                np.array(registers).reshape(groups, k),
                np.array(branches),
                np.array(passed).reshape(groups, k),
                test.branch_labels,
            )
        )
    return runs


@given(trial_columns())
def test_trial_rows_have_the_bytes_of_the_per_row_renderer(trials):
    assert trial_csv_lines(trials) == _per_row_trial_lines(trials)
