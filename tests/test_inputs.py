"""Every JSON input is read by one typed reader, and malformed input exits 1 or 2.

``reporting.read_object`` and ``reporting.field`` read configs, target files
and reports under one typing rule.  These tests pin that rule, replay inputs
that once ended in a traceback or in exit 0 with a misread value, check with
``ast`` that nothing else parses JSON, and fuzz every checked-in input and
every subcommand argument.
"""
import ast
import copy
import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pauliverify import circuits, protocol
from pauliverify.analysis import DistributionPair, hoeffding_calculator, hoeffding_tail
from pauliverify.circuits import circuit
from pauliverify.cli import main
from pauliverify.hypergraphs import hypergraph, random_bms_instance
from pauliverify.paulis import PURE_QUBIT_CAP, PauliString, PauliSum
from pauliverify.protocol import (
    EntangledRegisters,
    classically_correlated_prover,
    coherent_error_prover,
    entangled_demo_prover,
    iid_deviated_prover,
    prepare,
)
from pauliverify.reporting import field, read_object
from pauliverify.schedules import (
    CapExceededError,
    budget_report,
    desk_params,
    pass_cut,
    schedule_epsilon,
    schedule_params,
    supremacy_margin,
)
from pauliverify.single_copy import ParityTest, binomial_sigma, monte_carlo_pass_rate
from pauliverify.states import computational_state, mixed_state, mixture, pure_state

SRC = Path(__file__).resolve().parent.parent / "src" / "pauliverify"
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_refused(argv, needle, code=1):
    got, out, err = run(argv)
    assert (got, out) == (code, "")
    doc = json.loads(err)
    assert doc["kind"] == ("cap_exceeded" if code == 2 else "config")
    assert needle in doc["error"]


# ---------------------------------------------------------------------------
# The typing rule


@pytest.mark.parametrize(
    "value, kind, expected",
    [
        (3, int, 3),
        (10.0, int, 10),
        (2, float, 2.0),
        (-0.5, float, -0.5),
        ("Z", str, "Z"),
        ([1, 2.0], list[int], [1, 2]),
        ([[0, 1.0]], list[list[int]], [[0, 1]]),
        ({}, dict, {}),
    ],
)
def test_field_reads_a_well_typed_value(value, kind, expected):
    got = field({"x": value}, "x", kind)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize(
    "value, kind, message",
    [
        (True, int, "x must be an integer, got true"),
        (False, float, "x must be a number, got false"),
        ("10", int, 'x must be an integer, got "10"'),
        ("1.5", float, 'x must be a number, got "1.5"'),
        (10.7, int, "x must be a whole number, got 10.7"),
        (math.inf, int, "x must be a whole number, got Infinity"),
        (math.nan, float, "x must be a finite number, got NaN"),
        (-math.inf, float, "x must be a finite number, got -Infinity"),
        pytest.param(10**400, float, "x must be a finite number, got 1000", id="10**400"),
        (None, int, "x must be an integer, got null"),
        (5, str, "x must be a string, got 5"),
        ([1], dict, "x must be a JSON object, got [1]"),
        ({}, list, "x must be a list, got {}"),
        ([0, 0.5], list[int], "x[1] must be a whole number, got 0.5"),
        ([[0], None], list[list[int]], "x[1] must be a list, got null"),
    ],
)
def test_field_refuses_every_other_value(value, kind, message):
    with pytest.raises(ValueError) as exc:
        field({"x": value}, "x", kind)
    assert str(exc.value).startswith(message)


def test_null_stands_for_a_missing_value_only_where_the_default_is_none():
    assert field({}, "x", int, 7) == 7
    assert field({}, "x", int, None) is None
    assert field({"x": None}, "x", int, None) is None
    with pytest.raises(ValueError, match="x must be an integer, got null"):
        field({"x": None}, "x", int, 7)
    with pytest.raises(ValueError, match="x must be an integer, got nothing"):
        field({}, "x", int)


@pytest.mark.parametrize("top", [5, [1], "a", None])
def test_read_object_refuses_anything_but_an_object(tmp_path, top):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(top))
    # a str source is a path, so an already-parsed string cannot be passed
    sources = (path, str(path)) if isinstance(top, str) else (path, str(path), top)
    for source in sources:
        with pytest.raises(ValueError, match="the doc must be a JSON object, got "):
            read_object(source, "the doc")


# ---------------------------------------------------------------------------
# Inputs that once ended in a traceback, in exit 0 with a misread value, or
# in a misleading message

Z_TARGET = {"n_qubits": 1, "terms": [{"pauli": "Z", "coeff": 1.0}]}
TRIPLE = {"n_vertices": 3, "edges": [[0, 1, 2]]}
ONE_H = {"n_qubits": 2, "gates": [{"name": "H", "qubits": [0]}]}


def _edited(doc: dict, **fields) -> dict:
    return {**copy.deepcopy(doc), **fields}


def _term(**fields) -> dict:
    return _edited(Z_TARGET, terms=[{"pauli": "Z", "coeff": 1.0, **fields}])


def _gate(**fields) -> dict:
    return _edited(ONE_H, gates=[{"name": "H", "qubits": [0], **fields}])


MALFORMED_TARGETS = [
    # tracebacks
    (_edited(Z_TARGET, n_qubits=None), "n_qubits must be an integer, got null"),
    (_term(pauli=5), "pauli must be a string, got 5"),
    (_term(coeff=None), "coeff must be a number, got null"),
    (5, "the target file must be a JSON object, got 5"),
    (_edited(TRIPLE, edges=None), "edges must be a list, got null"),
    (_gate(qubits=0), "qubits must be a list, got 0"),
    (_gate(name=5), "name must be a string, got 5"),
    # exit 0 on a misread input
    (_edited(TRIPLE, n_vertices=3.7), "n_vertices must be a whole number, got 3.7"),
    (_gate(qubits=[0.7]), "qubits[0] must be a whole number, got 0.7"),
    (_edited(TRIPLE, z_layer=[0.5]), "z_layer[0] must be a whole number, got 0.5"),
    (_edited(Z_TARGET, n_qubits="1"), 'n_qubits must be an integer, got "1"'),
    (_term(coeff="-1"), 'coeff must be a number, got "-1"'),
    (_edited(Z_TARGET, ground_energy=math.nan), "ground_energy must be a finite number"),
    # misleading messages
    (_term(coeff=math.nan), "coeff must be a finite number, got NaN"),
    (_edited(Z_TARGET, gap=math.nan), "gap must be a finite number, got NaN"),
]


@pytest.mark.parametrize("target, needle", MALFORMED_TARGETS)
def test_malformed_target_is_config_error(tmp_path, target, needle):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(target))
    assert_refused(["ppass", "--target", path], needle)


def test_json_nested_too_deeply_is_config_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert_refused(["ppass", "--target", path], "the target file is nested too deeply")


def test_ground_energy_of_z_still_gives_the_exact_pass_probability(tmp_path):
    # a NaN energy used to drop the identity term: p_pass 0.0 and l1_norm 1.0, exit 0
    path = tmp_path / "z.json"
    path.write_text(json.dumps(_edited(Z_TARGET, ground_energy=-1.0, gap=1.0)))
    code, out, _ = run(["ppass", "--target", path])
    assert code == 0
    doc = json.loads(out)
    assert (doc["p_pass"]["value"], doc["l1_norm"]) == (0.5, 2.0)


OVERFLOWING = {
    "n_qubits": 2,
    "terms": [{"pauli": "ZZ", "coeff": 1.0}, {"pauli": "XI", "coeff": 0.5}],
    "ground_energy": -1e308,
    "gap": 1e-308,
}


@pytest.mark.parametrize("command", ["verify", "robustness", "inspect", "ppass"])
def test_a_rescaling_that_overflows_is_config_error(tmp_path, command):
    # -E0/gap is inf: verify and robustness ended in an OverflowError traceback,
    # inspect and ppass in a numpy RuntimeWarning and a message about JSON
    target, config = tmp_path / "target.json", tmp_path / "config.json"
    target.write_text(json.dumps(OVERFLOWING))
    config.write_text(json.dumps({"target": str(target), "params": {"k": 2}, "seed": 1}))
    argv = {
        "verify": ["verify", "--config", config],
        "robustness": ["robustness", "--target", target, "--eps-prime", "0", "-k", "5"],
        "inspect": ["inspect", target],
        "ppass": ["ppass", "--target", target],
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_refused(argv, "a Pauli sum needs a finite l1 norm, got inf")
    assert caught == []


def _report(**fields) -> dict:
    doc = json.loads((GOLDEN / "verify_hyper_honest.json").read_text())
    doc["report"].update(fields)
    return doc


@pytest.mark.parametrize(
    "report, needle",
    [
        ([1], "the report must be a JSON object, got [1]"),
        (5, "the report must be a JSON object, got 5"),
        (_report(target_fidelity={}), "target_fidelity must be a number, got {}"),
        (_report(target_fidelity=True), "target_fidelity must be a number, got true"),
        ({"report": 5}, "report must be a JSON object, got 5"),
    ],
)
def test_malformed_iqp_margin_report_is_config_error(tmp_path, report, needle):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert_refused(["iqp-margin", "--report", path], needle)


# ---------------------------------------------------------------------------
# Usage errors exit 1 with JSON, like every other config error


@pytest.mark.parametrize(
    "argv, needle",
    [
        ([], "the following arguments are required: command"),
        (["gen-hypergraph", "--n", "abc", "--edge-prob", "0.5"], "invalid int value: 'abc'"),
        (["inspect"], "the following arguments are required: target"),
        (["ppass", "--state", "ideal"], "the following arguments are required: --target"),
        (["verify", "--config", "c.json", "--runs", "x"], "invalid int value: 'x'"),
        (["params", "--protocol", "ground", "--n", "abc"], "invalid int value: 'abc'"),
        (["iqp-margin", "--sampler-error", "x"], "invalid float value: 'x'"),
        (["robustness", "--target", "t.json", "--eps-prime", "0", "-k", "x"],
         "invalid int value: 'x'"),
        (["selftest", "--seed", "x"], "invalid int value: 'x'"),
        (["verify", "--config", "c.json", "--mode", "fast"], "invalid choice: 'fast'"),
    ],
)
def test_usage_error_is_config_error(argv, needle):
    assert_refused(argv, needle)


def test_help_still_exits_0():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--help"])
    assert exc.value.code == 0


def test_verify_refuses_an_empty_trials_csv_path():
    # an empty path would record every trial column and then write none
    argv = ["verify", "--config", DATA / "verify_ring3.json", "--trials-csv", ""]
    assert_refused(argv, "--trials-csv")


# ---------------------------------------------------------------------------
# Range checks live in the constructors, one message per field


@pytest.mark.parametrize(
    "n, k, m, message",
    [
        (0, 1, 0, "n must be at least 1, got 0"),
        (3, 0, 0, "k must be at least 1, got 0"),
        (3, -2, 0, "k must be at least 1, got -2"),
        (3, 1, -1, "m must be at least 0, got -1"),
    ],
)
def test_protocol_params_name_the_field_out_of_range(n, k, m, message):
    with pytest.raises(ValueError, match=message):
        desk_params("hypergraph", n, k=k, m=m)


_UP, _DOWN = computational_state(1, 0), computational_state(1, 1)
_Z = PauliSum.of([PauliString.from_axes("Z")])

# A NaN, an infinity or a size below 1 is refused with a ValueError; the
# message names the value where the check spells one.
LIBRARY_REFUSALS = [
    # a NaN entry fails each check as a comparison with NaN is false
    ("pure_state-nan", lambda: pure_state([math.nan, 0.0]), "state norm nan is not 1"),
    ("mixed_state-nan", lambda: mixed_state([[math.nan, 0.0], [0.0, 0.5]]), "trace is not 1"),
    (
        "EntangledRegisters-nan",
        lambda: EntangledRegisters(1, 2, [math.nan, 0.0, 0.0, 0.0]),
        "not normalized",
    ),
    ("mixture", lambda: mixture(_UP, _DOWN, math.nan), "mixture weight must lie in"),
    ("iid_deviated_prover", lambda: iid_deviated_prover(_UP, math.nan, _DOWN), "epsilon_prime"),
    ("entangled_demo_prover", lambda: entangled_demo_prover(_UP, _DOWN, math.nan), "weight"),
    (
        # refused when the prover is built, not in numpy at the first run
        "entangled_demo_prover-width",
        lambda: entangled_demo_prover(computational_state(2, 0), computational_state(3, 0), 0.5),
        "differ in width: 3 and 2 qubits",
    ),
    (
        "DistributionPair-nan",
        lambda: DistributionPair(np.array([math.nan, 1.0]), np.array([0.5, 0.5])),
        "probabilities must be nonnegative",
    ),
    (
        "classically_correlated_prover",
        lambda: classically_correlated_prover([_UP, _DOWN], [math.nan, 0.5]),
        "probability vector",
    ),
    ("supremacy_margin", lambda: supremacy_margin(math.nan, 0), "fidelity must lie"),
    (
        "random_bms_instance",
        lambda: random_bms_instance(3, math.nan, np.random.default_rng(0)),
        "edge probability",
    ),
    ("budget_report", lambda: budget_report(3, 1.0, math.nan), "l1 budget must be finite"),
    (
        "schedule_params",
        lambda: schedule_params("ground", 3, l1_norm=math.inf),
        "l1 norm must be finite and positive, got inf",
    ),
    (
        "desk_params-nan",
        lambda: desk_params("ground", 3, k=5, epsilon=math.nan),
        "epsilon must be a finite number, got nan",
    ),
    (
        "desk_params-inf",
        lambda: desk_params("ground", 3, k=5, epsilon=math.inf),
        "epsilon must be a finite number, got inf",
    ),
    (
        "hoeffding_calculator-inf",
        lambda: hoeffding_calculator(0.5, 10, math.inf),
        "t must be finite and positive, got inf",
    ),
    (
        "hoeffding_calculator-nan",
        lambda: hoeffding_calculator(0.5, 10, math.nan),
        "t must be finite and positive, got nan",
    ),
    # a tail probability above 1 (1.0202 at k=-1), or exp of NaN
    ("hoeffding_tail-k", lambda: hoeffding_tail(-1, 0.1), "k must be at least 1, got -1"),
    ("hoeffding_tail-nan", lambda: hoeffding_tail(10, math.nan), "t must be finite, got nan"),
    ("hoeffding_tail-inf", lambda: hoeffding_tail(10, -math.inf), "t must be finite, got -inf"),
    ("binomial_sigma", lambda: binomial_sigma(0.5, 0), "n_trials must be at least 1, got 0"),
    (
        "coherent_error_prover",
        lambda: coherent_error_prover(computational_state(2, 0), PauliString(2, 0, 1, math.nan)),
        "unit-coefficient Pauli",
    ),
    ("schedule_epsilon-ground", lambda: schedule_epsilon("ground", 0), "n must be at least 1"),
    ("schedule_epsilon-circuit", lambda: schedule_epsilon("circuit", 0), "n must be at least 1"),
    (
        "schedule_epsilon-hypergraph-0",
        lambda: schedule_epsilon("hypergraph", 3, 0),
        "k must be at least 1, got 0",
    ),
    (
        "schedule_epsilon-hypergraph-negative",
        lambda: schedule_epsilon("hypergraph", 3, -3),
        "k must be at least 1, got -3",
    ),
    (
        "monte_carlo_pass_rate",
        lambda: monte_carlo_pass_rate(
            ParityTest(_Z, _Z), 10, np.random.default_rng(0), computational_state(1, 0)
        ),
        "the kernel must have one group, got 2",
    ),
]


@pytest.mark.parametrize(
    "call, message",
    [case[1:] for case in LIBRARY_REFUSALS],
    ids=[case[0] for case in LIBRARY_REFUSALS],
)
def test_library_refuses_a_value_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# A target over the cap is refused before the per-group work


def test_prepare_builds_the_capped_state_before_the_groups(monkeypatch):
    calls = []
    monkeypatch.setattr(protocol, "all_adaptive_forms", lambda g: calls.append(g.n))
    # prepare imports the circuit functions from circuits when it runs
    monkeypatch.setattr(circuits, "all_stabilizer_decompositions", lambda c: calls.append(c.n))
    wide = PURE_QUBIT_CAP + 1
    with pytest.raises(CapExceededError):
        prepare(hypergraph(wide, [(0, 1)]))
    with pytest.raises(CapExceededError):
        prepare(circuit(wide, [("H", (0,))]))
    assert calls == []


@pytest.mark.parametrize(
    "target",
    [
        # every vertex's adaptive form used to be built first: linear in the width
        {"n_vertices": 200_000, "edges": [[0, 1]]},
        # every qubit's stabilizer used to be pushed through first: quadratic
        {"n_qubits": 2_000, "gates": [{"name": "H", "qubits": [0]}]},
    ],
)
def test_wide_target_exits_2(tmp_path, target):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(target))
    assert_refused(["ppass", "--target", path], "pure state on", code=2)


@pytest.mark.parametrize("n", [PURE_QUBIT_CAP + 1, 10_000])
def test_gen_hypergraph_wider_than_the_pure_cap_exits_2(n):
    # the pair and triple draws grow as n**3: n = 10 000 would take hours
    argv = ["gen-hypergraph", "--n", n, "--edge-prob", "0.5", "--seed", "1"]
    assert_refused(argv, f"random hypergraph on {n} qubits", code=2)


# ---------------------------------------------------------------------------
# Nothing but the reader parses JSON or indexes raw input


def _loader_trees():
    """cli.py, plus the body of every load_* function of the three target modules."""
    yield "cli.py", ast.parse((SRC / "cli.py").read_text())
    for name in ("hamiltonians.py", "circuits.py", "hypergraphs.py"):
        for node in ast.parse((SRC / name).read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("load_"):
                yield f"{name}:{node.name}", node


def test_json_is_parsed_only_by_the_reader():
    parsers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("load", "loads")
                and getattr(func.value, "id", None) == "json"
            ):
                parsers.append(path.name)
    assert parsers == ["reporting.py"]


def test_loaders_read_input_only_through_field():
    raw = []
    for where, tree in _loader_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                raw.append(f"{where}:{node.lineno} [{node.slice.value!r}]")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
            ):
                raw.append(f"{where}:{node.lineno} .get(")
    assert raw == []


# ---------------------------------------------------------------------------
# Fuzz: one mutated field or argument never ends in a traceback

# Widths stay at 10**4, so the width caps refuse before anything is allocated;
# 10**4 runs of a valid config is a legitimate run of seconds, so run and
# trial counts get 10**6, past RUN_COUNT_CAP and the register cap.  DELETE
# removes the node, or the argument.
LARGE = object()
DELETE = object()
COUNT_KEYS = {"k", "m", "runs", "trials"}
VALUES = [None, math.nan, math.inf, -math.inf, -1, 0.5, "1", True, [1], {}, LARGE, DELETE]


def _value(value, key):
    if value is LARGE:
        return 10**6 if key in COUNT_KEYS else 10**4
    return value


def _paths(doc, prefix=()):
    """Every position in a JSON document, the whole document first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(child, prefix + (key,))


def _mutated(doc, path, value):
    if not path:
        return {} if value is DELETE else _value(value, None)
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = _value(value, path[-1])
    return doc


def _no_constant(name):
    raise ValueError(f"{name} in output")


# keys whose values are probabilities or fidelities, as numbers or quantities
UNIT_KEYS = {"per_group_ppass", "p_pass", "p_pass_per_qubit", "p_pass_per_vertex"}
RATE_KEYS = {"acceptance_rate", "predicted_acceptance"}


def _number(value):
    return value["value"] if isinstance(value, dict) else value


def _nodes(doc):
    """Every object in a JSON document."""
    if isinstance(doc, dict):
        yield doc
    for child in doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ():
        yield from _nodes(child)


def check_report(doc):
    """What a report of exit 0 must mean: rates, fidelities and verdicts that agree."""
    for node in _nodes(doc):
        for key in UNIT_KEYS & node.keys():
            values = node[key] if isinstance(node[key], list) else [node[key]]
            # rounding puts a probability a few ulps past 1
            assert all(-1e-12 <= _number(v) <= 1 + 1e-12 for v in values), (key, node[key])
        if node.get("target_fidelity") is not None:
            assert -1e-12 <= node["target_fidelity"] <= 1 + 1e-12, node
        for key in RATE_KEYS & node.keys():
            assert 0 <= _number(node[key]) <= 1, (key, node[key])
        if "bound" in node:  # negative when vacuous, by design
            assert math.isfinite(_number(node["bound"])), node
        if "groups" in node:  # one run's verdict
            for g in node["groups"]:
                assert 0 <= g["passes"] <= g["trials"], g
                cut = pass_cut(g["comparison"], Fraction(g["threshold"]), g["trials"])
                ok = g["passes"] <= cut if g["comparison"] == "<=" else g["passes"] >= cut
                assert g["passed"] == ok, g
            assert node["accepted"] == all(g["passed"] for g in node["groups"]), node
        if "accepted_runs" in node:  # a verify call of several runs
            assert node["acceptance_rate"] == node["accepted_runs"] / node["runs"], node
        if "accepted" in node and "runs" in node:  # a robustness point
            assert _number(node["acceptance_rate"]) == node["accepted"] / node["runs"], node


def check_outcome(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    if code:
        assert json.loads(err)["kind"] == ("cap_exceeded" if code == 2 else "config")
        return
    assert err == ""
    if argv[0] != "selftest":  # selftest prints a text report
        check_report(json.loads(out, parse_constant=_no_constant))


def _json_cases(names):
    """(file name, document, position) for every position of every named file."""
    docs = [(name, json.loads((DATA / name).read_text())) for name in names]
    return st.sampled_from([(name, doc, path) for name, doc in docs for path in _paths(doc)])


CONFIGS = sorted(p.name for p in DATA.glob("verify_*.json"))
TARGETS = sorted(p.name for p in DATA.glob("*.json") if not p.name.startswith("verify_"))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120)
@given(case=_json_cases(CONFIGS), value=st.sampled_from(VALUES))
def test_fuzzed_config_exits_cleanly(scratch, case, value):
    name, doc, path = case
    doc = dict(doc, target=str(DATA / doc["target"]))
    config = scratch / name
    config.write_text(json.dumps(_mutated(doc, path, value)))
    check_outcome(["verify", "--config", config])


MINUS_Z = json.loads((DATA / "minus_z.json").read_text())


@settings(max_examples=120)
@given(case=_json_cases(TARGETS), value=st.sampled_from(VALUES))
# a gap whose l1 norm 2/gap overflows, which no value of VALUES reaches
@example(case=("minus_z.json", MINUS_Z, ("gap",)), value=1e-308)
def test_fuzzed_target_exits_cleanly(scratch, case, value):
    name, doc, path = case
    target = scratch / name
    target.write_text(json.dumps(_mutated(doc, path, value)))
    config = scratch / "config.json"
    config.write_text(json.dumps({"target": str(target), "params": {"k": 2}, "seed": 1}))
    check_outcome(["verify", "--config", config])
    check_outcome(["ppass", "--target", target, "--state", "deviated:0.1"])
    check_outcome(["inspect", target])
    check_outcome(
        ["robustness", "--target", target, "--eps-prime", "0,0.1", "-k", "4", "--runs", "2",
         "--seed", "1"]
    )


REPORT = json.loads((GOLDEN / "verify_hyper_honest.json").read_text())


@settings(max_examples=60)
@given(path=st.sampled_from(list(_paths(REPORT))), value=st.sampled_from(VALUES))
def test_fuzzed_report_exits_cleanly(scratch, path, value):
    report = scratch / "report.json"
    report.write_text(json.dumps(_mutated(REPORT, path, value)))
    check_outcome(["iqp-margin", "--report", report])


BASE_ARGS = {
    "gen-hypergraph": [("--n", "4"), ("--edge-prob", "0.5"), ("--seed", "11")],
    "inspect": [(None, DATA / "triple.json"), ("--budget", "2")],
    "ppass": [("--target", DATA / "clifford_t.json"), ("--state", "deviated:0.1")],
    "verify": [
        ("--config", DATA / "verify_ring3.json"), ("--seed", "1"), ("--runs", "2"),
        ("--mode", "desk"),
    ],
    "params": [("--protocol", "circuit"), ("--n", "2"), ("--l1", "1.5"), ("--k", "5")],
    "iqp-margin": [("--fidelity", "0.9999"), ("--sampler-error", "0.001")],
    "robustness": [
        ("--target", DATA / "ccz.json"), ("--eps-prime", "0,0.1"), ("-k", "5"),
        ("--m", "1"), ("--epsilon", "0.1"), ("--runs", "2"), ("--seed", "1"),
    ],
    "selftest": [("--seed", "0")],
}
ARG_CASES = [(cmd, i) for cmd, args in BASE_ARGS.items() for i in range(len(args))]


def _as_argument(value, option) -> str:
    value = _value(value, option.lstrip("-") if option else None)
    if isinstance(value, float):
        return str(value)  # nan, inf and -inf, as float() reads them
    return value if isinstance(value, str) else json.dumps(value)


@settings(max_examples=150)
@given(case=st.sampled_from(ARG_CASES), value=st.sampled_from(VALUES))
def test_fuzzed_argument_exits_cleanly(case, value):
    command, index = case
    argv = [command]
    for i, (option, arg) in enumerate(BASE_ARGS[command]):
        if i == index and value is DELETE:
            continue
        text = _as_argument(value, option) if i == index else str(arg)
        argv.extend([f"{option}={text}"] if option else [text])
    check_outcome(argv)
