"""The dense-simulation caps: one check, made before every dense allocation.

``schedules.capped_dim`` is the only place that raises CapExceededError.  These
tests read the package source with ``ast`` to keep it that way, and measure
with tracemalloc that a request over a cap is refused before anything of its
size is allocated.
"""
import ast
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pauliverify import (
    DENSE_QUBIT_CAP,
    PURE_QUBIT_CAP,
    CapExceededError,
    HamiltonianSpec,
    PauliString,
    computational_state,
    maximally_mixed,
    partial_trace,
    plus_state,
    random_mixed_state,
    random_pure_state,
    rescale,
    to_density,
)
from pauliverify.circuits import build_circuit_state, circuit
from pauliverify.cli import main
from pauliverify.hypergraphs import (
    adaptive_form,
    build_state,
    hypergraph,
    outcome_tables,
    stabilizer_dense,
)
from pauliverify.paulis import INSPECT_QUBIT_CAP
from pauliverify.protocol import EntangledRegisters
from pauliverify.states import mixture

SRC = Path(__file__).resolve().parent.parent / "src" / "pauliverify"
MIB = 1 << 20


def _cap_raise_sites() -> list[str]:
    """The module of every ``raise CapExceededError(...)`` in the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", None) or getattr(exc, "attr", None)
            if name == "CapExceededError":
                found.append(path.name)
    return found


def test_one_place_raises_the_cap_error():
    assert _cap_raise_sites() == ["schedules.py"]


def _peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn()`` runs."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak


# A 12-qubit density matrix would take 4**12 * 16 bytes = 256 MiB.
WIDE = 12


def _wide_hypergraph(tmp_path) -> Path:
    path = tmp_path / "wide.json"
    edges = [[v, v + 1] for v in range(WIDE - 1)] + [[0, 1, 2]]
    path.write_text(json.dumps({"n_vertices": WIDE, "edges": edges}))
    return path


def _iid_deviated_config(tmp_path, target: Path) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "target": str(target),
        "params": {"mode": "desk", "k": 5},
        "prover": {"kind": "iid_deviated", "epsilon_prime": 0.1},
        "seed": 1,
    }))
    return path


@pytest.mark.parametrize("command", ["robustness", "ppass", "verify"])
def test_wide_deviated_run_exits_2_before_allocating(tmp_path, capsys, command):
    target = _wide_hypergraph(tmp_path)
    args = {
        "robustness": [
            "robustness", "--target", str(target), "--eps-prime", "0.1",
            "-k", "5", "--runs", "1", "--seed", "1",
        ],
        "ppass": ["ppass", "--target", str(target), "--state", "deviated:0.1"],
        "verify": ["verify", "--config", str(_iid_deviated_config(tmp_path, target))],
    }[command]
    codes = []
    peak = _peak_bytes(lambda: codes.append(main(args)))
    captured = capsys.readouterr()
    assert codes == [2]
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "cap_exceeded"
    assert peak < 8 * MIB


def test_states_at_the_caps_still_build():
    assert maximally_mixed(DENSE_QUBIT_CAP).data.shape == (256, 256)
    assert plus_state(PURE_QUBIT_CAP).data.size == 1 << 16


# Each allocator a few qubits over its cap, where the array it would build
# holds up to 16 MiB.
OVER_DENSE = DENSE_QUBIT_CAP + 2
OVER_PURE = PURE_QUBIT_CAP + 4
ALLOCATORS = {
    "plus_state": lambda: plus_state(OVER_PURE),
    "computational_state": lambda: computational_state(OVER_PURE, 0),
    "random_pure_state": lambda: random_pure_state(OVER_PURE, np.random.default_rng(0)),
    "random_mixed_state": lambda: random_mixed_state(
        OVER_DENSE, np.random.default_rng(0)
    ),
    "maximally_mixed": lambda: maximally_mixed(OVER_DENSE),
    "mixture": lambda: mixture(plus_state(OVER_DENSE), plus_state(OVER_DENSE), 0.5),
    "to_density": lambda: to_density(plus_state(OVER_DENSE)),
    "partial_trace": lambda: partial_trace(
        plus_state(OVER_DENSE), tuple(range(OVER_DENSE))
    ),
    "build_state": lambda: build_state(hypergraph(OVER_PURE, [(0, 1)])),
    "stabilizer_dense": lambda: stabilizer_dense(hypergraph(OVER_DENSE, [(0, 1)]), 0),
    "outcome_tables": lambda: outcome_tables(
        [adaptive_form(hypergraph(OVER_PURE, [(0, 1, 2)]), 0)]
    ),
    "adaptive_form.dense": lambda: adaptive_form(
        hypergraph(OVER_DENSE, [(0, 1)]), 0
    ).dense(),
    "PauliString.dense": lambda: PauliString.identity(OVER_DENSE).dense(),
    "build_circuit_state": lambda: build_circuit_state(circuit(OVER_PURE, [])),
    "rescale": lambda: rescale(
        HamiltonianSpec(OVER_DENSE, (PauliString.identity(OVER_DENSE),))
    ),
    "EntangledRegisters": lambda: EntangledRegisters(4, 4, np.zeros(1)),
}


@pytest.mark.parametrize("build", ALLOCATORS.values(), ids=ALLOCATORS.keys())
def test_allocator_over_its_cap_refuses_before_allocating(build):
    def refused():
        with pytest.raises(CapExceededError, match="exceeds the .*-qubit cap"):
            build()

    assert _peak_bytes(refused) < 1 * MIB


# ---------------------------------------------------------------------------
# inspect reports at least one entry per qubit, and a circuit's n letters for
# each of n stabilizers, so its width is capped for every kind of target


def _one_h_circuit(tmp_path, n: int) -> Path:
    path = tmp_path / f"one_h_{n}.json"
    path.write_text(json.dumps({"n_qubits": n, "gates": [{"name": "H", "qubits": [0]}]}))
    return path


@pytest.mark.parametrize("n", [INSPECT_QUBIT_CAP + 1, 10_000])
def test_inspect_wider_than_its_cap_exits_2_at_once(tmp_path, capsys, n):
    target = _one_h_circuit(tmp_path, n)
    start = time.perf_counter()
    assert main(["inspect", str(target)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": f"circuit inspection on {n} qubits exceeds the 2048-qubit cap",
        "kind": "cap_exceeded",
    }


def test_inspect_of_a_2000_qubit_circuit_lists_every_stabilizer(tmp_path, capsys):
    n = 2000
    assert main(["inspect", str(_one_h_circuit(tmp_path, n))]) == 0
    stabilizers = json.loads(capsys.readouterr().out)["stabilizers"]
    assert [s["qubit"] for s in stabilizers] == list(range(n))
    # H X H = Z on qubit 0; every other stabilizer is its own X
    paulis = [[t["pauli"] for t in s["terms"]] for s in stabilizers]
    assert paulis[0] == ["Z" + "I" * (n - 1)]
    assert all(p == ["I" * q + "X" + "I" * (n - 1 - q)] for q, p in enumerate(paulis) if q)


def _edgeless_hypergraph(tmp_path, n: int) -> Path:
    path = tmp_path / f"edgeless_{n}.json"
    path.write_text(json.dumps({"n_vertices": n, "edges": []}))
    return path


def _one_z_hamiltonian(tmp_path, n: int) -> Path:
    path = tmp_path / f"one_z_{n}.json"
    path.write_text(json.dumps({"n_qubits": n, "terms": [{"pauli": "Z" * n, "coeff": 1.0}]}))
    return path


@pytest.mark.parametrize(
    "kind, write, n",
    [
        ("hypergraph", _edgeless_hypergraph, INSPECT_QUBIT_CAP + 1),
        ("hypergraph", _edgeless_hypergraph, 10**6),
        ("hamiltonian", _one_z_hamiltonian, INSPECT_QUBIT_CAP + 1),
    ],
    ids=["hypergraph-cap+1", "hypergraph-1e6", "hamiltonian-cap+1"],
)
def test_inspect_of_any_kind_wider_than_its_cap_exits_2_at_once(tmp_path, capsys, kind, write, n):
    target = write(tmp_path, n)
    start = time.perf_counter()
    assert main(["inspect", str(target)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": f"{kind} inspection on {n} qubits exceeds the 2048-qubit cap",
        "kind": "cap_exceeded",
    }


def test_inspect_of_a_2000_vertex_hypergraph_lists_every_vertex(tmp_path, capsys):
    n = 2000
    assert main(["inspect", str(_edgeless_hypergraph(tmp_path, n))]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_qubits"] == n
    assert [s["vertex"] for s in report["stabilizers"]] == list(range(n))
