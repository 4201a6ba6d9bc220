from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauliverify import circuits
from pauliverify.circuits import (
    CircuitSpec,
    DecompositionIntractableError,
    GATE_ARITY,
    GATE_MATRICES,
    Gate,
    all_stabilizer_decompositions,
    build_circuit_state,
    check_circuit_conditions,
    circuit,
    _conjugation_table,
    circuit_to_jsonable,
    conjugate_through_circuit,
    gate_table,
    load_circuit,
    rz_conjugation,
    rz_matrix,
)
from pauliverify.hamiltonians import load_hamiltonian, rescale
from pauliverify.paulis import (
    DROP_THRESHOLD, PauliString, bit_for_qubit, decompose_in_pauli_basis, qubit_mask
)
from pauliverify.states import apply_on_axes, plus_state, random_pure_state, to_density

from conftest import dense_from_axes, SINGLE


def _local_axes(arity, masks):
    return PauliString(arity, *masks).axes


def _hex_table(table: dict) -> dict:
    return {key: [(image, factor.hex()) for image, factor in images] for key, images in table.items()}


def test_lazy_gate_tables_equal_the_full_build_bit_for_bit():
    tables = {g: gate_table(g) for g in GATE_MATRICES}
    for name in GATE_MATRICES:
        full = _conjugation_table(GATE_MATRICES[name], GATE_ARITY[name])
        assert list(gate_table(name)) == list(full)
        assert _hex_table(gate_table(name)) == _hex_table(full)
        assert _hex_table(tables[name]) == _hex_table(full)
    assert set(tables) == set(GATE_MATRICES)
    # the read-off of 1/sqrt(2) squared keeps its last-bit rounding in H's table
    assert {f.hex() for images in gate_table("H").values() for _, f in images} == {
        "0x1.ffffffffffffep-1", "-0x1.ffffffffffffep-1"  # 0.9999999999999998
    }


def test_a_circuit_builds_only_the_tables_of_its_gates(monkeypatch):
    built = []

    def spy(gate, arity):
        built.append(next(name for name, mat in GATE_MATRICES.items() if mat is gate))
        return _conjugation_table(gate, arity)

    gate_table.cache_clear()
    monkeypatch.setattr(circuits, "_conjugation_table", spy)
    c = circuit(3, [("H", (0,)), ("CNOT", (0, 1)), ("T", (2,)), ("H", (1,)), ("RZ", (2,), 0.3)])
    all_stabilizer_decompositions(c)
    assert sorted(built) == ["CNOT", "H", "T"]  # once each; never CCZ, and RZ has no table
    assert gate_table.cache_info().currsize == 3


def test_conjugation_tables_match_dense_exhaustively():
    # every table row satisfies G P G^dag = sum(rule) against fresh kron math
    for name, table in {g: gate_table(g) for g in GATE_MATRICES}.items():
        gate = GATE_MATRICES[name]
        arity = GATE_ARITY[name]
        assert len(table) == 4**arity
        for key, expansion in table.items():
            lhs = gate @ dense_from_axes(_local_axes(arity, key)) @ gate.conj().T
            rhs = sum(dense_from_axes(_local_axes(arity, m), c) for m, c in expansion)
            assert np.max(np.abs(lhs - rhs)) < 1e-12, (name, key)


def test_rz_conjugation_matches_dense():
    for angle in [0.3, np.pi / 4, -1.2]:
        gate = rz_matrix(angle)
        table = rz_conjugation(angle)
        assert len(table) == 4
        for key, expansion in table.items():
            lhs = gate @ SINGLE[_local_axes(1, key)] @ gate.conj().T
            rhs = sum(SINGLE[_local_axes(1, m)] * c for m, c in expansion)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_identity_circuit_stabilizer():
    d = conjugate_through_circuit(circuit(2, []), 0)
    assert len(d.terms) == 1
    assert d.terms[0].axes == "XI" and d.terms[0].coeff == 1.0
    assert d.l1_norm == 1.0


def test_cz_clifford_stabilizer():
    d = conjugate_through_circuit(circuit(2, [("CZ", (0, 1))]), 0)
    assert [(t.axes, t.coeff) for t in d.terms] == [("XZ", 1.0)]
    assert d.l1_norm == 1.0


def test_ccz_stabilizer_matches_dense_decomposition():
    c = circuit(3, [("CCZ", (0, 1, 2))])
    d = conjugate_through_circuit(c, 0)
    by_axes = {t.axes: t.coeff for t in d.terms}
    assert by_axes == pytest.approx(
        {"XII": 0.5, "XIZ": 0.5, "XZI": 0.5, "XZZ": -0.5}
    )
    assert d.l1_norm == pytest.approx(2.0)
    ccz = GATE_MATRICES["CCZ"]
    dense = ccz @ dense_from_axes("XII") @ ccz.conj().T
    oracle = {t.axes: t.coeff for t in decompose_in_pauli_basis(dense)}
    assert by_axes == pytest.approx(oracle, abs=1e-10)


def random_circuit(n, n_gates, rng) -> CircuitSpec:
    names = ["H", "S", "SDG", "X", "Y", "Z", "T", "RZ", "CZ", "CNOT", "CCZ"]
    gates = []
    for _ in range(n_gates):
        name = str(rng.choice(names))
        arity = {"CZ": 2, "CNOT": 2, "CCZ": 3}.get(name, 1)
        if arity > n:
            continue
        qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
        angle = float(rng.uniform(0, 2 * np.pi)) if name == "RZ" else None
        gates.append(Gate(name, qubits, angle))
    return CircuitSpec(n, tuple(gates))


def test_random_circuits_match_dense_conjugation(rng):
    for _ in range(15):
        n = int(rng.integers(2, 5))
        c = random_circuit(n, 8, rng)
        u = np.eye(1 << n, dtype=complex)
        for gate in c.gates:
            # embed the gate by reshaping the identity through tensordot
            g_t = gate.matrix().reshape([2] * (2 * len(gate.qubits)))
            u_t = u.reshape([2] * (2 * n))
            in_axes = list(range(len(gate.qubits), 2 * len(gate.qubits)))
            u_t = np.tensordot(g_t, u_t, axes=(in_axes, list(gate.qubits)))
            u_t = np.moveaxis(u_t, range(len(gate.qubits)), gate.qubits)
            u = u_t.reshape(1 << n, 1 << n)
        for i in range(n):
            d = conjugate_through_circuit(c, i)
            want = u @ dense_from_axes("I" * i + "X" + "I" * (n - 1 - i)) @ u.conj().T
            assert np.max(np.abs(d.dense() - want)) < 1e-8


def test_projector_product_reconstructs_state(rng):
    for _ in range(6):
        n = int(rng.integers(2, 5))
        c = random_circuit(n, 6, rng)
        psi = build_circuit_state(c)
        proj = np.eye(1 << n, dtype=complex)
        for d in all_stabilizer_decompositions(c):
            proj = proj @ (np.eye(1 << n) + d.dense()) / 2
        assert np.max(np.abs(proj - to_density(psi).data)) < 1e-8


def test_stabilizer_l1_at_least_one(rng):
    # observed numerically: Pauli terms are trace-orthonormal, so the sum of
    # squared coefficients of a unitary stabilizer is 1 and the l1 norm >= 1
    for _ in range(10):
        n = int(rng.integers(2, 5))
        c = random_circuit(n, 7, rng)
        for d in all_stabilizer_decompositions(c):
            sq = sum(t.coeff**2 for t in d.terms)
            assert sq == pytest.approx(1.0, abs=1e-10)
            assert d.l1_norm >= 1.0 - 1e-10


def test_term_growth_with_stacked_ccz(rng):
    # growth of the l1 norm across CCZ layers sharing a qubit is measurable
    last = 1.0
    for layers in range(1, 5):
        n = 1 + 2 * layers
        c = circuit(n, [("CCZ", (0, 1 + 2 * t, 2 + 2 * t)) for t in range(layers)])
        d = conjugate_through_circuit(c, 0)
        assert d.l1_norm == pytest.approx(2.0**layers)
        assert d.l1_norm >= last
        last = d.l1_norm


def test_term_cap_raises(monkeypatch):
    monkeypatch.setattr(circuits, "TERM_CAP", 8)
    c = circuit(9, [("CCZ", (0, 1 + 2 * t, 2 + 2 * t)) for t in range(4)])
    with pytest.raises(DecompositionIntractableError):
        conjugate_through_circuit(c, 0)


def test_push_through_and_merge_build_no_axis_string(rng, monkeypatch):
    # axis strings are rendered at the edges only: the push-through, the
    # term order and the merge of a rescale all work on masks
    h = load_hamiltonian(Path(__file__).parent / "data" / "ring3.json")
    circuits = [random_circuit(int(rng.integers(2, 7)), 12, rng) for _ in range(10)]

    def refuse(p):
        raise AssertionError("an axis string was rendered")

    monkeypatch.setattr(PauliString, "axes", property(refuse))
    for c in circuits:
        all_stabilizer_decompositions(c)
    rescale(h)
    with pytest.raises(AssertionError, match="rendered"):
        PauliString.identity(1).axes


def test_condition_report():
    c = circuit(2, [("CZ", (0, 1)), ("H", (1,))])
    decomps = all_stabilizer_decompositions(c)
    rep = check_circuit_conditions(decomps)
    assert rep["l1_max"] == pytest.approx(1.0)
    assert rep["within_budget"]
    with pytest.raises(ValueError):
        check_circuit_conditions([])
    with pytest.raises(ValueError):
        check_circuit_conditions(decomps[:1])
    # list index i is qubit i: one sum of width n per qubit, no more
    with pytest.raises(ValueError):
        check_circuit_conditions(decomps + decomps[:1])
    wider = all_stabilizer_decompositions(circuit(3, [("CZ", (0, 1))]))
    with pytest.raises(ValueError):
        check_circuit_conditions([decomps[0], wider[1]])


def test_build_state_examples():
    # CZ graph state
    st = build_circuit_state(circuit(2, [("CZ", (0, 1))]))
    want = np.array([1, 1, 1, -1]) / 2
    assert np.allclose(st.data, want)
    # CCZ on |+++> equals the single-triple hypergraph state
    st = build_circuit_state(circuit(3, [("CCZ", (0, 1, 2))]))
    want = np.full(8, 1 / np.sqrt(8))
    want[7] *= -1
    assert np.allclose(st.data, want)


def test_gate_validation_and_aliases():
    assert Gate("S†", (0,)).name == "SDG"
    assert Gate("cx", (0, 1)).name == "CNOT"
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("CZ", (1, 1))
    with pytest.raises(ValueError):
        Gate("H", (0,), angle=0.5)
    with pytest.raises(ValueError):
        Gate("RZ", (0,))
    with pytest.raises(ValueError):
        Gate("FREDKIN", (0, 1, 2))


def test_json_roundtrip(tmp_path):
    c = circuit(3, [("H", (0,)), ("RZ", (1,), 0.7), ("CCZ", (0, 1, 2))])
    path = tmp_path / "c.json"
    import json

    path.write_text(json.dumps(circuit_to_jsonable(c)))
    assert load_circuit(path) == c


# ---------------------------------------------------------------------------
# The circuit path without per-call overhead, against the code it replaced


def int_view(a: np.ndarray) -> np.ndarray:
    """The bits of a complex array as integers, so -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


def tensordot_then_moveaxis(matrix, psi, qubits):
    """A gate applied as build_circuit_state applied it before fixed-axis kernels."""
    arity = len(qubits)
    mat = matrix.reshape([2] * (2 * arity))
    in_axes = list(range(arity, 2 * arity))
    out = np.tensordot(mat, psi, axes=(in_axes, list(qubits)))
    return np.moveaxis(out, range(arity), qubits)


@given(n=st.integers(3, 8), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_gate_application_equals_tensordot_then_moveaxis_bit_for_bit(n, data, seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(n, rng).data.reshape([2] * n)
    # named gates, and dense matrices that no reordering of their qubits leaves alone
    gates = [
        Gate("T", (int(rng.integers(n)),)),
        Gate("RZ", (int(rng.integers(n)),), data.draw(st.floats(-2 * np.pi, 2 * np.pi))),
        Gate("CNOT", tuple(data.draw(st.permutations(range(n)))[:2])),
        Gate("CCZ", tuple(data.draw(st.permutations(range(n)))[:3])),
    ]
    steps = [(g.matrix(), g.qubits) for g in gates]
    for arity in (1, 2, 3):
        dense = rng.normal(size=(1 << arity, 1 << arity)) * (1 + 1j)
        steps.append((dense, tuple(data.draw(st.permutations(range(n)))[:arity])))
    for matrix, qubits in steps + [(GATE_MATRICES["CNOT"], (n - 1, 0)),
                                   (GATE_MATRICES["CCZ"], (2, 0, 1))]:
        want = tensordot_then_moveaxis(matrix, psi, qubits)
        got = apply_on_axes(matrix, psi, qubits)
        assert got.shape == want.shape
        assert np.array_equal(int_view(got), int_view(want))
        psi = got


def test_build_circuit_state_equals_the_tensordot_loop_bit_for_bit(rng):
    for _ in range(20):
        n = int(rng.integers(1, 9))
        c = random_circuit(n, 40, rng)
        psi = plus_state(n).data.reshape([2] * n).copy()
        for gate in c.gates:
            psi = tensordot_then_moveaxis(gate.matrix(), psi, gate.qubits)
        got = build_circuit_state(c).data
        assert np.array_equal(int_view(got), int_view(psi.reshape(-1)))


def rule_lifted_by_qubit_mask(gate: Gate, n: int) -> dict:
    """Gate.rule_on as it read when each local mask was lifted with qubit_mask."""
    arity = len(gate.qubits)
    lift = [
        qubit_mask(n, (q for t, q in enumerate(gate.qubits) if m & bit_for_qubit(arity, t)))
        for m in range(1 << arity)
    ]
    rule = rz_conjugation(gate.angle) if gate.name == "RZ" else gate_table(gate.name)
    return {
        (lift[x], lift[z]): [(lift[gx], lift[gz], f) for (gx, gz), f in images]
        for (x, z), images in rule.items()
    }


@pytest.mark.parametrize("n", [3, 8, 70, 2048])
def test_lifted_rules_equal_the_qubit_mask_lift(n):
    rng = np.random.default_rng(n)
    for name, arity in sorted(GATE_ARITY.items()):
        for _ in range(3):
            qubits = tuple(rng.choice(n, size=arity, replace=False).tolist())
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi)) if name == "RZ" else None
            gate = Gate(name, qubits, angle)
            got, want = gate.rule_on(n), rule_lifted_by_qubit_mask(gate, n)
            assert list(got) == list(want)
            for key, images in got.items():
                assert [(x, z, f.hex()) for x, z, f in images] == [
                    (x, z, f.hex()) for x, z, f in want[key]
                ]


def push_through_with_masks_per_gate(c: CircuitSpec, qubit: int) -> list[PauliString]:
    """conjugate_through_circuit as it read when each gate's masks were made per stabilizer."""
    terms = {PauliString.on_qubit(c.n, qubit, "X").key: 1.0}
    for gate in c.gates:
        rule = gate.rule_on(c.n)
        on = qubit_mask(c.n, gate.qubits)
        nxt = {}
        for (xm, zm), coeff in terms.items():
            x_off, z_off = xm & ~on, zm & ~on
            for gx, gz, factor in rule[xm & on, zm & on]:
                key = (x_off | gx, z_off | gz)
                nxt[key] = nxt.get(key, 0.0) + coeff * factor
        terms = {k: v for k, v in nxt.items() if abs(v) > DROP_THRESHOLD}
    strings = (PauliString(c.n, x, z, v) for (x, z), v in terms.items())
    return sorted(strings, key=attrgetter("sort_key"))


@pytest.mark.parametrize(
    "n, n_gates",
    [(1, 10), (3, 30), (6, 60), (8, 80), (70, 300), (256, 512), (1024, 1024)],
)
def test_push_through_with_lifted_masks_equals_masks_per_gate(n, n_gates):
    # 70 qubits: the masks are Python ints wider than any machine word;
    # 256 and 1024 qubits: wide and shallow, so most gates, H among them,
    # miss a stabilizer's support
    rng = np.random.default_rng(n)
    c = random_circuit(n, n_gates, rng)
    full = (1 << n) - 1
    for gate, (on, off, _) in zip(c.gates, c.rules, strict=True):
        assert (on, off) == (qubit_mask(n, gate.qubits), full ^ qubit_mask(n, gate.qubits))
    for qubit in sorted(rng.choice(n, size=min(n, 8), replace=False).tolist()):
        got = conjugate_through_circuit(c, qubit).terms
        want = push_through_with_masks_per_gate(c, qubit)
        assert [(t.key, t.coeff.hex()) for t in got] == [(t.key, t.coeff.hex()) for t in want]
