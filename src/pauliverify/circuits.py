"""Generalized stabilizers of circuit-generated states.

For |psi> = U|+>^n the qubit-i stabilizer is U X_i U^dag.  It is computed by
pushing the single term X_i through the gate list: Clifford gates map one
Pauli string to one signed string, while T/RZ/CCZ fan a term out into a small
bounded set.  The per-gate rules are not transcribed by hand; each gate's
is derived the first time a circuit uses that gate, by dense conjugation of
every 1-, 2-, or 3-qubit Pauli and an exact Pauli-basis read-off, so the
table cannot drift from the gate matrices.

A rule maps a Pauli's gate-local ``(x, z)`` masks (gate qubit 0 the most
significant bit) to local masks and factors; a circuit lifts each rule onto
its qubits once, and the push-through works on masks alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .paulis import (
    DROP_THRESHOLD,
    PAULI_MATRICES,
    PauliString,
    PauliSum,
    bit_for_qubit,
    decompose_in_pauli_basis,
    qubit_mask,
)
from .reporting import field, read_object
from .schedules import budget_report
from .states import HADAMARD, S_DAGGER, DenseState, apply_on_axes, plus_state, pure_state

# The most Pauli terms a pushed-through stabilizer may hold.
TERM_CAP = 1 << 18


class DecompositionIntractableError(ValueError):
    """The pushed-through stabilizer exceeded TERM_CAP Pauli terms."""


GATE_MATRICES = {
    "H": HADAMARD,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": S_DAGGER,
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "X": PAULI_MATRICES["X"],
    "Y": PAULI_MATRICES["Y"],
    "Z": PAULI_MATRICES["Z"],
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CCZ": np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex),
}
GATE_ARITY = {name: mat.shape[0].bit_length() - 1 for name, mat in GATE_MATRICES.items()}
GATE_ARITY["RZ"] = 1

_NAME_ALIASES = {
    "S†": "SDG",
    "SDG": "SDG",
    "SDAG": "SDG",
    "CX": "CNOT",
}


def canonical_gate_name(name: str) -> str:
    upper = name.upper()
    upper = _NAME_ALIASES.get(upper, upper)
    if upper not in GATE_ARITY:
        raise ValueError(f"unsupported gate {name!r}")
    return upper


def rz_matrix(angle: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * angle)]).astype(complex)


def _conjugation_table(gate: np.ndarray, arity: int) -> dict:
    """Exact expansion of  G P G^dag  over local Pauli strings, for every local P."""
    table = {}
    for x, z in product(range(1 << arity), repeat=2):
        conj = gate @ PauliString(arity, x, z).dense() @ gate.conj().T
        table[x, z] = [(t.key, t.coeff) for t in decompose_in_pauli_basis(conj)]
    return table


@cache
def gate_table(name: str) -> dict:
    """The conjugation table of gate ``name``, built the first time a circuit uses it."""
    return _conjugation_table(GATE_MATRICES[name], GATE_ARITY[name])


def rz_conjugation(angle: float) -> dict:
    """diag(1, e^{i*angle}) conjugation: X and Y rotate into each other."""
    c, s = math.cos(angle), math.sin(angle)
    return {
        (0, 0): [((0, 0), 1.0)],
        (0, 1): [((0, 1), 1.0)],
        (1, 0): [((1, 0), c), ((1, 1), s)],
        (1, 1): [((1, 1), c), ((1, 0), -s)],
    }


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        canon = canonical_gate_name(self.name)
        object.__setattr__(self, "name", canon)
        if len(self.qubits) != GATE_ARITY[canon]:
            raise ValueError(f"{canon} acts on {GATE_ARITY[canon]} qubits")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")
        if (canon == "RZ") != (self.angle is not None):
            raise ValueError("exactly the RZ gate takes an angle")

    def matrix(self) -> np.ndarray:
        return rz_matrix(self.angle) if self.name == "RZ" else GATE_MATRICES[self.name]

    def rule_on(self, n: int) -> dict:
        """The gate's rule with keys and images moved onto ``n``-qubit masks."""
        lift = [0]  # local mask -> register mask; the first qubit is the local top bit
        for q in self.qubits:
            bit = bit_for_qubit(n, q)
            lift = [mask | b for mask in lift for b in (0, bit)]
        rule = rz_conjugation(self.angle) if self.name == "RZ" else gate_table(self.name)
        return {
            (lift[x], lift[z]): [(lift[gx], lift[gz], f) for (gx, gz), f in images]
            for (x, z), images in rule.items()
        }


@dataclass(frozen=True)
class CircuitSpec:
    """An ordered gate list applied left-to-right to |+>^n."""

    kind = "circuit"  # a class attribute, not a field
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"a circuit needs at least one qubit, got {self.n}")
        for gate in self.gates:
            if min(gate.qubits, default=0) < 0 or max(gate.qubits, default=0) >= self.n:
                raise ValueError(f"gate {gate} leaves the register")

    @cached_property
    def rules(self) -> tuple[tuple[int, int, dict], ...]:
        """(on, off, rule) per gate, lifted once for all stabilizers.

        ``on`` masks the gate's qubits and ``off`` the others, as Python ints
        of any width; ``rule`` is the gate's rule on the register.
        """
        full = (1 << self.n) - 1
        masks = [qubit_mask(self.n, gate.qubits) for gate in self.gates]
        return tuple((on, full ^ on, g.rule_on(self.n)) for on, g in zip(masks, self.gates))


def circuit(n: int, gates) -> CircuitSpec:
    out = []
    for g in gates:
        name, qubits = g[0], tuple(g[1])
        angle = g[2] if len(g) > 2 else None
        out.append(Gate(name, qubits, angle))
    return CircuitSpec(n, tuple(out))


def build_circuit_state(c: CircuitSpec) -> DenseState:
    """Apply the gate list to |+>^n with dense amplitudes."""
    psi = plus_state(c.n).data.reshape([2] * c.n)
    for gate in c.gates:
        psi = apply_on_axes(gate.matrix(), psi, gate.qubits)
    return pure_state(psi.reshape(-1), c.n)


def conjugate_through_circuit(c: CircuitSpec, qubit: int) -> PauliSum:
    """Push X on ``qubit`` through the gate list: the Pauli sum of U X_qubit U^dag."""
    terms = {PauliString.on_qubit(c.n, qubit, "X").key: 1.0}
    support = qubit_mask(c.n, (qubit,))  # the qubits some kept term acts on
    for on, off, rule in c.rules:
        if not on & support:
            # every term meets the gate as the identity, whose one image is
            # (0, 0) with factor 1.0, or 0.9999999999999998 for H
            ((_, _, factor),) = rule[0, 0]
            if factor != 1.0:
                terms = {
                    k: w for k, v in terms.items() if abs(w := 0.0 + v * factor) > DROP_THRESHOLD
                }
            continue
        nxt: dict[tuple[int, int], float] = {}
        for (xm, zm), coeff in terms.items():
            x_off, z_off = xm & off, zm & off
            for gx, gz, factor in rule[xm & on, zm & on]:
                key = (x_off | gx, z_off | gz)
                nxt[key] = nxt.get(key, 0.0) + coeff * factor
        terms = {k: v for k, v in nxt.items() if abs(v) > DROP_THRESHOLD}
        if len(terms) > TERM_CAP:
            raise DecompositionIntractableError(
                f"stabilizer for qubit {qubit} exceeded {TERM_CAP} Pauli terms"
            )
        support = 0
        for xm, zm in terms:
            support |= xm | zm
    return PauliSum.of(
        sorted(
            (PauliString(c.n, x, z, v) for (x, z), v in terms.items()),
            key=attrgetter("sort_key"),
        )
    )


def all_stabilizer_decompositions(c: CircuitSpec) -> list[PauliSum]:
    """The stabilizer of every qubit; list index i holds U X_i U^dag."""
    return [conjugate_through_circuit(c, i) for i in range(c.n)]


def check_circuit_conditions(decomps: Sequence[PauliSum], budget: float | None = None) -> dict:
    """``budget_report`` of the largest stabilizer l1 norm, with every qubit's norm."""
    if not decomps:
        raise ValueError("no stabilizer decompositions supplied")
    n = decomps[0].n
    # sum i is the stabilizer of qubit i, so there are n of them, all of width n
    if len(decomps) != n or any(d.n != n for d in decomps):
        raise ValueError(f"need one stabilizer decomposition of width {n} per qubit")
    per = [d.l1_norm for d in decomps]
    l1_max = max(per)
    return {**budget_report(n, l1_max, budget), "l1_max": l1_max, "l1_per_qubit": per}


def load_circuit(source: str | Path | dict) -> CircuitSpec:
    """Read {"n_qubits": int, "gates": [{"name", "qubits", "angle"?}]}."""
    obj = read_object(source, "the circuit")
    gates = [
        Gate(
            field(entry, "name", str),
            tuple(field(entry, "qubits", list[int])),
            field(entry, "angle", float, None),
        )
        for entry in field(obj, "gates", list[dict])
    ]
    return CircuitSpec(field(obj, "n_qubits", int), tuple(gates))


def circuit_to_jsonable(c: CircuitSpec) -> dict:
    gates = []
    for gate in c.gates:
        entry = {"name": gate.name, "qubits": list(gate.qubits)}
        if gate.angle is not None:
            entry["angle"] = gate.angle
        gates.append(entry)
    return {"n_qubits": c.n, "gates": gates}
