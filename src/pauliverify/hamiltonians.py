"""Pauli-sum Hamiltonians and their gap-rescaled sampling form.

A Hamiltonian H with ground energy E0 and a gap lower bound D is rescaled to
(H - E0*I)/D, whose ground energy is 0 and whose spectral gap is at least 1.
The rescaled operator is kept as a sampled Pauli sum: merged terms, the l1
norm of their coefficients and the induced sampling distribution.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .reporting import field, read_object
from .paulis import (
    PauliString,
    PauliSum,
    merge_pauli_terms,
    pauli_sum_dense,
)
from .schedules import budget_report
from .states import DenseState, pure_state

# Eigenvalues closer than this are treated as one degenerate level.
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class HamiltonianSpec:
    """A sum of weighted Pauli strings with optional spectral data."""

    kind = "hamiltonian"  # a class attribute, not a field
    n: int
    terms: tuple[PauliString, ...]
    ground_energy: float | None = None
    gap_lower_bound: float | None = None

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a Hamiltonian needs at least one term")
        for t in self.terms:
            if t.n != self.n:
                raise ValueError("term width does not match the register")
        if self.gap_lower_bound is not None and self.gap_lower_bound <= 0:
            raise ValueError("gap lower bound must be positive")

    def dense(self) -> np.ndarray:
        return pauli_sum_dense(self.terms)


@dataclass(frozen=True)
class DiagonalizationResult:
    e0: float
    e1: float | None  # None when the spectrum has a single level
    projector: np.ndarray  # onto the ground-energy eigenspace
    ground: DenseState  # one deterministic ground-space eigenvector


def exact_diagonalize(h: HamiltonianSpec) -> DiagonalizationResult:
    """Ground energy, first excitation energy, ground-space projector and ground state."""
    evals, evecs = np.linalg.eigh(h.dense())
    e0 = float(evals[0])
    ground = evecs[:, evals <= e0 + DEGENERACY_TOL]
    above = evals[evals > e0 + DEGENERACY_TOL]
    e1 = float(above[0]) if above.size else None
    vec = evecs[:, 0]
    return DiagonalizationResult(
        e0, e1, ground @ ground.conj().T, pure_state(vec / np.linalg.norm(vec), h.n)
    )


def ground_state(h: HamiltonianSpec) -> DenseState:
    """One deterministic ground-space eigenvector as a pure state."""
    return exact_diagonalize(h).ground


@dataclass(frozen=True)
class RescaledHamiltonian(PauliSum):
    """(H - E0*I)/D as a sampled Pauli sum, with the E0 and gap it used."""

    e0_used: float
    gap_used: float
    oracle_assisted: bool


def rescale(
    h: HamiltonianSpec, diag: DiagonalizationResult | None = None
) -> RescaledHamiltonian:
    """Build the rescaled form, diagonalizing first when E0 or the gap is absent.

    A caller that has diagonalized ``h`` already passes the result as
    ``diag``.  Runs that had to compute E0/D themselves are marked
    ``oracle_assisted``.
    """
    e0 = h.ground_energy
    gap = h.gap_lower_bound
    oracle_assisted = False
    if e0 is None or gap is None:
        if diag is None:
            diag = exact_diagonalize(h)
        if e0 is None:
            e0 = diag.e0
        if gap is None:
            if diag.e1 is None:
                raise ValueError("spectrum is a single level; no gap exists")
            gap = diag.e1 - diag.e0
        oracle_assisted = True

    shifted = [t.with_coeff(t.coeff / gap) for t in h.terms]
    shifted.append(PauliString.identity(h.n, -e0 / gap))
    terms = merge_pauli_terms(shifted)
    if not terms:
        raise ValueError("rescaled Hamiltonian vanished entirely")

    rh = RescaledHamiltonian.of(
        terms, e0_used=float(e0), gap_used=float(gap), oracle_assisted=oracle_assisted
    )
    if rh.identity_coeff < -1e-10:
        raise ValueError("identity coefficient of the rescaled form is negative")
    return rh


def check_conditions(rh: RescaledHamiltonian, budget: float | None = None) -> dict:
    """``budget_report`` of the rescaled form, with its l1 norm, gap and any warning."""
    report = budget_report(rh.n, rh.l1_norm, budget)
    warning = None
    if not report["within_budget"]:
        warning = (
            f"l1 norm {rh.l1_norm:g} exceeds the budget {report['budget_value']:g}; "
            f"a small gap ({rh.gap_used:g}) inflates the sampling cost "
            "exponentially in the worst case"
        )
    return {**report, "l1_norm": rh.l1_norm, "gap_used": rh.gap_used, "warning": warning}


def load_hamiltonian(source: str | Path | dict) -> HamiltonianSpec:
    """Read the JSON Hamiltonian format.

    Schema: {"n_qubits": int, "terms": [{"pauli": str over IXYZ, "coeff": float}],
    "ground_energy"?: float, "gap"?: float}.  Qubit 0 is the leftmost character.
    """
    obj = read_object(source, "the Hamiltonian")
    n = field(obj, "n_qubits", int)
    terms = []
    for entry in field(obj, "terms", list[dict]):
        axes = field(entry, "pauli", str)
        if len(axes) != n:
            raise ValueError(f"term {axes!r} does not span {n} qubits")
        terms.append(PauliString.from_axes(axes, field(entry, "coeff", float)))
    energy, gap = field(obj, "ground_energy", float, None), field(obj, "gap", float, None)
    return HamiltonianSpec(n, tuple(terms), ground_energy=energy, gap_lower_bound=gap)


def hamiltonian_to_jsonable(h: HamiltonianSpec) -> dict:
    out = {
        "n_qubits": h.n,
        "terms": [{"pauli": t.axes, "coeff": t.coeff} for t in h.terms],
    }
    if h.ground_energy is not None:
        out["ground_energy"] = h.ground_energy
    if h.gap_lower_bound is not None:
        out["gap"] = h.gap_lower_bound
    return out
