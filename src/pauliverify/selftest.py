"""Built-in invariant battery behind the `selftest` subcommand.

A quick, deterministic subset of the full pytest suite: enough to confirm an
installation computes the same algebra the tests pin down, with one `ok`
line per check.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .circuits import GATE_MATRICES, all_stabilizer_decompositions, circuit, gate_table
from .hamiltonians import HamiltonianSpec, rescale
from .hypergraphs import adaptive_form, build_state, hypergraph, stabilizer_dense
from .paulis import PauliString, decompose_in_pauli_basis, pauli_sum_dense
from .schedules import ground_accept_threshold, schedule_params
from .single_copy import adaptive_test_exact_ppass
from .states import measure_in_bases, outcome_distribution, random_mixed_state


def _check_pauli_roundtrip(rng) -> None:
    dim = 8
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = (a + a.conj().T) / 2
    back = pauli_sum_dense(decompose_in_pauli_basis(mat))
    assert np.max(np.abs(back - mat)) < 1e-8


def _check_hypergraph_identities(rng) -> None:
    g = hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3)])
    st = build_state(g)
    proj = np.eye(16, dtype=complex)
    for v in range(4):
        gv = stabilizer_dense(g, v)
        assert np.max(np.abs(gv @ gv - np.eye(16))) < 1e-10
        assert np.max(np.abs(gv @ st.data - st.data)) < 1e-10
        assert np.max(np.abs(adaptive_form(g, v).dense() - gv)) < 1e-10
        proj = proj @ (np.eye(16) + gv) / 2
    rho = np.outer(st.data, st.data.conj())
    assert np.max(np.abs(proj - rho)) < 1e-10


def _check_branch_sum(rng) -> None:
    g = hypergraph(4, [(0, 1, 2), (0, 2, 3)])
    rho = random_mixed_state(4, rng)
    for v in range(4):
        form = adaptive_form(g, v)
        a = adaptive_test_exact_ppass(rho, form, stabilizer_dense(g, v))
        b = adaptive_test_exact_ppass(rho, form)
        assert abs(a - b) < 1e-10


def _check_conjugation_tables(rng) -> None:
    for name in ("H", "S", "CZ", "CNOT", "CCZ"):
        gate = GATE_MATRICES[name]
        arity = gate.shape[0].bit_length() - 1
        for (x, z), expansion in gate_table(name).items():
            lhs = gate @ PauliString(arity, x, z).dense() @ gate.conj().T
            rhs = sum(PauliString(arity, gx, gz, c).dense() for (gx, gz), c in expansion)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def _check_ccz_l1(rng) -> None:
    decomps = all_stabilizer_decompositions(circuit(3, [("CCZ", (0, 1, 2))]))
    assert all(abs(d.l1_norm - 2.0) < 1e-12 for d in decomps)


def _check_threshold_boundary(rng) -> None:
    thr = ground_accept_threshold(Fraction(1, 2), 1.0)
    assert Fraction(3, 4) <= thr and not Fraction(4, 4) <= thr


def _check_schedules(rng) -> None:
    assert schedule_params("ground", 3, l1_norm=1.0).k == 7776
    assert schedule_params("circuit", 3, l1_norm=1.0).k == 17496
    assert schedule_params("hypergraph", 2).k == 8**7


def _check_born_sampler(rng) -> None:
    g = hypergraph(3, [(0, 1, 2)])
    st = build_state(g)
    bases = "XZZ"
    exact = outcome_distribution(st, bases)
    counts = np.zeros(8)
    samples = 20_000
    for _ in range(samples):
        rec, _ = measure_in_bases(st, bases, rng)
        k = 0
        for m in rec.outcomes:
            k = (k << 1) | (m == -1)
        counts[k] += 1
    tv = 0.5 * float(np.sum(np.abs(counts / samples - exact)))
    assert tv < 0.03


def _check_rescale(rng) -> None:
    rh = rescale(
        HamiltonianSpec(
            1, (PauliString.from_axes("Z", -1.0),), ground_energy=-1.0, gap_lower_bound=2.0
        )
    )
    assert abs(rh.l1_norm - 1.0) < 1e-12
    assert abs(rh.identity_coeff - 0.5) < 1e-12


CHECKS = (
    ("pauli-transform-roundtrip", _check_pauli_roundtrip),
    ("hypergraph-stabilizer-identities", _check_hypergraph_identities),
    ("adaptive-branch-sum", _check_branch_sum),
    ("gate-conjugation-tables", _check_conjugation_tables),
    ("ccz-stabilizer-l1", _check_ccz_l1),
    ("threshold-boundary", _check_threshold_boundary),
    ("parameter-schedules", _check_schedules),
    ("born-sampler-calibration", _check_born_sampler),
    ("hamiltonian-rescale", _check_rescale),
)


def run_selftest(seed: int = 0) -> bool:
    ok = True
    for index, (name, check) in enumerate(CHECKS):
        rng = np.random.default_rng((seed, index))
        try:
            check(rng)
        except Exception as exc:  # a failed invariant, not a crash report
            ok = False
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok {name}")
    print(f"selftest: {len(CHECKS)} checks, {'all passed' if ok else 'FAILURES above'}")
    return ok
