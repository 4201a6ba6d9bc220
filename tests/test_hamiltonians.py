import json

import numpy as np
import pytest

from pauliverify.paulis import PauliString
from pauliverify.hamiltonians import (
    HamiltonianSpec,
    check_conditions,
    exact_diagonalize,
    hamiltonian_to_jsonable,
    load_hamiltonian,
    rescale,
)

from conftest import dense_from_axes


def minus_z() -> HamiltonianSpec:
    return HamiltonianSpec(1, (PauliString.from_axes("Z", -1.0),))


def random_pauli_sum(n, n_terms, rng) -> HamiltonianSpec:
    terms = tuple(
        PauliString.from_axes(
            "".join(rng.choice(list("IXYZ")) for _ in range(n)), float(rng.normal())
        )
        for _ in range(n_terms)
    )
    return HamiltonianSpec(n, terms)


def test_diagonalize_single_qubit():
    diag = exact_diagonalize(minus_z())
    assert diag.e0 == pytest.approx(-1.0)
    assert diag.e1 == pytest.approx(1.0)
    assert np.allclose(diag.projector, np.diag([1.0, 0.0]))


def test_diagonalize_degenerate_ground_space():
    h = HamiltonianSpec(2, (PauliString.from_axes("ZZ", -1.0),))
    diag = exact_diagonalize(h)
    assert diag.e0 == pytest.approx(-1.0)
    assert np.trace(diag.projector).real == pytest.approx(2.0)


def test_diagonalize_residual_oracle(rng):
    h = random_pauli_sum(3, 6, rng)
    diag = exact_diagonalize(h)
    dense = sum(dense_from_axes(t.axes, t.coeff) for t in h.terms)
    evals, evecs = np.linalg.eigh(dense)
    # residual-norm check of the reported ground level
    v = evecs[:, 0]
    assert np.linalg.norm(dense @ v - diag.e0 * v) < 1e-8
    assert diag.e1 == pytest.approx(float(evals[evals > diag.e0 + 1e-9][0]), abs=1e-8)


def test_rescale_minus_z_by_hand():
    rh = rescale(
        HamiltonianSpec(
            1, (PauliString.from_axes("Z", -1.0),), ground_energy=-1.0, gap_lower_bound=2.0
        )
    )
    by_axes = {t.axes: t.coeff for t in rh.terms}
    assert by_axes == pytest.approx({"I": 0.5, "Z": -0.5})
    assert rh.l1_norm == pytest.approx(1.0)
    assert not rh.oracle_assisted


def test_rescale_identity_when_already_normalized():
    h = HamiltonianSpec(
        1,
        (PauliString.from_axes("I", 0.5), PauliString.from_axes("Z", -0.5)),
        ground_energy=0.0,
        gap_lower_bound=1.0,
    )
    rh = rescale(h)
    by_axes = {t.axes: t.coeff for t in rh.terms}
    assert by_axes == pytest.approx({"I": 0.5, "Z": -0.5})


def test_rescale_dense_arithmetic_oracle(rng):
    # Heisenberg-type three-qubit sum
    terms = []
    for pair in [(0, 1), (1, 2)]:
        for ax in "XYZ":
            axes = "".join(ax if j in pair else "I" for j in range(3))
            terms.append(PauliString.from_axes(axes, 1.0))
    h = HamiltonianSpec(3, tuple(terms))
    rh = rescale(h)
    dense_h = sum(dense_from_axes(t.axes, t.coeff) for t in h.terms)
    want = (dense_h - rh.e0_used * np.eye(8)) / rh.gap_used
    assert np.max(np.abs(rh.dense() - want)) < 1e-10
    assert rh.oracle_assisted


def test_rescaled_spectrum_normalized(rng):
    for _ in range(5):
        h = random_pauli_sum(3, 5, rng)
        rh = rescale(h)
        evals = np.linalg.eigvalsh(rh.dense())
        assert evals[0] == pytest.approx(0.0, abs=1e-8)
        above = evals[evals > 1e-9]
        if above.size:
            assert above[0] >= 1.0 - 1e-8
        assert rh.identity_coeff >= -1e-10
        assert rh.cum[-1] == pytest.approx(1.0, abs=1e-12)


def test_condition_report_budget():
    rh = rescale(
        HamiltonianSpec(
            1, (PauliString.from_axes("Z", -1.0),), ground_energy=-1.0, gap_lower_bound=2.0
        )
    )
    rep = check_conditions(rh, budget=1.0**2)
    assert rep["within_budget"] and rep["warning"] is None
    # a tiny stated gap inflates the l1 norm past any polynomial budget
    rh_tiny = rescale(
        HamiltonianSpec(
            1,
            (PauliString.from_axes("Z", -1.0),),
            ground_energy=-1.0,
            gap_lower_bound=1e-6,
        )
    )
    assert rh_tiny.l1_norm == pytest.approx(2e6)  # (sum|d_i| + |E0|)/gap
    rep = check_conditions(rh_tiny, budget=1.0)
    assert not rep["within_budget"] and "budget" in rep["warning"]


def test_stated_gap_must_be_consistent():
    # a stated gap bounds E1 - E0 from below, so only a positive one is consistent
    for gap in (0.0, -2.0):
        with pytest.raises(ValueError):
            HamiltonianSpec(
                1,
                (PauliString.from_axes("Z", -1.0),),
                ground_energy=-1.0,
                gap_lower_bound=gap,
            )


def test_json_roundtrip(tmp_path):
    h = HamiltonianSpec(
        2,
        (PauliString.from_axes("ZZ", -1.0), PauliString.from_axes("XI", 0.25)),
        ground_energy=-1.2,
        gap_lower_bound=0.5,
    )
    path = tmp_path / "h.json"
    path.write_text(json.dumps(hamiltonian_to_jsonable(h)))
    back = load_hamiltonian(path)
    assert back == h
    with pytest.raises(ValueError):
        load_hamiltonian({"n_qubits": 2, "terms": [{"pauli": "Z", "coeff": 1.0}]})
