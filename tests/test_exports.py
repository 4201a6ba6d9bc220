"""The package resolves its exports on first use; every exported name keeps working."""
import importlib

import pytest

import pauliverify

# The package's exports, by the module they were imported from when the
# package imported every submodule eagerly.
EXPORTED = {
    "paulis": [
        "CapExceededError", "DENSE_QUBIT_CAP", "PURE_QUBIT_CAP", "PauliString", "PauliSum",
        "decompose_in_pauli_basis", "merge_pauli_terms", "pauli_sum_dense",
    ],
    "states": [
        "DenseState", "MeasurementRecord", "apply_pauli", "computational_state",
        "expectation", "maximally_mixed", "measure_in_bases", "mixed_state",
        "outcome_distribution", "overlap", "partial_trace", "plus_state", "pure_state",
        "random_mixed_state", "random_pure_state", "to_density",
    ],
    "hamiltonians": [
        "HamiltonianSpec", "RescaledHamiltonian", "check_conditions", "exact_diagonalize",
        "ground_state", "load_hamiltonian", "rescale",
    ],
    "hypergraphs": [
        "AdaptiveStabilizerForm", "HypergraphSpec", "adaptive_form", "all_adaptive_forms",
        "build_state", "connectivity", "hypergraph", "load_hypergraph",
        "random_bms_instance", "stabilizer_dense",
    ],
    "circuits": [
        "CircuitSpec", "Gate", "all_stabilizer_decompositions", "build_circuit_state",
        "check_circuit_conditions", "circuit", "conjugate_through_circuit", "load_circuit",
    ],
    "single_copy": [
        "AdaptiveTest", "ParityTest", "adaptive_test_exact_ppass", "energy_test_exact_ppass",
        "monte_carlo_pass_rate", "parity_test_exact_ppass",
    ],
    "protocol": [
        "PreparedTarget", "ProtocolParams", "ProverModel", "VerdictReport",
        "classically_correlated_prover", "coherent_error_prover", "desk_params",
        "entangled_demo_prover", "honest_prover", "iid_deviated_prover", "prepare",
        "run_seeds", "schedule_params",
    ],
    "analysis": [
        "DistributionPair", "hoeffding_calculator", "l1_distance",
        "minimal_k_for_sampling_hardness", "robustness_sweep", "supremacy_margin",
        "trace_distance_fidelity_bounds", "x_basis_distribution",
    ],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_export_is_the_object_of_its_module(module, name):
    # ``from pauliverify import name`` reads the attribute, as getattr does
    value = getattr(pauliverify, name)
    assert value is getattr(importlib.import_module(f"pauliverify.{module}"), name)
    assert name in dir(pauliverify)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pauliverify.no_such_name
    with pytest.raises(ImportError):
        exec("from pauliverify import no_such_name", {})
    assert pauliverify.__version__ == "0.1.0"
