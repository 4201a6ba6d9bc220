"""Verification of many-qubit states with single-qubit Pauli measurements.

Dense, exactly-simulated implementations of three register-level
verification protocols (Hamiltonian ground states, circuit-generated states,
hypergraph states) with honest and adversarial prover models, closed-form
and Monte Carlo pass probabilities, and a reproducible CLI.

The exports below are resolved on first use (PEP 562), so ``import
pauliverify`` loads no submodule and ``from pauliverify import X`` loads
only the module that defines X.
"""
from importlib import import_module

__version__ = "0.1.0"

# module -> the names it exports from the package
_EXPORTS = {
    "schedules": (
        "CapExceededError", "ProtocolParams", "desk_params", "schedule_params",
        "minimal_k_for_sampling_hardness", "supremacy_margin",
    ),
    "paulis": (
        "DENSE_QUBIT_CAP", "PURE_QUBIT_CAP", "PauliString", "PauliSum",
        "decompose_in_pauli_basis", "merge_pauli_terms", "pauli_sum_dense",
    ),
    "states": (
        "DenseState", "MeasurementRecord", "apply_pauli", "computational_state",
        "expectation", "maximally_mixed", "measure_in_bases", "mixed_state",
        "outcome_distribution", "overlap", "partial_trace", "plus_state", "pure_state",
        "random_mixed_state", "random_pure_state", "to_density",
    ),
    "hamiltonians": (
        "HamiltonianSpec", "RescaledHamiltonian", "check_conditions", "exact_diagonalize",
        "ground_state", "load_hamiltonian", "rescale",
    ),
    "hypergraphs": (
        "AdaptiveStabilizerForm", "HypergraphSpec", "adaptive_form", "all_adaptive_forms",
        "build_state", "connectivity", "hypergraph", "load_hypergraph",
        "random_bms_instance", "stabilizer_dense",
    ),
    "circuits": (
        "CircuitSpec", "Gate", "all_stabilizer_decompositions", "build_circuit_state",
        "check_circuit_conditions", "circuit", "conjugate_through_circuit", "load_circuit",
    ),
    "single_copy": (
        "AdaptiveTest", "ParityTest", "adaptive_test_exact_ppass", "energy_test_exact_ppass",
        "monte_carlo_pass_rate", "parity_test_exact_ppass",
    ),
    "protocol": (
        "PreparedTarget", "ProverModel", "VerdictReport", "classically_correlated_prover",
        "coherent_error_prover", "entangled_demo_prover", "honest_prover",
        "iid_deviated_prover", "prepare", "run_seeds",
    ),
    "analysis": ("robustness_sweep",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
