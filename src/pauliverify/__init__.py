"""Verification of many-qubit states with single-qubit Pauli measurements.

Dense, exactly-simulated implementations of three register-level
verification protocols (Hamiltonian ground states, circuit-generated states,
hypergraph states) with honest and adversarial prover models, closed-form
and Monte Carlo pass probabilities, and a reproducible CLI.
"""
from .paulis import (
    CapExceededError,
    DENSE_QUBIT_CAP,
    PURE_QUBIT_CAP,
    PauliString,
    PauliSum,
    decompose_in_pauli_basis,
    merge_pauli_terms,
    pauli_sum_dense,
)
from .states import (
    DenseState,
    MeasurementRecord,
    apply_pauli,
    computational_state,
    expectation,
    maximally_mixed,
    measure_in_bases,
    mixed_state,
    outcome_distribution,
    overlap,
    partial_trace,
    plus_state,
    pure_state,
    random_mixed_state,
    random_pure_state,
    to_density,
)
from .hamiltonians import (
    HamiltonianSpec,
    RescaledHamiltonian,
    check_conditions,
    exact_diagonalize,
    ground_state,
    load_hamiltonian,
    rescale,
)
from .hypergraphs import (
    AdaptiveStabilizerForm,
    HypergraphSpec,
    adaptive_form,
    all_adaptive_forms,
    build_state,
    connectivity,
    hypergraph,
    load_hypergraph,
    random_bms_instance,
    stabilizer_dense,
)
from .circuits import (
    CircuitSpec,
    Gate,
    all_stabilizer_decompositions,
    build_circuit_state,
    check_circuit_conditions,
    circuit,
    conjugate_through_circuit,
    load_circuit,
)
from .single_copy import (
    AdaptiveTest,
    ParityTest,
    adaptive_test_exact_ppass,
    energy_test_exact_ppass,
    monte_carlo_pass_rate,
    parity_test_exact_ppass,
)
from .protocol import (
    PreparedTarget,
    ProtocolParams,
    ProverModel,
    VerdictReport,
    classically_correlated_prover,
    coherent_error_prover,
    desk_params,
    entangled_demo_prover,
    honest_prover,
    iid_deviated_prover,
    prepare,
    run_seeds,
    schedule_params,
)
from .analysis import (
    DistributionPair,
    hoeffding_calculator,
    l1_distance,
    minimal_k_for_sampling_hardness,
    robustness_sweep,
    supremacy_margin,
    trace_distance_fidelity_bounds,
    x_basis_distribution,
)

__version__ = "0.1.0"
