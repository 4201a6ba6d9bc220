"""Group sampling against the scalar trial loop, uniform for uniform.

Product sources are sampled a group at a time by the single-copy kernels.
Every check here replays the same seed through the scalar reference path
(draw_pauli_term, measure_in_bases, parity_passes, adaptive_predicate) and
demands identical results, not statistically close ones.
"""
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauliverify.circuits import all_stabilizer_decompositions, build_circuit_state, circuit
from pauliverify.hamiltonians import HamiltonianSpec, exact_diagonalize, ground_state, rescale
from pauliverify.hypergraphs import adaptive_form, all_adaptive_forms, build_state, hypergraph
from pauliverify.paulis import PauliString, PauliSum, merge_pauli_terms
from pauliverify.protocol import (
    ProductRegisters,
    ProverModel,
    classically_correlated_prover,
    coherent_error_prover,
    desk_params,
    honest_prover,
    iid_deviated_prover,
    run_circuit_protocol,
    run_ground_protocol,
    run_hypergraph_protocol,
    run_seeds,
)
from pauliverify.single_copy import AdaptiveTest, ParityTest, adaptive_predicate
from pauliverify.states import (
    MeasurementRecord,
    apply_pauli,
    maximally_mixed,
    measure_in_bases,
    random_mixed_state,
    random_pure_state,
    sample_outcome_indices,
)


class TrialByTrial:
    """A product source the engine does not recognise, so it runs the scalar loop."""

    def __init__(self, inner: ProductRegisters):
        self.inner = inner
        self.n = inner.n

    def measure(self, register, bases, rng):
        return self.inner.measure(register, bases, rng)

    def register_state(self, register):
        return self.inner.register_state(register)


def scalar_twin(prover: ProverModel) -> ProverModel:
    return ProverModel(
        prover.kind, lambda n_reg, rng: TrialByTrial(prover.make_source(n_reg, rng))
    )


def product_provers(ideal):
    n = ideal.n
    flip = PauliString.from_axes("Z" + "I" * (n - 1))
    return [
        honest_prover(ideal),
        iid_deviated_prover(ideal, 0.2, maximally_mixed(n)),
        coherent_error_prover(ideal, flip),
        classically_correlated_prover([ideal, apply_pauli(ideal, flip)], [0.5, 0.5]),
    ]


def ground_case():
    h = HamiltonianSpec(
        3,
        (
            PauliString.from_axes("ZZI", 0.8),
            PauliString.from_axes("IZZ", -0.6),
            PauliString.from_axes("XII", 0.5),
            PauliString.from_axes("IYI", -0.3),
            PauliString.from_axes("IIX", 0.4),
        ),
    )
    rh, projector = rescale(h), exact_diagonalize(h).projector
    params = desk_params("ground", 3, k=60, m=3, epsilon=0.2)

    def run(prover, seed):
        return run_ground_protocol(rh, projector, prover, params, seed, record_trials=True)

    return ground_state(h), run


def circuit_case():
    c = circuit(3, [("CCZ", (0, 1, 2)), ("T", (0,)), ("H", (1,)), ("CNOT", (1, 2))])
    decomps = all_stabilizer_decompositions(c)
    ideal = build_circuit_state(c)
    params = desk_params("circuit", 3, k=40, m=2, epsilon=0.2)

    def run(prover, seed):
        return run_circuit_protocol(decomps, ideal, prover, params, seed, record_trials=True)

    return ideal, run


def hypergraph_case():
    g = hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3)])
    forms = all_adaptive_forms(g)
    params = desk_params("hypergraph", 4, k=40, m=2, epsilon=0.2)
    ideal = build_state(g)

    def run(prover, seed):
        return run_hypergraph_protocol(forms, ideal, prover, params, seed, record_trials=True)

    return ideal, run


@pytest.mark.parametrize("case", [ground_case, circuit_case, hypergraph_case])
def test_every_product_prover_gives_identical_runs_on_both_paths(case):
    ideal, run = case()
    for prover in product_provers(ideal):
        for seed in run_seeds(2024, 4):
            batched = run(prover, seed)
            scalar = run(scalar_twin(prover), seed)
            assert [g.passes for g in batched.groups] == [g.passes for g in scalar.groups]
            assert batched.accepted == scalar.accepted
            assert [g.passed for g in batched.groups] == [g.passed for g in scalar.groups]
            assert batched.trial_records == scalar.trial_records
            assert batched.to_jsonable() == scalar.to_jsonable()


def test_records_are_only_built_when_asked():
    g = hypergraph(3, [(0, 1, 2)])
    params = desk_params("hypergraph", 3, k=10, m=0, epsilon=0.2)
    ideal = build_state(g)
    rep = run_hypergraph_protocol(
        all_adaptive_forms(g), ideal, honest_prover(ideal), params, seed=3
    )
    assert rep.trial_records is None


def test_sample_outcome_indices_matches_measure_in_bases(rng):
    state = random_mixed_state(3, rng)
    for bases in ("XYZ", "IZX", "III", "YIY"):
        u_rng = np.random.default_rng(11)
        idx = sample_outcome_indices(state, bases, u_rng.random(200))
        s_rng = np.random.default_rng(11)
        measured = [j for j, b in enumerate(bases) if b != "I"]
        for k in idx:
            record, _ = measure_in_bases(state, bases, s_rng)
            bits = [(1 - record.outcomes[j]) // 2 for j in measured]
            assert int("".join(map(str, bits)) or "0", 2) == k


# ---------------------------------------------------------------------------
# Properties on random small targets


def _scalar_trials(test, state, seed, n_trials):
    source = ProductRegisters(state.n, 1, state)
    rng = np.random.default_rng(seed)
    trials = [test.trial(source, 0, rng) for _ in range(n_trials)]
    return [ok for ok, _ in trials], [branch for _, branch in trials]


def _state(n, seed, pure):
    rng = np.random.default_rng(seed)
    return random_pure_state(n, rng) if pure else random_mixed_state(n, rng)


@given(
    n=st.integers(1, 3),
    terms=st.lists(
        st.tuples(
            st.text("IXYZ", min_size=3, max_size=3),
            st.floats(-2, 2).filter(lambda c: abs(c) > 1e-3),
        ),
        min_size=1,
        max_size=6,
    ),
    pure=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_parity_kernel_equals_scalar_trials(n, terms, pure, seed):
    merged = merge_pauli_terms(PauliString.from_axes(a[:n], c) for a, c in terms)
    if not merged:
        return
    test = ParityTest(PauliSum.of(merged))
    state = _state(n, seed, pure)
    passed, branches = test.sample(state, np.random.default_rng(seed), 50)
    ok, scalar_branches = _scalar_trials(test, state, seed, 50)
    assert passed.tolist() == ok
    assert branches.tolist() == scalar_branches


@given(
    n=st.integers(2, 5),
    edge_bits=st.integers(0, 2**20 - 1),
    vertex=st.integers(0, 4),
    pure=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_adaptive_kernel_equals_scalar_trials(n, edge_bits, vertex, pure, seed):
    candidates = [e for size in (2, 3) for e in combinations(range(n), size)]
    edges = [e for i, e in enumerate(candidates) if edge_bits >> i & 1]
    form = adaptive_form(hypergraph(n, edges), vertex % n)
    test = AdaptiveTest(form)

    # the tables agree with the scalar predicate on every joint outcome
    passes, bits = form.outcome_tables()
    for idx in range(1 << n):
        outcomes = tuple(1 - 2 * ((idx >> (n - 1 - j)) & 1) for j in range(n))
        assert adaptive_predicate(MeasurementRecord(outcomes, test.bases), form) == (
            passes[idx],
            bits[idx],
        )

    state = _state(n, seed, pure)
    passed, branches = test.sample(state, np.random.default_rng(seed), 50)
    ok, scalar_branches = _scalar_trials(test, state, seed, 50)
    assert passed.tolist() == ok
    assert branches.tolist() == scalar_branches
