"""Group sampling against the scalar trial loop, uniform for uniform.

A DenseState source is sampled a group at a time by the single-copy kernels.
Every check here replays the same seed through the scalar reference path
(draw_pauli_term, measure_in_bases, parity_passes, adaptive_predicate) and
demands identical results, not statistically close ones.
"""
import json
import tracemalloc
from dataclasses import replace
from itertools import combinations, groupby
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pauliverify import protocol, single_copy, states
from pauliverify.circuits import circuit
from pauliverify.cli import load_target, main
from pauliverify.reporting import trial_csv_lines
from pauliverify.schedules import desk_params
from pauliverify.hamiltonians import HamiltonianSpec
from pauliverify.hypergraphs import adaptive_form, hypergraph
from pauliverify.paulis import PauliString, PauliSum, merge_pauli_terms
from pauliverify.protocol import (
    PreparedTarget,
    ProverModel,
    classically_correlated_prover,
    coherent_error_prover,
    honest_prover,
    iid_deviated_prover,
    PROVER_STREAM,
    _run_rng,
    prepare,
    run_seeds,
)
from pauliverify.single_copy import AdaptiveTest, ParityTest, adaptive_predicate
from pauliverify.states import (
    DenseState,
    MeasurementRecord,
    StackLayout,
    apply_pauli,
    maximally_mixed,
    measure_in_bases,
    mixture,
    pure_state,
    random_mixed_state,
    random_pure_state,
    sample_stacked_outcomes,
    search_segments,
    stack_segments,
)

DATA = Path(__file__).parent / "data"


class TrialByTrial:
    """One state in every register, held so that the engine runs the scalar loop.

    The engine samples a source in one block only when it is a DenseState.
    """

    def __init__(self, state: DenseState):
        self.state = state
        self.n = state.n

    def measure(self, register, bases, rng):
        record, _ = measure_in_bases(self.state, bases, rng)
        return record

    def register_state(self, register):
        return self.state


def assert_same_trials(a, b):
    """Both reports hold equal trial columns, which render the same CSV lines."""
    for column in ("registers", "branches", "passed"):
        assert np.array_equal(getattr(a.trials, column), getattr(b.trials, column))
    assert trial_csv_lines([a.trials]) == trial_csv_lines([b.trials])


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
    return prepare(h), desk_params("ground", 3, k=60, m=3, epsilon=0.2)


def circuit_case():
    c = circuit(3, [("CCZ", (0, 1, 2)), ("T", (0,)), ("H", (1,)), ("CNOT", (1, 2))])
    return prepare(c), desk_params("circuit", 3, k=40, m=2, epsilon=0.2)


def hypergraph_case():
    g = hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3)])
    return prepare(g), desk_params("hypergraph", 4, k=40, m=2, epsilon=0.2)


@pytest.mark.parametrize("case", [ground_case, circuit_case, hypergraph_case])
def test_every_product_prover_gives_identical_runs_on_both_paths(case):
    target, params = case()
    seeds = run_seeds(2024, 4)
    for prover in product_provers(target.ideal):
        batched_runs = target.runs(prover, params, seeds, True)
        scalar_runs = target.runs(scalar_twin(prover), params, seeds, True)
        for batched, scalar in zip(batched_runs, scalar_runs, strict=True):
            assert [g.passes for g in batched.groups] == [g.passes for g in scalar.groups]
            assert batched.accepted == scalar.accepted
            assert [g.passed for g in batched.groups] == [g.passed for g in scalar.groups]
            assert_same_trials(batched, scalar)
            assert batched.to_jsonable() == scalar.to_jsonable()


def test_records_are_only_built_when_asked():
    target = prepare(hypergraph(3, [(0, 1, 2)]))
    params = desk_params("hypergraph", 3, k=10, m=0, epsilon=0.2)
    (rep,) = target.runs(honest_prover(target.ideal), params, [3])
    assert rep.trials is None


@st.composite
def small_targets(draw):
    """A random small target of one of the three protocols, with its kind."""
    kind = draw(st.sampled_from(["hamiltonian", "circuit", "hypergraph"]))
    n = draw(st.integers(2, 3))
    if kind == "hypergraph":
        candidates = [e for size in (2, 3) for e in combinations(range(n), size)]
        edges = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4, unique=True))
        return kind, hypergraph(n, edges)
    if kind == "circuit":
        one = st.tuples(st.sampled_from("HST"), st.integers(0, n - 1).map(lambda q: (q,)))
        two = st.tuples(st.sampled_from(["CNOT", "CZ"]), st.permutations(range(n)).map(
            lambda p: tuple(p[:2])
        ))
        return kind, circuit(n, draw(st.lists(one | two, min_size=1, max_size=6)))
    # a ring of XX and ZZ couplings in X fields
    pairs = sorted({tuple(sorted((i, (i + 1) % n))) for i in range(n)})
    coeff = st.floats(0.25, 2.0)
    terms = [
        PauliString.from_axes("".join(axis if q in pair else "I" for q in range(n)), draw(coeff))
        for pair in pairs
        for axis in "XZ"
    ]
    terms += [PauliString.on_qubit(n, q, "X").with_coeff(draw(coeff)) for q in range(n)]
    return kind, HamiltonianSpec(n, tuple(terms))


@settings(max_examples=40)
@given(
    target=small_targets(),
    k=st.integers(1, 12),
    m=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_trial_columns_render_the_rows_of_the_scalar_path(target, k, m, seed):
    _, spec = target
    prepared = prepare(spec)
    params = desk_params(prepared.protocol, spec.n, k=k, m=m, epsilon=0.2)
    for prover in product_provers(prepared.ideal):
        (batched,) = prepared.runs(prover, params, [seed], True)
        (scalar,) = prepared.runs(scalar_twin(prover), params, [seed], True)
        assert_same_trials(batched, scalar)
        assert len(trial_csv_lines([batched.trials])) == len(batched.groups) * k


def test_sample_outcome_indices_matches_measure_in_bases(rng):
    state = random_mixed_state(3, rng)
    for bases in ("XYZ", "IZX", "III", "YIY"):
        u_rng = np.random.default_rng(11)
        u = u_rng.random(200)
        layout = StackLayout.of(3, (bases,))
        idx = sample_stacked_outcomes(state, layout, np.zeros(u.size, dtype=np.int64), u)
        s_rng = np.random.default_rng(11)
        measured = [j for j, b in enumerate(bases) if b != "I"]
        for k in idx:
            record, _ = measure_in_bases(state, bases, s_rng)
            bits = [(1 - record.outcomes[j]) // 2 for j in measured]
            assert int("".join(map(str, bits)) or "0", 2) == k


# ---------------------------------------------------------------------------
# Properties on random small targets


def _scalar_trials(test, state, seeds, n_groups, n_trials):
    """Each run's scalar trials on ``state``, one run per seed, stacked."""
    source = TrialByTrial(state)
    registers = np.zeros((n_groups, n_trials), dtype=np.int64)
    runs = [test.trials(source, registers, np.random.default_rng(seed)) for seed in seeds]
    return np.stack([ok for ok, _ in runs]), np.stack([branch for _, branch in runs])


def _assert_kernel_equals_scalar_trials(test, state, seeds, n_groups, n_trials):
    passed, branches = test.sample(state, [np.random.default_rng(s) for s in seeds], n_trials)
    ok, scalar_branches = _scalar_trials(test, state, seeds, n_groups, n_trials)
    assert passed.shape == branches.shape == (len(seeds), n_groups, n_trials)
    assert passed.tolist() == ok.tolist()
    assert branches.tolist() == scalar_branches.tolist()


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
    n_groups=st.integers(1, 3),
    pure=st.booleans(),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
)
def test_parity_kernel_equals_scalar_trials(n, terms, n_groups, pure, seeds):
    merged = merge_pauli_terms(PauliString.from_axes(a[:n], c) for a, c in terms)
    if not merged:
        return
    # group i samples the sum of every term from the i-th on (or the last term)
    sums = [PauliSum.of(merged[min(i, len(merged) - 1) :]) for i in range(n_groups)]
    test = ParityTest(*sums)
    state = _state(n, seeds[0], pure)
    _assert_kernel_equals_scalar_trials(test, state, seeds, n_groups, 50)


@given(
    n=st.integers(2, 5),
    edge_bits=st.integers(0, 2**20 - 1),
    vertex=st.integers(0, 4),
    n_groups=st.integers(1, 3),
    pure=st.booleans(),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
)
def test_adaptive_kernel_equals_scalar_trials(n, edge_bits, vertex, n_groups, pure, seeds):
    candidates = [e for size in (2, 3) for e in combinations(range(n), size)]
    edges = [e for i, e in enumerate(candidates) if edge_bits >> i & 1]
    spec = hypergraph(n, edges)
    form = adaptive_form(spec, vertex % n)
    test = AdaptiveTest(form)
    assert test.layout.bases == (form.bases(),)

    # the tables agree with the scalar predicate on every joint outcome
    passes, bits = (table[0] for table in test._outcome_tables)
    for idx in range(1 << n):
        outcomes = tuple(1 - 2 * ((idx >> (n - 1 - j)) & 1) for j in range(n))
        assert adaptive_predicate(MeasurementRecord(outcomes), form) == (
            passes[idx],
            bits[idx],
        )

    # group i tests the (vertex + i)-th vertex
    forms = [adaptive_form(spec, (vertex + i) % n) for i in range(n_groups)]
    state = _state(n, seeds[0], pure)
    _assert_kernel_equals_scalar_trials(AdaptiveTest(*forms), state, seeds, n_groups, 50)


# ---------------------------------------------------------------------------
# One block of uniforms and one stacked search per run


@given(
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_consecutive_uniform_blocks_equal_one_block(sizes, seed):
    # a run draws its groups' uniforms as one block; the scalar path draws
    # them group by group
    split = np.random.default_rng(seed)
    parts = [split.random(size) for size in sizes]
    whole = np.random.default_rng(seed).random(sum(sizes))
    np.testing.assert_array_equal(np.concatenate(parts), whole)


def _segment_cdfs(weights):
    """Normalized CDFs, as Born tables and Pauli sums build them."""
    out = []
    for w in weights:
        w = np.asarray(w, dtype=float)
        out.append(np.cumsum(w / w.sum()))
    return out


# weights with repeats and zeros give CDFs with ties and flat stretches
WEIGHTS = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, 1e-300, 0.3]) | st.floats(0, 1), min_size=1, max_size=20
).filter(lambda w: sum(w) > 0)


def _long_weights(size, rng):
    """``size`` weights with zeros, repeats and ties, and a positive sum."""
    picks = rng.choice([0.0, 0.5, 1.0, 1e-300, 0.3], size)
    w = np.where(rng.random(size) < 0.5, picks, rng.random(size))
    w[rng.integers(size)] = 1.0
    return w


@given(
    weights=st.lists(WEIGHTS, min_size=1, max_size=6),
    # segments as wide as 256 entries, and one-entry ones
    long_sizes=st.lists(st.just(1) | st.integers(129, 256), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_search_equals_searchsorted_per_segment(weights, long_sizes, seed):
    rng = np.random.default_rng(seed)
    weights = weights + [_long_weights(size, rng) for size in long_sizes]
    cdfs = _segment_cdfs([weights[i] for i in rng.permutation(len(weights))])
    flat, width = stack_segments(cdfs)
    # uniforms exactly on CDF entries (ties), past the last entry, and random
    for b, cdf in enumerate(cdfs):
        u = np.concatenate(
            [cdf, [0.0, np.nextafter(cdf[-1], 2.0), np.nextafter(cdf[0], -1.0)], rng.random(20)]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        got = search_segments(flat, width, np.full(u.size, b), u)
        np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right"))
    # more trials than one engine block in one call, in the groups' tiled
    # layout and at random segments, half of them on CDF entries
    n_trials = protocol.BLOCK_TRIALS // len(cdfs) + 1
    tiled = single_copy._group_of_trial(len(cdfs), n_trials, 2 * len(cdfs) * n_trials)
    assert tiled.size > protocol.BLOCK_TRIALS
    entries = np.concatenate(cdfs)
    for which in (tiled, rng.integers(0, len(cdfs), tiled.size)):
        u = np.where(
            rng.random(which.size) < 0.5, rng.choice(entries, which.size), rng.random(which.size)
        )
        want = np.empty_like(which)
        for b, cdf in enumerate(cdfs):
            want[which == b] = np.searchsorted(cdf, u[which == b], side="right")
        np.testing.assert_array_equal(search_segments(flat, width, which, u), want)


STATE_KINDS = (
    "pure", "pauli_of_pure", "mixed_with_maximally_mixed", "mixed_with_mixed",
    "mixed_with_pure", "maximally_mixed", "mixed",
)


def stacked_state(kind: str, n: int, zeros: int, rng: np.random.Generator) -> DenseState:
    """A state of the given construction; zeroed amplitudes leave zero tails."""
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps[[i for i in range(1, 1 << n) if zeros >> i & 1]] = 0.0
    psi = pure_state(amps / np.linalg.norm(amps), n)
    weight = float(rng.random())
    if kind == "pure":
        return psi
    if kind == "pauli_of_pure":
        x, z = rng.integers(0, 1 << n, size=2)
        return apply_pauli(psi, PauliString(n, int(x), int(z), -0.5))
    if kind == "mixed_with_maximally_mixed":
        return mixture(psi, maximally_mixed(n), weight)
    if kind == "mixed_with_mixed":
        return mixture(psi, random_mixed_state(n, rng, rank=2), weight)
    if kind == "mixed_with_pure":
        return mixture(psi, random_pure_state(n, rng), weight)
    if kind == "maximally_mixed":
        return maximally_mixed(n)
    return random_mixed_state(n, rng, rank=2)


@given(
    kind=st.sampled_from(STATE_KINDS),
    n=st.integers(1, 6),
    zeros=st.integers(0, 2**64 - 1),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_outcomes_equal_per_basis_sampling_with_the_clamp(kind, n, zeros, data, seed):
    rng = np.random.default_rng(seed)
    state = stacked_state(kind, n, zeros, rng)
    # bases branch off one trunk, so many share a rotated prefix; some are all I
    letters = st.text("IXYZ", min_size=n, max_size=n)
    trunk = data.draw(letters)
    branches = data.draw(st.lists(st.tuples(st.integers(0, n), letters), min_size=1, max_size=12))
    bases = [trunk[:cut] + tail[cut:] for cut, tail in branches]
    if data.draw(st.booleans()):
        bases.insert(data.draw(st.integers(0, len(bases))), "I" * n)
    bases = tuple(dict.fromkeys(bases))
    layout = StackLayout.of(n, bases)
    stack = states._table_stack(state, layout)
    rows = stack.cum.reshape(len(bases), layout.width)
    # the one-basis stacks, the scalar path's tables, are built on a twin with
    # its own memo, so none of them is the stack above
    twin = stacked_state(kind, n, zeros, np.random.default_rng(seed))
    start = 0  # the normalized rows lie end to end
    for b, basis in enumerate(bases):
        table = states._basis_table(twin, basis)
        size = table.cum.size
        last = table.last_sampleable[0]
        assert rows[b, :size].tobytes() == table.cum.tobytes()
        assert stack.probs[start : start + size].tobytes() == table.probs.tobytes()
        assert stack.last_sampleable[b] == last
        assert np.all(rows[b, size:] == np.inf)
        start += size
        u = np.concatenate([table.cum, [np.nextafter(table.cum[-1], 2.0)], rng.random(30)])
        u = u[u < 1.0]
        got = sample_stacked_outcomes(state, layout, np.full(u.size, b), u)
        np.testing.assert_array_equal(
            got, np.minimum(np.searchsorted(table.cum, u, side="right"), last)
        )
    assert start == stack.probs.size


def test_deviated_circuit_runs_are_identical_on_both_paths():
    c = circuit(
        4,
        [("H", (0,)), ("T", (0,)), ("CNOT", (0, 1)), ("CCZ", (1, 2, 3)), ("T", (2,)),
         ("H", (3,)), ("CZ", (0, 3)), ("T", (1,))],
    )
    target = prepare(c)
    params = desk_params("circuit", 4, k=30, m=3, epsilon=0.2)
    seeds = run_seeds(99, 3)
    for eps_prime in (0.05, 0.3, 1.0):
        prover = iid_deviated_prover(target.ideal, eps_prime, maximally_mixed(4))
        batched_runs = target.runs(prover, params, seeds, True)
        scalar_runs = target.runs(scalar_twin(prover), params, seeds, True)
        for batched, scalar in zip(batched_runs, scalar_runs, strict=True):
            assert len(batched.groups) == 4
            assert_same_trials(batched, scalar)
            assert batched.to_jsonable() == scalar.to_jsonable()


# ---------------------------------------------------------------------------
# Work counts of a robustness sweep, taken by wrapping the functions that do it


def test_robustness_builds_each_table_once_and_never_contracts_a_mixture(
    tmp_path, monkeypatch
):
    kernel_calls, builds, axes_calls = [], [], []
    kernel, rows = states._density_outcome_probs, states._born_rows
    axes = PauliString.axes

    def counted_kernel(rho, bases):
        kernel_calls.append(bases)
        return kernel(rho, bases)

    def counted_rows(state, layout):
        # one row per basis; holding the state keeps its id unique
        builds.extend((state, b) for b in layout.bases)
        return rows(state, layout)

    monkeypatch.setattr(states, "_density_outcome_probs", counted_kernel)
    monkeypatch.setattr(states, "_born_rows", counted_rows)
    monkeypatch.setattr(
        PauliString, "axes", property(lambda p: axes_calls.append(1) or axes.fget(p))
    )

    def sweep(runs):
        for counted in (kernel_calls, builds, axes_calls):
            counted.clear()
        argv = [
            "robustness", "--target", str(DATA / "clifford_t.json"),
            "--eps-prime", "0,0.05,0.2", "-k", "10", "--runs", str(runs),
            "--seed", "5", "--out", str(tmp_path / f"runs{runs}.json"),
        ]
        assert main(argv) == 0
        keys = [(id(state), bases) for state, bases in builds]
        assert builds and len(set(keys)) == len(keys)
        assert kernel_calls == []
        return len(keys), len(axes_calls)

    tables_2, axes_2 = sweep(2)
    tables_6, axes_6 = sweep(6)
    assert axes_2 == axes_6
    assert tables_2 == tables_6


@pytest.mark.parametrize("target", ["clifford_t.json", "triple.json"])
def test_a_sweep_checks_each_basis_of_its_test_once(tmp_path, monkeypatch, target):
    # the ideal state and two mixtures share the one layout their test built
    spec = load_target(DATA / target)[1]
    bases = prepare(spec).test.layout.bases
    checked, measured_qubits = [], states._measured_qubits

    def counted(n, basis):
        checked.append(basis)
        return measured_qubits(n, basis)

    monkeypatch.setattr(states, "_measured_qubits", counted)
    argv = [
        "robustness", "--target", str(DATA / target), "--eps-prime", "0,0.05,0.2",
        "-k", "10", "--runs", "3", "--seed", "5", "--out", str(tmp_path / "sweep.json"),
    ]
    assert main(argv) == 0
    assert checked == list(bases)


# ---------------------------------------------------------------------------
# One engine call per verify or robustness call


@settings(max_examples=30)
@given(
    target=small_targets(),
    k=st.integers(1, 8),
    m=st.integers(0, 2),
    master=st.integers(0, 2**32 - 1),
    n_runs=st.integers(3, 6),
    block=st.sampled_from([None, 1, 9, 40]),
)
def test_runs_of_one_call_equal_the_runs_made_one_by_one(target, k, m, master, n_runs, block):
    _, spec = target
    prepared = prepare(spec)
    params = desk_params(prepared.protocol, spec.n, k=k, m=m, epsilon=0.2)
    seeds = run_seeds(master, n_runs)
    provers = product_provers(prepared.ideal)
    # the classically correlated prover fills some runs with each of its states
    correlated = provers[-1]
    assert correlated.kind == "classically_correlated"
    assume(len({id(correlated.make_source(1, _run_rng(s, PROVER_STREAM))) for s in seeds}) == 2)
    for prover in provers:
        # a small block splits the runs of a source over several sample calls
        with patch.object(protocol, "BLOCK_TRIALS", block or protocol.BLOCK_TRIALS):
            batched = prepared.runs(prover, params, seeds, True)
        for seed, report in zip(seeds, batched, strict=True):
            alone = prepared.runs(prover, params, [seed], True)[0]
            assert report.to_jsonable() == alone.to_jsonable()
            assert_same_trials(report, alone)


@settings(max_examples=40)
@given(
    target=small_targets(),
    k=st.integers(1, 8),
    n_runs=st.integers(1, 3),
    master=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 9, 40, None]),
)
def test_pass_counts_are_the_group_passes_of_the_runs(target, k, n_runs, master, block):
    # a block of 1 trial holds one run; the default block holds all of them
    _, spec = target
    prepared = prepare(spec)
    params = desk_params(prepared.protocol, spec.n, k=k, m=1, epsilon=0.2)
    seeds = run_seeds(master, n_runs)
    for prover in product_provers(prepared.ideal)[:3]:
        assert prover.state is not None
        with patch.object(protocol, "BLOCK_TRIALS", block or protocol.BLOCK_TRIALS):
            counts = prepared.pass_counts(prover.state, params, seeds)
            reports = prepared.runs(prover, params, seeds)
        assert counts.shape == (n_runs, len(prepared.group_l1))
        assert counts.tolist() == [[g.passes for g in r.groups] for r in reports]


def test_pass_counts_of_a_run_over_the_block_equal_its_group_passes():
    # 3 groups of 6000 trials: one run is more than BLOCK_TRIALS, a block of its own
    prepared, _ = circuit_case()
    params = desk_params("circuit", 3, k=6000, m=0, epsilon=0.2)
    assert len(prepared.group_l1) * params.k > protocol.BLOCK_TRIALS
    seeds = run_seeds(8, 2)
    prover = iid_deviated_prover(prepared.ideal, 0.1, maximally_mixed(3))
    counts = prepared.pass_counts(prover.state, params, seeds)
    reports = prepared.runs(prover, params, seeds)
    assert counts.tolist() == [[g.passes for g in r.groups] for r in reports]


def test_robustness_reads_only_the_test_streams_of_its_runs(monkeypatch, tmp_path):
    # P points of R runs, in blocks of 2 runs: the sweep's whole work ledger
    spec = load_target(DATA / "clifford_t.json")[1]
    groups, k, points, runs = len(prepare(spec).group_l1), 10, 3, 5
    monkeypatch.setattr(protocol, "BLOCK_TRIALS", 2 * groups * k)
    streams, layouts, fidelities, engine_calls, samples = [], [], [], [], []
    run_rng, layout, runs_method = protocol._run_rng, protocol.choose_layout, PreparedTarget.runs
    sample, prepare_target = ParityTest.sample, protocol.prepare

    def counted_prepare(target):
        prepared = prepare_target(target)
        fidelity = prepared.fidelity
        return replace(prepared, fidelity=lambda s: fidelities.append(s) or fidelity(s))

    monkeypatch.setattr(
        protocol, "_run_rng", lambda seed, stream: streams.append(stream) or run_rng(seed, stream)
    )
    monkeypatch.setattr(protocol, "choose_layout", lambda *a: layouts.append(a) or layout(*a))
    monkeypatch.setattr(protocol, "prepare", counted_prepare)
    monkeypatch.setattr(
        PreparedTarget, "runs", lambda *a, **kw: engine_calls.append(a) or runs_method(*a, **kw)
    )
    monkeypatch.setattr(ParityTest, "sample", lambda *a: samples.append(a) or sample(*a))
    argv = [
        "robustness", "--target", str(DATA / "clifford_t.json"), "--eps-prime", "0,0.05,0.2",
        "-k", str(k), "--runs", str(runs), "--seed", "5", "--out", str(tmp_path / "out.json"),
    ]
    assert main(argv) == 0
    assert streams == [protocol.TEST_STREAM] * (points * runs)
    assert layouts == fidelities == engine_calls == []
    # each point's calls sample its own state; the held arguments keep each id unique
    per_point = [len(list(calls)) for _, calls in groupby(samples, key=lambda a: id(a[1]))]
    assert per_point == [-(-runs // 2)] * points


def test_a_sweep_point_makes_one_term_search_and_one_outcome_search(monkeypatch, tmp_path):
    calls = []

    def counted(*args):
        calls.append(args)
        return search_segments(*args)

    monkeypatch.setattr(states, "search_segments", counted)
    monkeypatch.setattr(single_copy, "search_segments", counted)
    counts = {}
    for runs in (2, 6):
        calls.clear()
        argv = [
            "robustness", "--target", str(DATA / "clifford_t.json"), "--eps-prime", "0,0.05",
            "-k", "20", "--runs", str(runs), "--seed", "3", "--out", str(tmp_path / "out.json"),
        ]
        assert main(argv) == 0
        counts[runs] = len(calls)
    assert counts == {2: 4, 6: 4}


def test_verify_memory_does_not_grow_with_the_run_count(tmp_path):
    # 400 runs of 3 000 trials sampled as one block would peak above 60 MB; in
    # blocks of BLOCK_TRIALS, the reports of the 400 runs are what grows
    (tmp_path / "triple.json").write_text((DATA / "triple.json").read_text())
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({
        "target": "triple.json",
        "params": {"mode": "desk", "k": 1000, "m": 0, "epsilon": 0.1},
        "prover": {"kind": "honest"},
        "seed": 5,
    }))
    peaks = {}
    for runs in (5, 400):
        argv = ["verify", "--config", str(config), "--runs", str(runs),
                "--out", str(tmp_path / "out.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[runs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] < 8 * peaks[5], peaks


def test_verify_emit_peak_stays_within_four_reports(tmp_path):
    # the canonical writer renders the reports one at a time, so a call holds
    # the finished text and the pieces of one report, not a dict per report
    (tmp_path / "triple.json").write_text((DATA / "triple.json").read_text())
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({
        "target": "triple.json",
        "params": {"mode": "desk", "k": 1000, "m": 0, "epsilon": 0.1},
        "prover": {"kind": "honest"},
        "seed": 5,
    }))
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        assert main(["verify", "--config", str(config), "--runs", "400", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert peak < 4 * size, (peak, size)
