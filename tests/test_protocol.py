import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy import stats

from pauliverify import protocol
from pauliverify.circuits import all_stabilizer_decompositions, check_circuit_conditions, circuit
from pauliverify.hamiltonians import HamiltonianSpec
from pauliverify.hypergraphs import adaptive_form, build_state, hypergraph
from pauliverify.paulis import PauliString
from pauliverify.protocol import (
    EXECUTABLE_REGISTER_CAP,
    EntangledRegisters,
    check_executable,
    choose_layout,
    classically_correlated_prover,
    coherent_error_prover,
    entangled_demo_prover,
    honest_prover,
    iid_deviated_prover,
    LAYOUT_STREAM,
    PROVER_STREAM,
    TEST_STREAM,
    PreparedTarget,
    ProverModel,
    _run_rng,
    prepare,
    run_seeds,
)
from pauliverify.reporting import canonical_json, trial_csv_lines
from pauliverify.schedules import (
    COMPARISON,
    CapExceededError,
    ProtocolParams,
    circuit_group_threshold,
    desk_params,
    ground_accept_threshold,
    group_thresholds,
    hypergraph_group_threshold,
    schedule_params,
)
from pauliverify.single_copy import AdaptiveTest, adaptive_test_exact_ppass
from pauliverify.states import (
    apply_pauli,
    computational_state,
    maximally_mixed,
    projector_overlap,
)


def minus_z_target():
    h = HamiltonianSpec(
        1, (PauliString.from_axes("Z", -1.0),), ground_energy=-1.0, gap_lower_bound=2.0
    )
    return prepare(h)


def test_schedule_worked_values():
    g = schedule_params("ground", 3, l1_norm=1.0)
    assert (g.k, g.epsilon) == (7776, Fraction(1, 36))
    c = schedule_params("circuit", 3, l1_norm=1.0)
    assert (c.k, c.epsilon) == (17496, Fraction(1, 54))
    h = schedule_params("hypergraph", 2)
    assert (h.k, h.epsilon) == (8**7, Fraction(1, 512))
    # register overheads are the exact ceil of the irrational product;
    # cross-check against an independent high-precision log(2)
    import mpmath

    mpmath.mp.dps = 60
    ln2 = mpmath.log(2)
    assert g.m == int(mpmath.ceil(2 * 3**5 * g.k**2 * ln2))
    assert c.m == int(mpmath.ceil(2 * 3**7 * c.k**2 * ln2))
    assert h.m == int(mpmath.ceil(2 * 2**3 * mpmath.mpf(h.k) ** mpmath.mpf("18/7") * ln2))


def test_schedule_scales_with_l1_norm():
    g = schedule_params("ground", 2, l1_norm=2.0)
    assert g.k == 32 * 4 * 2**5
    c = schedule_params("circuit", 2, l1_norm=2.0)
    assert c.k == 8 * 4 * 2**7


def test_schedule_k_override_keeps_minimum():
    h = schedule_params("hypergraph", 2, k=8**7 + 10)
    assert h.k == 8**7 + 10
    assert any("irrational" in note for note in h.notes)
    low = schedule_params("hypergraph", 2, k=5)
    assert low.k == 8**7


def test_conforming_is_paper_mode():
    desk = desk_params("ground", 2, k=10)
    assert desk.conforming is False
    assert schedule_params("ground", 2, l1_norm=1.0).conforming is True
    assert replace(desk, mode="paper").conforming is True


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams("ground", 2, 10, 0, Fraction(0), "desk")
    with pytest.raises(ValueError):
        ProtocolParams("ground", 2, 0, 0, Fraction(1, 4), "desk")
    with pytest.raises(ValueError):
        ProtocolParams("nope", 2, 10, 0, Fraction(1, 4), "desk")
    with pytest.raises(ValueError):
        schedule_params("ground", 3)  # missing the l1 norm


def test_thresholds_are_exact_rationals():
    thr = ground_accept_threshold(Fraction(1, 2), 1.0)
    assert thr == Fraction(3, 4)
    assert Fraction(3, 4) <= thr  # boundary equality accepts, never flips
    assert not Fraction(4, 4) <= thr
    thr = circuit_group_threshold(Fraction(1, 3), 2.0)
    assert thr == Fraction(1, 2) + Fraction(2, 3) / 4
    assert hypergraph_group_threshold(Fraction(1, 8)) == Fraction(7, 8)


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 2, *run_seeds(5, 5)])
def test_run_streams_are_the_spawned_children_of_the_seed(seed):
    spawned = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(3)]
    streams = (LAYOUT_STREAM, PROVER_STREAM, TEST_STREAM)
    for stream, want in zip(streams, spawned, strict=True):
        assert _run_rng(seed, stream).bit_generator.state == want.bit_generator.state


def fixed_provers(ideal):
    n = ideal.n
    return [
        honest_prover(ideal),
        iid_deviated_prover(ideal, 0.2, maximally_mixed(n)),
        coherent_error_prover(ideal, PauliString.from_axes("Z" + "I" * (n - 1))),
    ]


STREAM_TARGETS = [
    hypergraph(3, [(0, 1, 2), (0, 2)]),
    circuit(3, [("H", (0,)), ("T", (0,)), ("CNOT", (0, 1)), ("CCZ", (0, 1, 2))]),
    HamiltonianSpec(2, (PauliString.from_axes("ZZ", 1.0), PauliString.from_axes("XI", 0.5))),
]


@pytest.mark.parametrize("spec", STREAM_TARGETS, ids=lambda spec: spec.kind)
def test_a_fixed_prover_gives_the_bytes_of_its_make_source_alone(spec):
    target = prepare(spec)
    params = desk_params(target.protocol, spec.n, k=30, m=2, epsilon=0.2)
    seeds = run_seeds(11, 4)
    for prover in fixed_provers(target.ideal):
        assert prover.state is not None
        drawn = ProverModel(prover.kind, prover.make_source)  # builds every run's prover stream
        fixed = target.runs(prover, params, seeds, True)
        made = target.runs(drawn, params, seeds, True)
        assert canonical_json(list(fixed)) == canonical_json(list(made))
        assert trial_csv_lines([r.trials for r in fixed]) == trial_csv_lines(
            [r.trials for r in made]
        )


def test_a_run_builds_the_prover_stream_only_for_a_prover_that_draws(monkeypatch):
    target = prepare(STREAM_TARGETS[0])
    params = desk_params("hypergraph", 3, k=20, m=1, epsilon=0.2)
    seeds = run_seeds(3, 5)
    good = target.ideal
    bad = apply_pauli(good, PauliString.from_axes("ZII"))
    correlated = classically_correlated_prover([good, bad], [0.5, 0.5])
    built = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    for prover, per_run in [(p, 2) for p in fixed_provers(good)] + [(correlated, 3)]:
        built.clear()
        target.runs(prover, params, seeds)
        assert len(built) == per_run * len(seeds), prover.kind


def test_layout_uniform_target_chi_squared():
    rng = np.random.default_rng(99)
    n_reg, m, draws = 6, 2, 10_000
    counts = np.zeros(n_reg)
    for _ in range(draws):
        target, tested = choose_layout(n_reg, m, rng)
        counts[target] += 1
        assert len(tested) == n_reg - m - 1
    res = stats.chisquare(counts)
    assert res.pvalue > 1e-3
    with pytest.raises(ValueError):
        choose_layout(3, 3, rng)


def test_ground_honest_accepts_with_high_rate():
    target = minus_z_target()
    params = desk_params("ground", 1, k=200, m=5, epsilon=0.2)
    prover = honest_prover(computational_state(1, 0))
    accepted = 0
    for rep in target.runs(prover, params, run_seeds(7, 40)):
        accepted += rep.accepted
        assert rep.target_fidelity == pytest.approx(1.0)
    # Hoeffding floor: 1 - exp(-2 (eps/(2 l1))^2 k) ~ 0.865
    assert accepted / 40 >= 0.865 - 3 * np.sqrt(0.135 * 0.865 / 40)


def test_ground_excited_prover_rejected_deterministically():
    target = minus_z_target()
    params = desk_params("ground", 1, k=50, m=0, epsilon=0.2)
    prover = honest_prover(computational_state(1, 1))  # orthogonal excited state
    for rep in target.runs(prover, params, run_seeds(11, 20)):
        # every energy-test trial passes, so the low-pass-rate rule rejects
        assert rep.groups[0].passes == 50
        assert not rep.accepted
        assert rep.target_fidelity == pytest.approx(0.0)


def test_ground_single_register_boundary_convention():
    target = minus_z_target()
    params = desk_params("ground", 1, k=1, m=0, epsilon=0.2)
    prover = honest_prover(computational_state(1, 0))
    seen = set()
    for rep in target.runs(prover, params, run_seeds(3, 30)):
        # with one register the verdict is exactly "did the single test pass"
        assert rep.accepted == (rep.groups[0].passes == 0)
        seen.add(rep.accepted)
    assert seen == {True, False}


def test_circuit_honest_clifford_always_accepts():
    target = prepare(circuit(2, [("CZ", (0, 1))]))
    params = desk_params("circuit", 2, k=30, m=2, epsilon=0.25)
    prover = honest_prover(target.ideal)
    for rep in target.runs(prover, params, run_seeds(5, 10)):
        assert rep.accepted
        assert all(g.passes == 30 for g in rep.groups)
        assert rep.target_fidelity == pytest.approx(1.0)


def test_circuit_protocol_needs_one_sum_of_width_n_per_qubit():
    decomps = all_stabilizer_decompositions(circuit(2, [("CZ", (0, 1))]))
    wider = all_stabilizer_decompositions(circuit(3, [("CZ", (0, 1))]))
    for bad in (decomps[:1], decomps + decomps[:1], [decomps[0], wider[1]]):
        with pytest.raises(ValueError, match="one stabilizer decomposition of width 2"):
            check_circuit_conditions(bad)


def test_circuit_orthogonal_prover_rejected():
    target = prepare(circuit(3, [("CCZ", (0, 1, 2))]))
    params = desk_params("circuit", 3, k=100, m=0, epsilon=0.1)
    prover = coherent_error_prover(target.ideal, PauliString.from_axes("ZII"))
    for rep in target.runs(prover, params, run_seeds(17, 10)):
        assert not rep.accepted
        assert not rep.groups[0].passed


def test_hypergraph_honest_accepts_every_trial():
    target = prepare(hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3)]))
    params = desk_params("hypergraph", 4, k=50, m=3, epsilon=0.1)
    prover = honest_prover(target.ideal)
    for rep in target.runs(prover, params, run_seeds(23, 10)):
        assert rep.accepted
        assert all(grp.passes == 50 for grp in rep.groups)
        assert rep.target_fidelity == pytest.approx(1.0)


@pytest.mark.parametrize("n", [6, 8])
def test_hypergraph_honest_accepts_at_larger_widths(n):
    rng = np.random.default_rng(n)
    from itertools import combinations

    edges = [
        c
        for size in (2, 3)
        for c in combinations(range(n), size)
        if rng.random() < 0.3
    ]
    target = prepare(hypergraph(n, edges))
    params = desk_params("hypergraph", n, k=20, m=1, epsilon=0.1)
    prover = honest_prover(target.ideal)
    for rep in target.runs(prover, params, run_seeds(n, 3)):
        assert rep.accepted
        assert all(grp.passes == 20 for grp in rep.groups)


def test_pure_cap_boundary():
    from pauliverify.hypergraphs import build_state as build
    from pauliverify.states import measure_in_bases

    g16 = hypergraph(16, [(0, 1, 2), (7, 8), (13, 14, 15)])
    st = build(g16)  # 2**16 amplitudes, at the cap
    rec, prob = measure_in_bases(st, "X" + "Z" * 15, np.random.default_rng(0))
    assert len(rec.outcomes) == 16 and prob > 0
    with pytest.raises(CapExceededError):
        build(hypergraph(17, [(0, 1)]))


def test_hypergraph_phase_flip_rejected_always():
    target = prepare(hypergraph(3, [(0, 1, 2)]))
    params = desk_params("hypergraph", 3, k=40, m=0, epsilon=0.3)
    prover = coherent_error_prover(target.ideal, PauliString.from_axes("ZII"))
    for rep in target.runs(prover, params, run_seeds(31, 10)):
        assert not rep.accepted
        assert rep.groups[0].passes == 0  # stabilized by the negated operator
        assert rep.target_fidelity == pytest.approx(0.0, abs=1e-12)


def test_iid_deviated_per_test_rate_formula():
    g = hypergraph(4, [(0, 1, 2), (2, 3)])
    ideal = build_state(g)
    eps_prime = 0.3
    prover = iid_deviated_prover(ideal, eps_prime, maximally_mixed(4))
    rho = prover.make_source(3, np.random.default_rng(0))
    for v in range(4):
        p = adaptive_test_exact_ppass(rho, adaptive_form(g, v))
        # eta maximally mixed makes <g_i> vanish: p = 1 - eps'/2
        assert p == pytest.approx(1 - eps_prime / 2, abs=1e-10)


def test_iid_group_rates_match_binomial_prediction():
    # pooled per-group pass counts across runs stay within 3 sigma of the
    # exact per-test rate predicted in closed form
    target = prepare(hypergraph(3, [(0, 1, 2), (0, 2)]))
    prover = iid_deviated_prover(target.ideal, 0.15, maximally_mixed(3))
    rho = prover.make_source(1, np.random.default_rng(0))
    params = desk_params("hypergraph", 3, k=400, m=0, epsilon=0.2)
    runs = 25
    totals = np.zeros(3)
    for rep in target.runs(prover, params, run_seeds(67, runs)):
        for grp in rep.groups:
            totals[grp.group] += grp.passes
    n_trials = runs * params.k
    for i, form in enumerate(target.test.forms):
        p = adaptive_test_exact_ppass(rho, form)
        sigma = np.sqrt(p * (1 - p) / n_trials)
        assert abs(totals[i] / n_trials - p) < 3 * sigma


def test_classically_correlated_prover_mixes_runs():
    target = prepare(hypergraph(3, [(0, 1, 2)]))
    good = target.ideal
    bad = apply_pauli(good, PauliString.from_axes("ZII"))
    prover = classically_correlated_prover([good, bad], [0.5, 0.5])
    params = desk_params("hypergraph", 3, k=20, m=0, epsilon=0.2)
    verdicts = [rep.accepted for rep in target.runs(prover, params, run_seeds(41, 30))]
    rate = sum(verdicts) / len(verdicts)
    assert 0.2 < rate < 0.8  # the shared coin decides each run wholesale


def _counting_fidelity(target: PreparedTarget):
    """``target`` with a fidelity that lists every state it is evaluated on."""
    asked = []

    def fidelity(state):
        asked.append(state)
        return target.fidelity(state)

    return replace(target, fidelity=fidelity), asked


def test_runs_evaluate_each_source_s_fidelity_once_per_call(monkeypatch):
    # every run is sampled in a block of its own, so the blocks cannot share a fidelity
    monkeypatch.setattr(protocol, "BLOCK_TRIALS", 1)
    hyper = prepare(hypergraph(3, [(0, 1, 2)]))
    params = desk_params("hypergraph", 3, k=5, m=0, epsilon=0.2)
    target, asked = _counting_fidelity(hyper)
    reports = target.runs(honest_prover(hyper.ideal), params, run_seeds(3, 5))
    assert asked == [hyper.ideal]
    assert len({rep.target_fidelity for rep in reports}) == 1
    bad = apply_pauli(hyper.ideal, PauliString.from_axes("ZII"))
    prover = classically_correlated_prover([hyper.ideal, bad], [0.5, 0.5])
    asked.clear()
    target.runs(prover, params, run_seeds(41, 30))
    assert len(asked) == len(set(asked)) == 2  # once per distinct source
    ground = minus_z_target()
    assert ground.fidelity.func is projector_overlap
    target, asked = _counting_fidelity(ground)
    params = desk_params("ground", 1, k=5, m=0, epsilon=0.2)
    target.runs(honest_prover(computational_state(1, 0)), params, run_seeds(7, 5))
    assert len(asked) == 1


def test_runs_sample_each_source_in_blocks_of_whole_runs(monkeypatch):
    target = prepare(hypergraph(3, [(0, 1, 2)]))
    params = desk_params("hypergraph", 3, k=5, m=0, epsilon=0.2)
    good = target.ideal
    bad = apply_pauli(good, PauliString.from_axes("ZII"))
    prover = classically_correlated_prover([good, bad], [0.5, 0.5])
    seeds = run_seeds(41, 12)
    drawn = [prover.make_source(1, _run_rng(s, PROVER_STREAM)) for s in seeds]
    runs_of = [sum(state is source for state in drawn) for source in (good, bad)]
    assert min(runs_of) > 0
    monkeypatch.setattr(protocol, "BLOCK_TRIALS", 2 * 3 * params.k)  # two runs' trials
    calls = []
    sample = AdaptiveTest.sample

    def spy(self, state, rngs, k, **kw):
        calls.append(state)
        return sample(self, state, rngs, k, **kw)

    monkeypatch.setattr(AdaptiveTest, "sample", spy)
    target.runs(prover, params, seeds)
    # the runs of one source fill its blocks whatever the other source draws
    assert len(calls) == sum(math.ceil(runs / 2) for runs in runs_of)


def test_runs_decide_every_run_of_a_call_with_one_verdict_pass(monkeypatch):
    target = prepare(hypergraph(3, [(0, 1, 2)]))
    params = desk_params("hypergraph", 3, k=5, m=1, epsilon=0.2)
    good = target.ideal
    bad = apply_pauli(good, PauliString.from_axes("ZII"))
    mixed = classically_correlated_prover([good, bad], [0.5, 0.5])
    seeds = run_seeds(41, 12)
    drawn = [mixed.make_source(1, _run_rng(s, PROVER_STREAM)) for s in seeds]
    # the two sources interleave over the seeds
    assert sum(a is not b for a, b in zip(drawn, drawn[1:])) >= 2
    monkeypatch.setattr(protocol, "BLOCK_TRIALS", 2 * 3 * params.k)  # two runs' trials
    decided = []
    groups_pass = PreparedTarget.groups_pass

    def spy(self, counts, cuts):
        decided.append(counts.shape)
        return groups_pass(self, counts, cuts)

    monkeypatch.setattr(PreparedTarget, "groups_pass", spy)
    for prover in (honest_prover(good), mixed):
        decided.clear()
        reports = target.runs(prover, params, seeds, record_trials=True)
        assert decided == [(len(seeds), 3)]  # six blocks, one decision
    assert [rep.seed for rep in reports] == seeds
    for source in (good, bad):
        runs = [i for i, state in enumerate(drawn) if state is source]
        counts = target.pass_counts(source, params, [seeds[i] for i in runs])
        assert counts.shape[0] > 0
        for i, row in zip(runs, counts.tolist()):
            rep = reports[i]
            assert [g.passes for g in rep.groups] == row
            assert np.count_nonzero(rep.trials.passed, axis=1).tolist() == row
            assert rep.accepted == all(g.passed for g in rep.groups)
            layout_rng = _run_rng(seeds[i], LAYOUT_STREAM)
            register, rest = choose_layout(params.n_registers, params.m, layout_rng)
            assert rep.target_register == register
            assert rep.trials.registers.tolist() == rest.reshape(3, params.k).tolist()
    assert {rep.accepted for rep in reports} == {True, False}


def test_entangled_demo_extreme_weights():
    target = prepare(hypergraph(2, [(0, 1)]))
    good = target.ideal
    bad = apply_pauli(good, PauliString.from_axes("ZI"))
    params = desk_params("hypergraph", 2, k=2, m=1, epsilon=0.3)  # 6 registers = 12 qubits
    seeds = run_seeds(13, 5)
    for rep in target.runs(entangled_demo_prover(good, bad, 0.0), params, seeds):
        assert rep.accepted and rep.target_fidelity == pytest.approx(1.0)
    for rep in target.runs(entangled_demo_prover(good, bad, 1.0), params, seeds):
        assert not rep.accepted


def test_entangled_demo_collapses_to_branches():
    target = prepare(hypergraph(2, [(0, 1)]))
    good = target.ideal
    bad = apply_pauli(good, PauliString.from_axes("ZI"))
    params = desk_params("hypergraph", 2, k=2, m=1, epsilon=0.3)
    prover = entangled_demo_prover(good, bad, 0.5)
    outcomes = {rep.accepted for rep in target.runs(prover, params, run_seeds(101, 24))}
    assert outcomes == {True, False}


def test_entangled_cap_enforced():
    with pytest.raises(CapExceededError):
        EntangledRegisters(4, 4, np.zeros(1 << 16))


def test_entangled_cap_checked_before_the_joint_state_is_built():
    g = hypergraph(3, [(0, 1, 2)])
    good = build_state(g)
    prover = entangled_demo_prover(good, apply_pauli(good, PauliString.from_axes("ZII")), 0.5)
    with pytest.raises(CapExceededError):
        prover.make_source(5, np.random.default_rng(0))  # 15 qubits


class PerRegisterStates:
    """A test-only joint source that puts a chosen state on each register."""

    def __init__(self, states):
        self.states = states
        self.n = states[0].n

    def measure(self, register, bases, rng):
        record, _ = protocol.measure_in_bases(self.states[register], bases, rng)
        return record

    def register_state(self, register):
        return self.states[register]


def test_layout_against_a_register_dependent_prover():
    # Z0 fails every group-0 test of the edge graph state and passes every
    # group-1 test; group 0 needs 3 of 3 passes, so a run accepts exactly
    # when neither bad register (0 or 1) lands among group 0's 3 of 9
    target = prepare(hypergraph(2, [(0, 1)]))
    params = desk_params("hypergraph", 2, k=3, m=2, epsilon=Fraction(1, 10))
    assert params.n_registers == 9
    bad = apply_pauli(target.ideal, PauliString.from_axes("ZI"))
    source = PerRegisterStates([bad, bad] + [target.ideal] * 7)
    prover = ProverModel("register_dependent", lambda n_reg, rng: source)
    runs = 4000
    reports = target.runs(prover, params, run_seeds(2024, runs))
    accepted = np.array([rep.accepted for rep in reports])
    bad_target = np.array([rep.target_fidelity < 0.5 for rep in reports])
    for observed, exact in (
        (accepted, Fraction(5, 12)),
        (bad_target, Fraction(2, 9)),
        (accepted & ~bad_target, Fraction(5, 18)),
    ):
        sigma = math.sqrt(exact * (1 - exact) / runs)
        assert abs(observed.mean() - exact) <= 4 * sigma, (observed.mean(), exact)
    counts = np.bincount([rep.target_register for rep in reports], minlength=9)
    assert stats.chisquare(counts).pvalue > 1e-3


def test_register_cap_boundary():
    at_cap = desk_params("hypergraph", 3, k=(EXECUTABLE_REGISTER_CAP - 1) // 3)
    assert at_cap.n_registers == EXECUTABLE_REGISTER_CAP
    check_executable(at_cap)
    over = desk_params("hypergraph", 3, k=at_cap.k + 1)
    with pytest.raises(ValueError, match="report-only"):
        check_executable(over)
    target = prepare(hypergraph(3, [(0, 1, 2)]))
    with pytest.raises(ValueError, match="report-only"):
        target.runs(honest_prover(target.ideal), over, [1])


def test_register_count_and_width_validation():
    params = desk_params("hypergraph", 2, k=5, m=0, epsilon=0.2)
    wrong_width = honest_prover(build_state(hypergraph(3, [(0, 1, 2)])))
    with pytest.raises(ValueError):
        prepare(hypergraph(2, [(0, 1)])).runs(wrong_width, params, [1])
    with pytest.raises(ValueError):
        minus_z_target().runs(honest_prover(computational_state(1, 0)), params, [1])


# One two-qubit target of each kind, for the refusals of ``runs``.
TWO_QUBIT_TARGETS = {
    "hamiltonian": HamiltonianSpec(
        2, (PauliString.from_axes("ZZ", -1.0), PauliString.from_axes("XI", 0.5))
    ),
    "circuit": circuit(2, [("CZ", (0, 1)), ("T", (0,))]),
    "hypergraph": hypergraph(2, [(0, 1)]),
}


@pytest.mark.parametrize("kind", sorted(TWO_QUBIT_TARGETS))
def test_runs_refuses_params_of_another_protocol_or_width_and_a_wider_prover(kind):
    target = prepare(TWO_QUBIT_TARGETS[kind])
    prover = honest_prover(target.ideal)
    params = desk_params(target.protocol, 2, k=5)
    (rep,) = target.runs(prover, params, [1])
    assert rep.to_jsonable()["protocol"] == target.protocol
    other = next(p for p in COMPARISON if p != target.protocol)
    for bad in (desk_params(other, 2, k=5), desk_params(target.protocol, 3, k=5)):
        with pytest.raises(ValueError, match=f"params are not for this {target.protocol}"):
            target.runs(prover, bad, [1])
    wider = honest_prover(computational_state(3, 0))
    with pytest.raises(ValueError, match="prover register width"):
        target.runs(wider, params, [1])


@pytest.mark.parametrize("kind", sorted(TWO_QUBIT_TARGETS))
def test_group_ppass_is_the_exact_ppass_of_the_target_s_test(kind):
    target = prepare(TWO_QUBIT_TARGETS[kind])
    flipped = apply_pauli(target.ideal, PauliString.from_axes("ZX", 1.0))
    for state in (target.ideal, flipped, computational_state(2, 3), maximally_mixed(2)):
        assert target.group_ppass(state) == target.test.exact_ppass(state)
    assert [f.name for f in fields(PreparedTarget)] == ["protocol", "ideal", "test", "fidelity"]


def test_replay_is_bit_identical():
    target = prepare(hypergraph(3, [(0, 1, 2), (0, 2)]))
    prover = iid_deviated_prover(target.ideal, 0.2, maximally_mixed(3))
    params = desk_params("hypergraph", 3, k=25, m=2, epsilon=0.15)
    (a,) = target.runs(prover, params, [777], record_trials=True)
    (b,) = target.runs(prover, params, [777], record_trials=True)
    assert a.to_jsonable() == b.to_jsonable()
    for column in ("registers", "branches", "passed"):
        assert np.array_equal(getattr(a.trials, column), getattr(b.trials, column))
    assert trial_csv_lines([a.trials]) == trial_csv_lines([b.trials])
    (c,) = target.runs(prover, params, [778])
    assert c.to_jsonable() != a.to_jsonable()


def test_run_seeds_deterministic():
    assert run_seeds(5, 4) == run_seeds(5, 4)
    assert run_seeds(5, 4) != run_seeds(6, 4)


# ---------------------------------------------------------------------------
# The verdict at exact rational boundaries


class ExactPassCount:
    """A run kernel stub: every group passes exactly ``passes`` of its k trials."""

    def __init__(self, group_l1: tuple[float, ...], passes: int):
        self.group_l1 = group_l1
        self.passes = passes

    def sample(self, state, rngs, n_trials, branches=True):
        shape = (len(list(rngs)), len(self.group_l1), n_trials)
        flags = np.arange(n_trials) < self.passes
        return np.broadcast_to(flags, shape), np.zeros(shape, dtype=np.int64)


@given(
    protocol=st.sampled_from(["ground", "circuit", "hypergraph"]),
    n=st.integers(1, 3),
    eps=st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64),
    l1=st.one_of(st.integers(8, 400).map(lambda j: j / 8), st.floats(1.0, 50.0)),
    k=st.integers(1, 300),
    on_boundary=st.booleans(),
)
def test_verdict_flips_at_the_exact_pass_count(protocol, n, eps, l1, k, on_boundary):
    groups = 1 if protocol == "ground" else n
    group_l1 = (1.0 if protocol == "hypergraph" else l1,) * groups
    (thr,) = set(group_thresholds(protocol, eps, group_l1))
    if on_boundary:
        # a k at which thr * k is a whole number, so a rate equal to thr is reachable
        k = thr.denominator * (k % 4 + 1)
        assume(k <= 20_000)
    if COMPARISON[protocol] == ">=":
        boundary, other = math.ceil(thr * k), math.ceil(thr * k) - 1  # pass, fail
    else:
        boundary, other = math.floor(thr * k), math.floor(thr * k) + 1
    assert 0 <= min(boundary, other) and max(boundary, other) <= k
    params = desk_params(protocol, n, k=k, m=0, epsilon=eps)
    ideal = computational_state(n, 0)
    prover = honest_prover(ideal)
    for passes, verdict in ((boundary, True), (other, False)):
        stub = PreparedTarget(protocol, ideal, ExactPassCount(group_l1, passes), None)
        (rep,) = stub.runs(prover, params, [5])
        assert [g.passes for g in rep.groups] == [passes] * groups
        assert [g.passed for g in rep.groups] == [verdict] * groups
        assert rep.accepted == verdict
