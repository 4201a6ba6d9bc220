from itertools import combinations
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pauliverify import single_copy, states

from pauliverify.circuits import all_stabilizer_decompositions, build_circuit_state, circuit
from pauliverify.hamiltonians import HamiltonianSpec, rescale
from pauliverify.hypergraphs import (
    adaptive_form,
    all_adaptive_forms,
    build_state,
    hypergraph,
    load_hypergraph,
    stabilizer_dense,
)
from pauliverify.paulis import PauliString, PauliSum, bit_for_qubit, qubit_mask, sign_vector
from pauliverify.single_copy import (
    AdaptiveTest,
    ParityTest,
    adaptive_predicate,
    adaptive_test_exact_ppass,
    binomial_sigma,
    draw_pauli_term,
    monte_carlo_pass_rate,
    parity_passes,
    parity_test_exact_ppass,
)
from pauliverify.states import (
    apply_pauli,
    computational_state,
    maximally_mixed,
    measure_in_bases,
    mixture,
    projector_overlap,
    random_mixed_state,
    random_pure_state,
)

from conftest import dense_from_axes


def minus_z_rescaled():
    return rescale(
        HamiltonianSpec(
            1, (PauliString.from_axes("Z", -1.0),), ground_energy=-1.0, gap_lower_bound=2.0
        )
    )


def test_energy_ppass_ground_state_is_half():
    rh = minus_z_rescaled()
    assert parity_test_exact_ppass(computational_state(1, 0), rh) == pytest.approx(0.5)


def test_energy_ppass_excited_state():
    rh = minus_z_rescaled()
    # <H'> = 1 for |1>, so the rate saturates at 1/2 + 1/(2*l1) = 1
    assert parity_test_exact_ppass(computational_state(1, 1), rh) == pytest.approx(1.0)


def test_energy_ppass_maximally_mixed():
    rh = minus_z_rescaled()
    # 1/2 + c_I/(2*l1) = 3/4 for the single-qubit case
    assert parity_test_exact_ppass(maximally_mixed(1), rh) == pytest.approx(0.75)
    assert rh.identity_coeff == pytest.approx(0.5)


def test_energy_ppass_equals_dense_trace(rng):
    h = HamiltonianSpec(
        3,
        tuple(
            PauliString.from_axes(
                "".join(rng.choice(list("IXYZ")) for _ in range(3)), float(rng.normal())
            )
            for _ in range(5)
        ),
    )
    rh = rescale(h)
    rho = random_mixed_state(3, rng)
    dense = sum(dense_from_axes(t.axes, t.coeff) for t in rh.terms)
    want = 0.5 + np.trace(rho.data @ dense).real / (2 * rh.l1_norm)
    assert parity_test_exact_ppass(rho, rh) == pytest.approx(want, abs=1e-10)


def test_energy_monte_carlo_matches_exact(rng):
    rh = minus_z_rescaled()
    rho = random_mixed_state(1, rng)
    p = parity_test_exact_ppass(rho, rh)
    trials = 40_000
    rate, _ = monte_carlo_pass_rate(ParityTest(rh), trials, rng, state=rho)
    assert abs(rate - p) < 3 * binomial_sigma(p, trials)


def test_stabilizer_ppass_ideal_and_clifford(rng):
    ccz = circuit(3, [("CCZ", (0, 1, 2))])
    psi = build_circuit_state(ccz)
    for d in all_stabilizer_decompositions(ccz):
        assert parity_test_exact_ppass(psi, d) == pytest.approx(
            0.5 + 1 / (2 * d.l1_norm)
        )
    cz = circuit(2, [("CZ", (0, 1))])
    psi2 = build_circuit_state(cz)
    for d in all_stabilizer_decompositions(cz):
        assert d.l1_norm == pytest.approx(1.0)
        assert parity_test_exact_ppass(psi2, d) == pytest.approx(1.0)
        term = d.terms[draw_pauli_term(d, rng)]
        record, _ = measure_in_bases(psi2, term.axes, rng)
        assert parity_passes(record, term.sign)


def test_stabilizer_ppass_phase_flipped():
    ccz = circuit(3, [("CCZ", (0, 1, 2))])
    psi = build_circuit_state(ccz)
    flipped = apply_pauli(psi, PauliString.from_axes("ZII"))
    d0 = all_stabilizer_decompositions(ccz)[0]
    # the flipped state is stabilized by -g_1
    assert parity_test_exact_ppass(flipped, d0) == pytest.approx(
        0.5 - 1 / (2 * d0.l1_norm)
    )
    assert d0.l1_norm == pytest.approx(2.0)


def test_stabilizer_monte_carlo_matches_exact(rng):
    ccz = circuit(3, [("CCZ", (0, 1, 2))])
    d0 = all_stabilizer_decompositions(ccz)[0]
    rho = random_mixed_state(3, rng)
    p = parity_test_exact_ppass(rho, d0)
    g_dense = d0.dense()
    want = 0.5 + np.trace(rho.data @ g_dense).real / (2 * d0.l1_norm)
    assert p == pytest.approx(want, abs=1e-10)
    trials = 40_000
    rate, _ = monte_carlo_pass_rate(ParityTest(d0), trials, rng, state=rho)
    assert abs(rate - p) < 3 * binomial_sigma(p, trials)


def test_adaptive_ideal_state_always_passes(rng):
    g = hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3)])
    st = build_state(g)
    for v in range(4):
        form = adaptive_form(g, v)
        assert adaptive_test_exact_ppass(st, form) == pytest.approx(1.0)
        for _ in range(200):
            record, _ = measure_in_bases(st, form.bases(), rng)
            assert adaptive_predicate(record, form)[0]


def test_adaptive_worked_example_branch_rule(rng):
    g = hypergraph(3, [(0, 1, 2)])
    form = adaptive_form(g, 0)
    st = build_state(g)
    for _ in range(100):
        rec, _ = measure_in_bases(st, form.bases(), rng)
        passed, _ = adaptive_predicate(rec, form)
        # the written-out acceptance rule of the three-qubit example
        if rec.outcomes[1] == 1:
            expected = rec.outcomes[0] == 1
        else:
            expected = rec.outcomes[0] * rec.outcomes[2] == 1
        assert passed == expected


def test_adaptive_maximally_mixed_is_half():
    g = hypergraph(3, [(0, 1, 2)])
    form = adaptive_form(g, 0)
    assert adaptive_test_exact_ppass(maximally_mixed(3), form) == pytest.approx(0.5)


def test_adaptive_phase_flip_gives_zero():
    g = hypergraph(3, [(0, 1, 2)])
    st = build_state(g)
    flipped = apply_pauli(st, PauliString.from_axes("ZII"))
    form = adaptive_form(g, 0)
    assert adaptive_test_exact_ppass(flipped, form) == pytest.approx(0.0, abs=1e-12)
    assert adaptive_test_exact_ppass(
        flipped, form, g_dense=stabilizer_dense(g, 0)
    ) == pytest.approx(0.0, abs=1e-12)


@given(
    n=st.integers(2, 5),
    edge_bits=st.integers(0, 2**20 - 1),
    pure=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_adaptive_branch_sum_equals_trace_form(n, edge_bits, pure, seed):
    candidates = [e for size in (2, 3) for e in combinations(range(n), size)]
    g = hypergraph(n, [e for i, e in enumerate(candidates) if edge_bits >> i & 1])
    rng = np.random.default_rng(seed)
    rho = random_pure_state(n, rng) if pure else random_mixed_state(n, rng)
    for v in range(n):
        # (1 + <g_v>)/2 from the dense stabilizer
        via_trace = 0.5 * (1.0 + projector_overlap(rho, stabilizer_dense(g, v)))
        via_branches = adaptive_test_exact_ppass(rho, adaptive_form(g, v))
        assert via_branches == pytest.approx(via_trace, abs=1e-10)


def masked_expectation_oracle(state, p, fixed_bits):
    """Tr[rho P tau], P fixing ``fixed_bits`` (qubit -> bit), as one 1-d sum over the kept indices."""
    idx = np.arange(state.dim, dtype=np.int64)
    sel_mask = qubit_mask(state.n, fixed_bits)
    assert not p.xmask & sel_mask
    sel_val = qubit_mask(state.n, (q for q, b in fixed_bits.items() if b))
    keep = (idx & sel_mask) == sel_val
    signs = sign_vector(state.dim, p.zmask)
    if state.is_pure:
        val = np.sum(np.conj(state.data[idx[keep] ^ p.xmask]) * signs[keep] * state.data[keep])
    else:
        val = np.sum(signs[keep] * states._bands(state, idx[keep], p.xmask))
    return float((p.coeff * (1j) ** p.y_count * val).real)


def branch_sum_oracle(rho, form):
    """The adaptive pass probability, two masked sums per branch, added in branch_table order."""
    total = 0.0
    for a, alpha, residual in form.branch_table():
        fixed = dict(zip(form.projector_support, a))
        proj = masked_expectation_oracle(rho, PauliString.identity(form.n), fixed)
        xmask = bit_for_qubit(form.n, form.vertex)
        string = PauliString(form.n, xmask, qubit_mask(form.n, residual), -1.0 if alpha else 1.0)
        signed = masked_expectation_oracle(rho, string, fixed)
        total += 0.5 * (proj + signed)
    return total


@st.composite
def wide_support_hypergraphs(draw):
    """2 to 8 vertices, pair and triple edges; hub triples (0, a, b) put each a in vertex 0's support."""
    n = draw(st.integers(2, 8))
    support = draw(st.permutations(range(1, n - 1)))[: draw(st.integers(0, n - 2))]
    hub = [(0, a, draw(st.integers(a + 1, n - 1))) for a in sorted(support)]
    others = [e for size in (2, 3) for e in combinations(range(n), size) if e not in hub]
    return hypergraph(n, hub + draw(st.lists(st.sampled_from(others), max_size=8, unique=True)))


@given(
    g=wide_support_hypergraphs(),
    kind=st.sampled_from(
        ["ideal", "flipped", "pure", "mixed", "mixture", "maximally_mixed"]
    ),
    seed=st.integers(0, 2**32 - 1),
)
# vertex 0's support is (1, 2, 3, 5), and 3 is also a carrier
@example(
    g=hypergraph(8, [(0, 1, 3), (0, 2, 4), (0, 3, 6), (0, 5, 7), (1, 2), (4, 6, 7)]),
    kind="mixture",
    seed=3,
)
def test_the_branch_sum_has_the_bits_of_two_masked_sums_per_branch(g, kind, seed):
    rng = np.random.default_rng(seed)
    n = g.n
    ideal = build_state(g)
    flip = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
    state = {
        "ideal": lambda: ideal,
        "flipped": lambda: apply_pauli(ideal, flip),
        "pure": lambda: random_pure_state(n, rng),
        "mixed": lambda: random_mixed_state(n, rng),
        "mixture": lambda: mixture(ideal, random_mixed_state(n, rng), float(rng.random())),
        "maximally_mixed": lambda: maximally_mixed(n),
    }[kind]()
    for form in all_adaptive_forms(g):
        want = branch_sum_oracle(state, form).hex()
        assert adaptive_test_exact_ppass(state, form).hex() == want


def test_each_form_is_one_gather_and_each_parity_chunk_one_pass(monkeypatch):
    """The work ledger: ``expectations`` calls per form, and gathers per chunk of terms."""
    g, _ = load_hypergraph(Path(__file__).parent / "data" / "hyper6.json")
    forms = all_adaptive_forms(g)
    gathers, passes = [], []
    real_expectations, real_parity_bits = single_copy.expectations, states.parity_bits
    monkeypatch.setattr(
        single_copy, "expectations", lambda *a, **kw: gathers.append(1) or real_expectations(*a, **kw)
    )
    monkeypatch.setattr(
        states, "parity_bits", lambda *a: passes.append(1) or real_parity_bits(*a)
    )
    state = mixture(build_state(g), maximally_mixed(g.n), 0.1)
    AdaptiveTest(*forms).exact_ppass(state)
    # hyper6 has 6 forms and 19 branches: 38 branch terms in 6 gathers
    assert sum(1 << len(f.projector_support) for f in forms) == 19
    assert (len(gathers), len(passes)) == (6, 6)

    gathers.clear()
    passes.clear()
    sums = [PauliSum.of([PauliString.from_axes(a) for a in axes]) for axes in (
        ["XXIIII", "ZIZIII", "IYIYII"], ["ZZZZZZ", "XIIIIX"], ["IIXZII"],
    )]
    monkeypatch.setattr(states, "GATHER_ENTRIES", 4 << g.n)
    ParityTest(*sums).exact_ppass(state)
    # one call of six terms, gathered in chunks of four
    assert (len(gathers), len(passes)) == (1, 2)


def test_adaptive_monte_carlo_matches_exact(rng):
    g = hypergraph(4, [(0, 1, 2), (2, 3), (0, 1, 3)])
    rho = random_mixed_state(4, rng)
    form = adaptive_form(g, 0)
    p = adaptive_test_exact_ppass(rho, form, stabilizer_dense(g, 0))
    trials = 40_000
    rate, _ = monte_carlo_pass_rate(AdaptiveTest(form), trials, rng, state=rho)
    assert abs(rate - p) < 3 * binomial_sigma(p, trials)


def test_adaptive_on_graph_state_equals_plain_stabilizer(rng):
    # without projector branches the adaptive rule is the single-term test
    g = hypergraph(3, [(0, 1), (1, 2)])
    c = circuit(3, [("CZ", (0, 1)), ("CZ", (1, 2))])
    rho = random_mixed_state(3, rng)
    form = adaptive_form(g, 1)
    d = all_stabilizer_decompositions(c)[1]
    assert form.projector_support == ()
    assert adaptive_test_exact_ppass(
        rho, form, stabilizer_dense(g, 1)
    ) == pytest.approx(parity_test_exact_ppass(rho, d), abs=1e-10)


def test_exact_ppass_stays_in_unit_interval(rng):
    g = hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    for _ in range(10):
        rho = random_mixed_state(4, rng)
        for v in range(4):
            p = adaptive_test_exact_ppass(rho, adaptive_form(g, v), stabilizer_dense(g, v))
            assert -1e-10 <= p <= 1 + 1e-10


def parity_trial(rho, pauli_sum, rng):
    term = pauli_sum.terms[draw_pauli_term(pauli_sum, rng)]
    record, _ = measure_in_bases(rho, term.axes, rng)
    return term, record


def test_outcome_reproducible_from_seed():
    rh = minus_z_rescaled()
    rho = maximally_mixed(1)
    a = [parity_trial(rho, rh, np.random.default_rng(7))[0] for _ in range(3)]
    assert len(set(a)) == 1
    r1 = np.random.default_rng(11)
    r2 = np.random.default_rng(11)
    outs1 = [parity_trial(rho, rh, r1) for _ in range(50)]
    outs2 = [parity_trial(rho, rh, r2) for _ in range(50)]
    assert [parity_passes(r, d.sign) for d, r in outs1] == [
        parity_passes(r, d.sign) for d, r in outs2
    ]
    assert [r.outcomes for _, r in outs1] == [r.outcomes for _, r in outs2]


def test_parity_test_renders_one_string_per_distinct_basis(monkeypatch):
    # two groups that share the basis XZ: three terms, two distinct bases
    sums = [
        PauliSum.of([PauliString.from_axes("XZ", 0.5), PauliString.from_axes("ZZ", -0.5)]),
        PauliSum.of([PauliString.from_axes("XZ", -1.0)]),
    ]
    rendered = []
    axes = PauliString.axes
    monkeypatch.setattr(
        PauliString, "axes", property(lambda p: rendered.append(p.key) or axes.fget(p))
    )
    test = ParityTest(*sums)
    assert test.layout.bases == ("XZ", "ZZ")
    assert test.basis_id.tolist() == [0, 1, 0]
    assert rendered == [(0b10, 0b01), (0, 0b11)]
    labels = [test.branch_label(0), test.branch_label(1), test.branch_label(2)]
    assert labels == ["+XZ", "-ZZ", "-XZ"]


def test_monte_carlo_pass_rate_refuses_zero_trials(rng):
    with pytest.raises(ValueError, match="n_trials must be at least 1, got 0"):
        monte_carlo_pass_rate(ParityTest(minus_z_rescaled()), 0, rng, computational_state(1, 0))


def test_monte_carlo_pass_rate_refuses_an_adaptive_kernel_of_more_than_one_group(rng):
    # three groups' passes over one group's trial count would read as a rate up to 3
    kernel = AdaptiveTest(*(adaptive_form(hypergraph(2, []), 0),) * 3)
    with pytest.raises(ValueError, match="the kernel must have one group, got 3"):
        monte_carlo_pass_rate(kernel, 10, rng, computational_state(2, 0))


def test_parity_test_refuses_sums_of_different_widths():
    with pytest.raises(ValueError, match="share one register width"):
        ParityTest(*(PauliSum.of([PauliString.from_axes(a)]) for a in ("XZ", "X")))


@given(
    n=st.integers(1, 4),
    kind=st.sampled_from(["pure", "mixed", "mixture", "maximally_mixed"]),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_gather_gives_each_group_the_ppass_of_its_own_sum_bit_for_bit(
    n, kind, data, seed
):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(n, rng)
    state = {
        "pure": psi,
        "mixed": random_mixed_state(n, rng),
        "mixture": mixture(psi, maximally_mixed(n), 0.05),
        "maximally_mixed": maximally_mixed(n),
    }[kind]
    masks = st.integers(0, (1 << n) - 1)
    coeffs = st.floats(-2, 2).filter(lambda c: abs(c) > 1e-3)
    term_lists = st.lists(st.tuples(masks, masks, coeffs), min_size=2, max_size=9)
    sums = [
        PauliSum.of([PauliString(n, x, z, c) for x, z, c in specs])
        for specs in data.draw(st.lists(term_lists, min_size=1, max_size=4))
    ]
    want = [parity_test_exact_ppass(state, s).hex() for s in sums]
    # the first chunk of the gather ends inside the first sum
    step = data.draw(st.integers(1, len(sums[0].terms) - 1))
    with patch.object(states, "GATHER_ENTRIES", step << n):
        got = ParityTest(*sums).exact_ppass(state)
    assert [p.hex() for p in got] == want


@given(
    n=st.integers(2, 4),
    edge_bits=st.integers(0, 2**10 - 1),
    kind=st.sampled_from(["pure", "mixed", "mixture", "maximally_mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_adaptive_test_gives_each_group_the_ppass_of_its_own_form_bit_for_bit(
    n, edge_bits, kind, seed
):
    candidates = [e for size in (2, 3) for e in combinations(range(n), size)]
    g = hypergraph(n, [e for i, e in enumerate(candidates) if edge_bits >> i & 1])
    rng = np.random.default_rng(seed)
    psi = random_pure_state(n, rng)
    state = {
        "pure": psi,
        "mixed": random_mixed_state(n, rng),
        "mixture": mixture(psi, maximally_mixed(n), 0.05),
        "maximally_mixed": maximally_mixed(n),
    }[kind]
    forms = [adaptive_form(g, v) for v in range(n)]
    want = [adaptive_test_exact_ppass(state, f).hex() for f in forms]
    assert [p.hex() for p in AdaptiveTest(*forms).exact_ppass(state)] == want
