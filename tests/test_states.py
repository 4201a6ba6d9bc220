import ast
import itertools
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from pauliverify import states
from pauliverify.hypergraphs import all_adaptive_forms, hypergraph
from pauliverify.paulis import PauliString, PauliSum, bit_for_qubit
from pauliverify.schedules import CapExceededError
from pauliverify.single_copy import AdaptiveTest, ParityTest, parity_test_exact_ppass
from pauliverify.states import (
    DenseState,
    StackLayout,
    apply_pauli,
    computational_state,
    expectation,
    expectations,
    maximally_mixed,
    measure_in_bases,
    mixed_state,
    mixture,
    outcome_distribution,
    overlap,
    partial_trace,
    plus_state,
    pure_state,
    random_mixed_state,
    random_pure_state,
    sample_stacked_outcomes,
    to_density,
)

from conftest import I2, dense_from_axes, kron_chain, random_hermitian


def three_qubit_triple_state() -> DenseState:
    """CZ~ on {1,2,3} applied to |+++>: all amplitudes +1/sqrt(8) except |111>."""
    amps = np.full(8, 1 / np.sqrt(8), dtype=complex)
    amps[7] *= -1
    return pure_state(amps)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        pure_state(np.array([1.0, 1.0]))
    with pytest.raises(CapExceededError):
        pure_state(np.zeros(1 << 17), n=17)


def test_mixed_state_validation(rng):
    rho = random_hermitian(2, rng)
    with pytest.raises(ValueError):
        mixed_state(rho)  # trace is not 1
    good = rho @ rho.conj().T
    mixed_state(good / np.trace(good).real)


def test_apply_pauli_basics():
    # X on |0> -> |1>
    out = apply_pauli(computational_state(1, 0), PauliString.from_axes("X"))
    assert np.allclose(out.data, [0, 1])
    # identity on anything -> same state
    st = three_qubit_triple_state()
    out = apply_pauli(st, PauliString.from_axes("III"))
    assert np.allclose(out.data, st.data)
    # Z (x) Z on |11> -> +|11>
    out = apply_pauli(computational_state(2, 3), PauliString.from_axes("ZZ"))
    assert np.allclose(out.data, [0, 0, 0, 1])


def test_apply_pauli_matches_kron_oracle(rng):
    psi = random_pure_state(3, rng)
    p = PauliString.from_axes("YXZ", -0.5)
    got = apply_pauli(psi, p)
    want = dense_from_axes("YXZ", -0.5) @ psi.data
    assert np.allclose(got.data, want, atol=1e-12)


def test_apply_pauli_mixed_conjugates_without_coeff(rng):
    rho = random_mixed_state(2, rng)
    p = PauliString.from_axes("XY", -3.0)
    got = apply_pauli(rho, p)
    u = dense_from_axes("XY")
    assert np.allclose(got.data, u @ rho.data @ u.conj().T, atol=1e-12)


def test_apply_pauli_width_mismatch():
    with pytest.raises(ValueError):
        apply_pauli(plus_state(2), PauliString.from_axes("XXX"))


def test_expectation_eigenstate_and_traceless():
    assert expectation(plus_state(1), PauliString.from_axes("X")) == pytest.approx(1.0)
    mm = maximally_mixed(3)
    for axes in ["XII", "IYI", "ZZZ", "XYZ"]:
        assert expectation(mm, PauliString.from_axes(axes)) == pytest.approx(0.0, abs=1e-12)


def test_expectation_matches_dense_trace_oracle(rng):
    rho = random_mixed_state(3, rng)
    for _ in range(20):
        axes = "".join(rng.choice(list("IXYZ")) for _ in range(3))
        coeff = float(rng.normal())
        want = np.trace(rho.data @ dense_from_axes(axes, coeff)).real
        got = expectation(rho, PauliString.from_axes(axes, coeff))
        assert got == pytest.approx(want, abs=1e-10)


def test_expectation_pure_equals_rank_one_density(rng):
    psi = random_pure_state(4, rng)
    rho = to_density(psi)
    for _ in range(10):
        axes = "".join(rng.choice(list("IXYZ")) for _ in range(4))
        p = PauliString.from_axes(axes)
        assert expectation(psi, p) == pytest.approx(expectation(rho, p), abs=1e-10)


def test_expectation_unit_coeff_in_unit_interval(rng):
    for _ in range(30):
        n = int(rng.integers(1, 5))
        state = random_mixed_state(n, rng) if rng.random() < 0.5 else random_pure_state(n, rng)
        axes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        val = expectation(state, PauliString.from_axes(axes))
        assert -1.0 - 1e-10 <= val <= 1.0 + 1e-10


def fixed_bit_rows(n: int, fixed: dict[int, int]) -> np.ndarray:
    """One row: the ascending indices whose bits read ``fixed`` (qubit -> bit)."""
    idx = np.arange(1 << n)
    keep = np.ones(idx.shape, dtype=bool)
    for q, b in fixed.items():
        keep &= (idx >> (n - 1 - q)) & 1 == b
    return idx[keep][None]


def test_masked_expectation_oracle(rng):
    rho = random_mixed_state(3, rng)
    # X on qubit 0, projector |1><1| on qubit 1, Z on qubit 2
    (got,) = expectations(rho, [PauliString.from_axes("XIZ")], rows=fixed_bit_rows(3, {1: 1}))
    want = np.trace(rho.data @ dense_from_axes("X1Z")).real
    assert got == pytest.approx(want, abs=1e-12)


def test_rows_hold_one_row_per_term(rng):
    rho = random_mixed_state(2, rng)
    with pytest.raises(ValueError, match="one row per term"):
        expectations(rho, [PauliString.from_axes("XI")] * 2, rows=fixed_bit_rows(2, {1: 0}))


def test_measure_z_eigenstate_deterministic(rng):
    rec, prob = measure_in_bases(computational_state(1, 0), "Z", rng)
    assert rec.outcomes == (1,) and prob == pytest.approx(1.0)
    rec, prob = measure_in_bases(computational_state(1, 1), "Z", rng)
    assert rec.outcomes == (-1,) and prob == pytest.approx(1.0)


def test_measure_uniform_two_qubit():
    probs = outcome_distribution(plus_state(2), "ZZ")
    assert np.allclose(probs, 0.25)


def test_unmeasured_qubits_forced_plus_one(rng):
    for _ in range(20):
        rec, prob = measure_in_bases(three_qubit_triple_state(), "IZI", rng)
        assert len(rec.outcomes) == 3 and rec.outcomes[1] in (1, -1)
        assert rec.outcomes[0] == 1 and rec.outcomes[2] == 1
        assert prob == pytest.approx(0.5)
    # all-I bases: the single record has probability one
    rec, prob = measure_in_bases(three_qubit_triple_state(), "III", rng)
    assert rec.outcomes == (1, 1, 1) and prob == pytest.approx(1.0)


def test_measure_xzz_empirics_match_born(rng):
    state = three_qubit_triple_state()
    bases = "XZZ"
    exact = outcome_distribution(state, bases)
    samples = 100_000
    counts = np.zeros(8)
    for _ in range(samples):
        rec, _ = measure_in_bases(state, bases, rng)
        k = 0
        for m in rec.outcomes:
            k = (k << 1) | (m == -1)
        counts[k] += 1
    tv = 0.5 * np.sum(np.abs(counts / samples - exact))
    assert tv < 0.02


@pytest.mark.parametrize("n", [2, 3, 4])
def test_born_tv_convergence_invariant(n, rng):
    state = random_pure_state(n, rng)
    bases = "".join(rng.choice(list("XYZ")) for _ in range(n))
    exact = outcome_distribution(state, bases)
    samples = 100_000
    counts = np.zeros(1 << n)
    for _ in range(samples):
        rec, _ = measure_in_bases(state, bases, rng)
        k = 0
        for m in rec.outcomes:
            k = (k << 1) | (m == -1)
        counts[k] += 1
    tv = 0.5 * np.sum(np.abs(counts / samples - exact))
    assert tv < 3 * np.sqrt((1 << n) / samples)


def test_mixed_state_measurement_matches_ensemble(rng):
    # 50/50 mixture of |0> and |+> measured in X
    rho = mixed_state(
        0.5 * np.array([[1, 0], [0, 0]], dtype=complex)
        + 0.5 * np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    )
    probs = outcome_distribution(rho, "X")
    assert np.allclose(probs, [0.75, 0.25])


def test_record_probability_matches_distribution(rng):
    state = three_qubit_triple_state()
    exact = outcome_distribution(state, "XYZ")
    for _ in range(50):
        rec, prob = measure_in_bases(state, "XYZ", rng)
        k = 0
        for m in rec.outcomes:
            k = (k << 1) | (m == -1)
        assert prob == pytest.approx(exact[k])


def test_overlap_and_partial_trace(rng):
    psi = random_pure_state(2, rng)
    assert overlap(psi, psi) == pytest.approx(1.0)
    assert overlap(to_density(psi), psi) == pytest.approx(1.0)
    # Bell pair reduces to the maximally mixed single qubit
    bell = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
    red = partial_trace(bell, (0,))
    assert np.allclose(red.data, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize(
    "keep, needle",
    [
        ((1, 0), r"distinct qubits in ascending order, got \(1, 0\)"),
        ((0, 0), r"distinct qubits in ascending order, got \(0, 0\)"),
        ((0, 3), "qubit 3 is not one of the 3 qubits"),
        ((-1,), "qubit -1 is not one of the 3 qubits"),
    ],
)
def test_partial_trace_refuses_keep_out_of_order_repeated_or_out_of_range(keep, needle):
    # (1, 0) would return the qubit-swapped matrix; the others failed inside numpy
    psi = random_pure_state(3, np.random.default_rng(3))
    with pytest.raises(ValueError, match=needle):
        partial_trace(psi, keep)


# ---------------------------------------------------------------------------
# Fixed-axis rotations: tensordot's bits without its argument handling


def int_view(a: np.ndarray) -> np.ndarray:
    """The bits of a complex array as integers, so -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


@given(n=st.integers(1, 10), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_rotate_equals_tensordot_then_moveaxis_bit_for_bit(n, data, seed):
    psi = random_pure_state(n, np.random.default_rng(seed)).data.reshape([2] * n)
    # every axis once, in any order, each on the transposed output of the last
    for j in data.draw(st.permutations(range(n))):
        letter = data.draw(st.sampled_from("XY"))
        rotation = states.BASIS_ROTATIONS[letter]
        want = np.moveaxis(np.tensordot(rotation, psi, axes=(1, j)), 0, j)
        got = states._rotate(psi, j, letter)
        assert got.shape == want.shape
        assert np.array_equal(int_view(got), int_view(want))
        psi = got


# ---------------------------------------------------------------------------
# Density-matrix Born tables against an independent reference

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# rows are the +1 / -1 eigenvectors (conjugated), so U maps them to |0>, |1>
REFERENCE_ROTATIONS = {
    "I": I2,
    "Z": I2,
    "X": H2,
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2),
}


def reference_born_probs(rho: np.ndarray, bases: str) -> np.ndarray:
    """diag(U rho U^dag) for U = (x) rotations, summed over the I qubits."""
    u = kron_chain(*(REFERENCE_ROTATIONS[b] for b in bases))
    full = np.diagonal(u @ rho @ u.conj().T).real.reshape([2] * len(bases))
    unmeasured = tuple(j for j, b in enumerate(bases) if b == "I")
    return full.sum(axis=unmeasured).reshape(-1) if unmeasured else full.reshape(-1)


def reference_indices(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    k = np.searchsorted(np.cumsum(probs), u, side="right")
    return np.minimum(k, np.nonzero(probs > 0.0)[0][-1])


UNIFORMS = np.random.default_rng(99).random(512)


def sampled_indices(state: DenseState, bases: str, u: np.ndarray) -> np.ndarray:
    """The outcome index of each uniform in ``u``, all measured in ``bases``."""
    layout = StackLayout.of(state.n, (bases,))
    return sample_stacked_outcomes(state, layout, np.zeros(u.size, dtype=np.int64), u)


def assert_born_table_matches_reference(state: DenseState, bases: str):
    want = reference_born_probs(state.data, bases)
    got = outcome_distribution(state, bases)
    assert np.max(np.abs(got - want)) <= 1e-13
    np.testing.assert_array_equal(
        sampled_indices(state, bases, UNIFORMS), reference_indices(want, UNIFORMS)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rank", [1, 2, None])
def test_density_born_table_matches_reference_on_every_basis(n, rank):
    rng = np.random.default_rng(1000 * n + (rank or 0))
    rho = random_mixed_state(n, rng, rank=min(rank or 1 << n, 1 << n))
    for letters in itertools.product("IXYZ", repeat=n):
        assert_born_table_matches_reference(rho, "".join(letters))


@given(
    data=st.data(),
    n=st.integers(1, 6),
    rank=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_density_born_table_matches_reference(data, n, rank, seed):
    bases = data.draw(st.text("IXYZ", min_size=n, max_size=n))
    rho = random_mixed_state(n, np.random.default_rng(seed), rank=min(rank, 1 << n))
    assert_born_table_matches_reference(rho, bases)


@given(data=st.data(), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_rank_one_density_table_equals_the_pure_table(data, n, seed):
    bases = data.draw(st.text("IXYZ", min_size=n, max_size=n))
    psi = random_pure_state(n, np.random.default_rng(seed))
    got = outcome_distribution(to_density(psi), bases)
    assert np.max(np.abs(got - outcome_distribution(psi, bases))) <= 1e-14


# ---------------------------------------------------------------------------
# States built from validated ones skip the eigenvalue check; they must pass it


def assert_passes_every_density_check(state: DenseState):
    assert not state.is_pure and not state.data.flags.writeable
    checked = mixed_state(state.data)  # trace, Hermiticity, eigenvalue floor
    np.testing.assert_array_equal(checked.data, state.data)


@given(
    n=st.integers(1, 6),
    keep_bits=st.integers(1, 2**6 - 1),
    weight=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_constructed_density_matrices_pass_every_check(n, keep_bits, weight, seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(n, rng)
    assert_passes_every_density_check(to_density(psi))
    assert_passes_every_density_check(maximally_mixed(n))
    keep = tuple(q for q in range(n) if keep_bits >> q & 1) or (0,)
    assert_passes_every_density_check(partial_trace(psi, keep))
    assert_passes_every_density_check(mixture(psi, random_mixed_state(n, rng), weight))
    assert_passes_every_density_check(mixture(psi, maximally_mixed(n), weight))


def test_mixed_state_rejects_a_negative_eigenvalue():
    rho = np.diag([1.2, -0.2]).astype(complex)  # unit trace, Hermitian
    with pytest.raises(ValueError, match="negative eigenvalue"):
        mixed_state(rho)


@pytest.mark.parametrize("first", ["pure", "dense", "maximally_mixed"])
@pytest.mark.parametrize("second", ["pure", "dense", "maximally_mixed"])
@pytest.mark.parametrize("weight", [0.0, 0.05, 1 / 3, 1.0])
def test_mixture_has_the_bits_of_the_two_scaled_parts(first, second, weight):
    rng = np.random.default_rng(7)
    make = {
        "pure": lambda: random_pure_state(4, rng),
        "dense": lambda: random_mixed_state(4, rng),
        "maximally_mixed": lambda: maximally_mixed(4),
    }
    a, b = make[first](), make[second]()
    old = (1.0 - weight) * to_density(a).data + weight * to_density(b).data
    assert np.array_equal(mixture(a, b, weight).data.view(np.int64), old.view(np.int64))


@pytest.mark.parametrize("n", range(1, 9))
def test_maximally_mixed_has_the_bits_of_the_dense_identity(n):
    want = np.eye(2**n, dtype=complex) / 2**n
    assert maximally_mixed(n).data.tobytes() == want.tobytes()


def test_maximally_mixed_builds_its_matrix_only_when_read():
    tracemalloc.start()
    try:
        eta = maximally_mixed(8)
        held = tracemalloc.get_traced_memory()[1]
        rho = eta.data
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < 4096 and read >= 1 << 20
    assert eta.data is rho and rho.tobytes() == (np.eye(256, dtype=complex) / 256).tobytes()
    assert not rho.flags.writeable


# signed zeros in the amplitudes put -0.0 into the outer product
_amplitude_parts = st.sampled_from([0.0, -0.0, 0.5, -0.5, -1e-300]) | st.floats(-1.0, 1.0)


@given(
    n=st.integers(1, 4),
    data=st.data(),
    weight=st.sampled_from([0.0, 5e-324, 1e-300, 0.02, 1.0]) | st.floats(0.0, 1.0),
)
def test_a_maximally_mixed_part_has_the_bits_of_the_dense_sum(n, data, weight):
    dim = 1 << n
    parts = data.draw(st.lists(_amplitude_parts, min_size=2 * dim, max_size=2 * dim))
    amps = np.empty(dim, dtype=complex)
    amps.real, amps.imag = parts[:dim], parts[dim:]
    norm = np.linalg.norm(amps)
    assume(norm > 1e-100)
    psi = pure_state(amps / norm)
    want = (1.0 - weight) * to_density(psi).data
    want += weight * (np.eye(dim, dtype=complex) / dim)
    assert mixture(psi, maximally_mixed(n), weight).data.tobytes() == want.tobytes()


# The eager mixture build, kept here as the reference for a mixture held as
# its parts: a part scaled into one fresh array (``np.outer`` for a pure
# part), then the other added in place, with a maximally mixed part added as
# ``+= 0.0`` and ``+= weight/dim`` on the diagonal.
def oracle_scaled_density(data: np.ndarray, scale: float) -> np.ndarray:
    if data.ndim == 2:
        return np.multiply(scale, data)
    rho = np.outer(data, data.conj())
    rho *= scale
    return rho


def oracle_maximally_mixed(dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho.reshape(-1)[:: dim + 1] = 1.0 / dim
    return rho


def oracle_mixture(first: np.ndarray, other, weight: float) -> np.ndarray:
    """``other`` is an amplitude vector, a density matrix or "I/dim"."""
    rho = oracle_scaled_density(first, 1.0 - weight)
    dim = rho.shape[0]
    if isinstance(other, str):
        rho += 0.0
        rho.reshape(-1)[:: dim + 1] += weight / dim
    else:
        rho += oracle_scaled_density(other, weight)
    return rho


def state_and_oracle(kind: str, n: int, weight: float, rng):
    """A state held as parts and its eagerly built density matrix."""
    psi = random_pure_state(n, rng)
    if kind == "maximally mixed":
        return maximally_mixed(n), oracle_maximally_mixed(1 << n)
    if kind == "pure + maximally mixed":
        return mixture(psi, maximally_mixed(n), weight), oracle_mixture(psi.data, "I", weight)
    if kind == "pure + pure":
        other = random_pure_state(n, rng)
        return mixture(psi, other, weight), oracle_mixture(psi.data, other.data, weight)
    if kind == "pure + random mixed":
        other = random_mixed_state(n, rng)
        return mixture(psi, other, weight), oracle_mixture(psi.data, other.data, weight)
    # a mixture of a mixture, as either part
    inner = mixture(psi, maximally_mixed(n), 0.3)
    inner_rho = oracle_mixture(psi.data, "I", 0.3)
    other = random_pure_state(n, rng)
    if kind == "mixture + pure":
        return mixture(inner, other, weight), oracle_mixture(inner_rho, other.data, weight)
    return mixture(other, inner, weight), oracle_mixture(other.data, inner_rho, weight)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


@given(
    n=st.integers(1, 6),
    kind=st.sampled_from([
        "maximally mixed", "pure + maximally mixed", "pure + pure",
        "pure + random mixed", "mixture + pure", "pure + mixture",
    ]),
    weight=st.sampled_from([0.0, 1.0, 1e-300, 0.5]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=8, kind="pure + maximally mixed", weight=0.05, seed=8)
def test_a_state_held_as_parts_reads_the_bits_of_its_eager_matrix(n, kind, weight, seed):
    rng = np.random.default_rng(seed)
    state, rho = state_and_oracle(kind, n, weight, rng)
    twin = DenseState(n, rho)
    dim = 1 << n
    terms = [
        PauliString(n, int(x), int(z), float(c))
        for x, z, c in zip(
            rng.integers(0, dim, 30), rng.integers(0, dim, 30), rng.uniform(-2, 2, 30)
        )
    ]
    assert hexes(expectations(state, terms)) == hexes(expectations(twin, terms))
    for term in terms:
        # fix random bits of random qubits off the term's X/Y axes
        free = [q for q in range(n) if not term.xmask & bit_for_qubit(n, q)]
        fixed = {q: int(rng.integers(2)) for q in free if rng.random() < 0.5}
        rows = fixed_bit_rows(n, fixed)
        got = expectations(state, [term], rows=rows)
        assert hexes(got) == hexes(expectations(twin, [term], rows=rows))
    parity = ParityTest(PauliSum.of(terms[:10]), PauliSum.of(terms[10:]))
    assert hexes(parity.exact_ppass(state)) == hexes(parity.exact_ppass(twin))
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    adaptive = AdaptiveTest(*all_adaptive_forms(hypergraph(n, edges)))
    assert hexes(adaptive.exact_ppass(state)) == hexes(adaptive.exact_ppass(twin))
    # none of these reads built the matrix
    assert state._data is None
    reference = random_pure_state(n, rng)
    assert overlap(state, reference).hex() == overlap(twin, reference).hex()
    assert state.data.tobytes() == rho.tobytes()
    assert not state.data.flags.writeable


def test_mixture_checks_its_arguments(rng):
    psi = random_pure_state(2, rng)
    with pytest.raises(ValueError):
        mixture(psi, maximally_mixed(3), 0.5)
    with pytest.raises(ValueError):
        mixture(psi, maximally_mixed(2), 1.5)


# ---------------------------------------------------------------------------
# Tables that follow from how a state was built: I/2**n and convex mixtures


def kernel_twin(state: DenseState) -> DenseState:
    """The same density matrix as a caller-supplied one, tabled by the kernel."""
    return DenseState(state.n, state.data)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_maximally_mixed_table_is_the_kernel_table_bit_for_bit(n):
    eta = maximally_mixed(n)
    twin = kernel_twin(eta)
    for letters in itertools.product("IXYZ", repeat=n):
        bases = "".join(letters)
        got, want = states._basis_table(eta, bases), states._basis_table(twin, bases)
        np.testing.assert_array_equal(got.probs, want.probs)
        np.testing.assert_array_equal(got.cum, want.cum)
        assert got.last_sampleable[0] == want.last_sampleable[0]


UNIFORM_BLOCK = np.random.default_rng(4096).random(4096)


@given(
    data=st.data(),
    n=st.integers(1, 8),
    weight=st.floats(0.0, 1.0),
    other=st.sampled_from(["maximally_mixed", "mixed", "pure"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixture_table_is_the_kernel_table_within_1e_15(data, n, weight, other, seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(n, rng)
    eta = {
        "maximally_mixed": maximally_mixed,
        "mixed": lambda n: random_mixed_state(n, rng, rank=2),
        "pure": lambda n: random_pure_state(n, rng),
    }[other](n)
    rho = mixture(psi, eta, weight)
    bases = data.draw(st.text("IXYZ", min_size=n, max_size=n))
    got = states._basis_table(rho, bases)
    want = states._basis_table(kernel_twin(rho), bases)
    assert np.max(np.abs(got.probs - want.probs)) <= 1e-15
    assert np.max(np.abs(got.cum - want.cum)) <= 1e-15
    np.testing.assert_array_equal(
        sampled_indices(rho, bases, UNIFORM_BLOCK),
        sampled_indices(kernel_twin(rho), bases, UNIFORM_BLOCK),
    )


def test_mixture_tables_reuse_their_components_tables(rng):
    psi, eta = random_pure_state(3, rng), maximally_mixed(3)
    for weight in (0.1, 0.2):
        outcome_distribution(mixture(psi, eta, weight), "XIY")
    assert list(psi._cache) == [("XIY",)] and list(eta._cache) == [("XIY",)]


def test_overlap_of_a_mixture_is_its_dense_form_for_each_reference(rng):
    psi, other = random_pure_state(3, rng), random_pure_state(3, rng)
    rho = mixture(psi, maximally_mixed(3), 0.3)
    first = overlap(rho, psi)
    assert first == float(np.real(psi.data.conj() @ rho.data @ psi.data))
    assert overlap(rho, psi) == first
    assert overlap(rho, other) == float(np.real(other.data.conj() @ rho.data @ other.data))


def test_a_state_memo_stays_within_its_limit_and_samples_the_same(rng):
    """Scalar tables and stacks share one memo, held to MEMO_LIMIT entries."""

    def states_of(seed):
        local = np.random.default_rng(seed)
        psi, eta = random_pure_state(3, local), random_mixed_state(3, local, rank=2)
        return [psi, eta, mixture(psi, eta, 0.3)]

    def memos_of(state):
        return [state, *(part for _, part in state._parts or ())]

    refs = [random_pure_state(3, rng) for _ in range(3)]
    stacks = [("XIY", "ZZX"), ("YYY",), ("XIY", "IZI", "ZXZ"), ("ZZX", "YYY")]

    def use(state, check):
        """Scalar tables, stacks and overlaps in turn, twice over; ``check`` after each step."""
        out = []
        for _ in range(2):
            for i, bases in enumerate(stacks):
                which = np.arange(UNIFORM_BLOCK.size) % len(bases)
                layout = StackLayout.of(state.n, bases)
                out.append(sample_stacked_outcomes(state, layout, which, UNIFORM_BLOCK).tolist())
                out.extend(measure_in_bases(state, b, np.random.default_rng(i)) for b in bases)
                out.append(overlap(state, refs[i % len(refs)]))
                check()
        return out

    limit = 3
    for state, twin in zip(states_of(9), states_of(9)):

        def within_limit():
            assert all(len(s._cache) <= limit for s in memos_of(state))

        with patch.object(states, "MEMO_LIMIT", limit):
            bounded = use(state, within_limit)
        assert bounded == use(twin, lambda: None)
        # unbounded, the same calls leave more entries than the limit allows
        assert max(len(s._cache) for s in memos_of(twin)) > limit


# ---------------------------------------------------------------------------
# The stacked builder: memory of the rotation walk, one row finisher


def test_stacked_pure_tables_hold_one_rotated_tensor_per_qubit_of_the_path():
    # 64 bases on 14 qubits share a 4-letter rotated trunk and branch over the
    # next six qubits: 130 distinct rotated prefixes, of which the walk holds
    # at most the 10 of its current path (the stack's own rows are 4 more)
    n = 14
    psi = random_pure_state(n, np.random.default_rng(14))
    bases = tuple("XXXX" + "".join(t) + "IIII" for t in itertools.product("XY", repeat=6))
    layout = StackLayout.of(n, bases)
    tracemalloc.start()
    try:
        stack = states._table_stack(psi, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.probs.size == 64 << 10
    assert peak <= 2 * (n + 2) * psi.data.nbytes


def test_cumsum_is_spelled_only_in_the_row_finisher():
    # every stack, the scalar path's one-basis stacks too, finishes its rows in one function
    tree = ast.parse(Path(states.__file__).read_text())
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.cumsum"
    ]
    finisher = next(f for f in tree.body if getattr(f, "name", None) == "_finish_rows")
    assert lines and all(finisher.lineno <= line <= finisher.end_lineno for line in lines), lines


def test_only_the_row_builder_reads_how_a_state_was_built():
    # one Born-table builder: the scalar path samples a one-basis stack, so no
    # second builder dispatches on the state's parts or calls the row kernels;
    # besides it, only the lazy matrix build and the band reader read the parts
    watched = {"_parts", "_density_outcome_probs", "_pure_rows"}
    users = {name: set() for name in watched}
    for path in sorted(Path(states.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(top, 'name', None)}"
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "_parts":
                    users["_parts"].add(owner)
                elif isinstance(node, ast.Call) and ast.unparse(node.func) in watched:
                    users[ast.unparse(node.func)].add(owner)
    assert users == {
        "_parts": {"states._parts_density", "states._bands", "states._born_rows"},
        "_density_outcome_probs": {"states._born_rows"},
        "_pure_rows": {"states._born_rows"},
    }


# ---------------------------------------------------------------------------
# Many expectations from one gather


@given(
    n=st.integers(1, 8),
    kind=st.sampled_from(["pure", "mixed", "mixture"]),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    budget=st.sampled_from([1, 7, states.GATHER_ENTRIES]),
)
def test_expectations_equal_the_scalar_expectations_bit_for_bit(n, kind, data, seed, budget):
    rng = np.random.default_rng(seed)
    if kind == "pure":
        state = random_pure_state(n, rng)
    elif kind == "mixed":
        state = random_mixed_state(n, rng)
    else:
        state = mixture(random_pure_state(n, rng), random_mixed_state(n, rng), 0.3)
    masks = st.integers(0, (1 << n) - 1)
    coeffs = st.floats(-2, 2).filter(lambda c: abs(c) > 1e-3)
    specs = data.draw(st.lists(st.tuples(masks, masks, coeffs), min_size=1, max_size=40))
    terms = [PauliString(n, x, z, c) for x, z, c in specs]
    want = [expectation(state, t) for t in terms]
    # a small budget gathers the terms in several chunks
    with patch.object(states, "GATHER_ENTRIES", budget):
        got = expectations(state, terms)
        ppass = parity_test_exact_ppass(state, PauliSum.of(terms))
    assert np.array(got).tobytes() == np.array(want).tobytes()
    l1 = PauliSum.of(terms).l1_norm
    assert ppass == 0.5 + sum(want) / (2.0 * l1)
