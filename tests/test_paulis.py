import ast
import re
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauliverify.paulis import (
    DENSE_QUBIT_CAP,
    PauliString,
    PauliSum,
    decompose_in_pauli_basis,
    merge_pauli_terms,
    pauli_sum_dense,
    qubit_mask,
)
from pauliverify.schedules import CapExceededError

from conftest import dense_from_axes, random_hermitian


def test_axes_roundtrip():
    for axes in ["I", "XYZ", "IZXY", "YYIIX"]:
        p = PauliString.from_axes(axes, -0.25)
        assert p.axes == axes
        assert p.coeff == -0.25


# widths up to 80 run past one 64-bit machine word
axis_strings = st.integers(1, 80).flatmap(
    lambda n: st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=12)
)


@given(strings=axis_strings)
def test_axes_roundtrip_through_from_axes(strings):
    for axes in strings:
        p = PauliString.from_axes(axes)
        assert p.axes == axes
        assert PauliString.from_axes(p.axes) == p


@given(strings=axis_strings)
def test_sort_key_orders_like_axis_strings(strings):
    # I < X < Y < Z is also the ASCII order, so sorted() on the letters is the oracle
    paulis = [PauliString.from_axes(axes) for axes in strings]
    assert [p.axes for p in sorted(paulis, key=lambda p: p.sort_key)] == sorted(strings)


def test_masks_follow_leftmost_qubit_zero():
    p = PauliString.from_axes("XIZ")
    # qubit 0 (leftmost) owns the most significant bit
    assert p.xmask == 0b100
    assert p.zmask == 0b001
    assert p.y_count == 0
    assert PauliString.from_axes("IYI").y_count == 1


def test_dense_matches_kron_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        axes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        coeff = float(rng.normal())
        got = PauliString.from_axes(axes, coeff).dense()
        assert np.allclose(got, dense_from_axes(axes, coeff), atol=1e-12)


SHORT_AXES = ["".join(letters) for n in (1, 2, 3) for letters in product("IXYZ", repeat=n)]


@given(coeff=st.floats(allow_nan=False, allow_infinity=False))
def test_dense_equals_the_kron_oracle_for_every_string_up_to_a_gates_arity(coeff):
    # gate tables conjugate every Pauli string of 1 to 3 qubits through its dense form
    for axes in SHORT_AXES:
        got = PauliString.from_axes(axes, coeff).dense()
        np.testing.assert_array_equal(got, dense_from_axes(axes, coeff))


def test_sign_and_identity_flags():
    assert PauliString.from_axes("II").is_identity
    assert PauliString.from_axes("XI", -2.0).sign == -1
    with pytest.raises(ValueError):
        _ = PauliString.from_axes("XI", 0.0).sign


def test_merge_sums_like_terms_and_drops_zeros():
    terms = [
        PauliString.from_axes("XZ", 0.5),
        PauliString.from_axes("XZ", 0.25),
        PauliString.from_axes("II", 1.0),
        PauliString.from_axes("ZZ", 1e-15),
    ]
    merged = merge_pauli_terms(terms)
    assert [t.axes for t in merged] == ["II", "XZ"]
    assert merged[1].coeff == pytest.approx(0.75)


def test_merge_preserves_dense_matrix(rng):
    terms = [
        PauliString.from_axes(
            "".join(rng.choice(list("IXYZ")) for _ in range(3)), float(rng.normal())
        )
        for _ in range(12)
    ]
    merged = merge_pauli_terms(terms)
    want = sum(dense_from_axes(t.axes, t.coeff) for t in terms)
    assert np.allclose(pauli_sum_dense(merged), want, atol=1e-10)


def test_decompose_identity_matrix():
    terms = decompose_in_pauli_basis(np.eye(8, dtype=complex))
    assert len(terms) == 1
    assert terms[0].is_identity
    assert terms[0].coeff == pytest.approx(1.0)


def test_decompose_one_projector():
    # |1><1| = (I - Z)/2
    terms = decompose_in_pauli_basis(np.diag([0.0, 1.0]).astype(complex))
    by_axes = {t.axes: t.coeff for t in terms}
    assert by_axes == pytest.approx({"I": 0.5, "Z": -0.5})


def test_decompose_ccz_conjugated_x():
    # CCZ X_1 CCZ expanded by hand from X (x) |a><a| (x) Z^a:
    #   (X I I + X I Z + X Z I - X Z Z) / 2
    ccz = np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)
    g1 = ccz @ dense_from_axes("XII") @ ccz
    terms = decompose_in_pauli_basis(g1)
    by_axes = {t.axes: t.coeff for t in terms}
    assert by_axes == pytest.approx(
        {"XII": 0.5, "XIZ": 0.5, "XZI": 0.5, "XZZ": -0.5}
    )
    # independent cross-check against the projector form directly
    alt = dense_from_axes("X0I") + dense_from_axes("X1Z")
    assert np.allclose(g1, alt, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_decompose_reconstruct_roundtrip(n, rng):
    mat = random_hermitian(n, rng)
    terms = decompose_in_pauli_basis(mat)
    assert np.max(np.abs(pauli_sum_dense(terms) - mat)) < 1e-8


def test_decompose_rejects_non_hermitian_and_caps():
    with pytest.raises(ValueError):
        decompose_in_pauli_basis(np.array([[0.0, 1.0], [0.0, 0.0]]))
    big = np.eye(1 << 9, dtype=complex)
    with pytest.raises(CapExceededError):
        decompose_in_pauli_basis(big)


def test_on_qubit_places_one_letter():
    assert PauliString.on_qubit(3, 0, "X") == PauliString.from_axes("XII")
    assert PauliString.on_qubit(3, 2, "Y") == PauliString.from_axes("IIY")
    assert PauliString.on_qubit(3, 1, "I").is_identity
    for qubit in (3, -1):
        with pytest.raises(ValueError, match=f"qubit {qubit} out of range for 3 qubits"):
            PauliString.on_qubit(3, qubit, "Z")
    for axis in ("", "ZZ", "Q"):
        with pytest.raises(ValueError, match="unknown Pauli axis"):
            PauliString.on_qubit(3, 0, axis)


def test_pauli_sum_of_terms():
    terms = [
        PauliString.from_axes(a, c) for a, c in [("II", 0.5), ("XZ", -1.0), ("YY", 0.5)]
    ]
    s = PauliSum.of(terms)
    assert s.n == 2 and s.terms == tuple(terms)
    assert s.l1_norm == 2.0
    assert s.cum.tolist() == [0.25, 0.75, 1.0]
    assert s.identity_coeff == 0.5
    assert PauliSum.of(terms[1:]).identity_coeff == 0.0
    assert np.allclose(s.dense(), pauli_sum_dense(terms))


def test_pauli_sum_rejects_what_cannot_be_sampled():
    with pytest.raises(ValueError, match="at least one term"):
        PauliSum.of([])
    with pytest.raises(ValueError, match="width"):
        PauliSum.of([PauliString.from_axes("X"), PauliString.from_axes("XX")])
    with pytest.raises(ValueError, match="no weight"):
        PauliSum.of([PauliString.from_axes("X", 0.0)])
    # an l1 norm that overflows to inf would make the weights NaN; no warning precedes
    # the refusal
    with warnings.catch_warnings(), pytest.raises(ValueError, match="finite l1 norm, got inf"):
        warnings.simplefilter("error")
        PauliSum.of([PauliString.from_axes("X", 1e308), PauliString.from_axes("Z", 1e308)])
    wide = PauliSum.of([PauliString.identity(DENSE_QUBIT_CAP + 1)])
    with pytest.raises(CapExceededError):
        wide.dense()


def test_qubit_mask_sets_each_qubit_bit():
    assert qubit_mask(4, []) == 0
    assert qubit_mask(4, [0, 3]) == 0b1001
    assert qubit_mask(4, (2, 2)) == 0b0010
    assert qubit_mask(3, [1]) == PauliString.on_qubit(3, 1, "Z").zmask
    for qubit in (4, -1):
        with pytest.raises(ValueError, match=f"qubit {qubit} out of range for 4 qubits"):
            qubit_mask(4, [0, qubit])


def test_only_paulis_spells_the_qubit_bit_order():
    # ``1 << (n - 1 - q)``, the bit of qubit q, is written once: in bit_for_qubit
    src = Path(__file__).resolve().parent.parent / "src" / "pauliverify"
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.LShift)
        and re.fullmatch(r".+ - 1 - .+", ast.unparse(node.right))
    ]
    assert len(sites) == 1 and sites[0].startswith("paulis.py:"), sites


def _folded_dense(terms):
    """The sum of the terms' dense matrices, one whole matrix at a time."""
    out = terms[0].dense()
    for t in terms[1:]:
        out += t.dense()
    return out


@given(n=st.integers(1, 4), shared=st.booleans(), data=st.data())
def test_pauli_sum_dense_equals_the_fold_of_dense_terms_bit_for_bit(n, shared, data):
    # sums whose terms share one xmask are the case where a zero's sign can differ
    masks = st.integers(0, (1 << n) - 1)
    xmask = data.draw(masks)
    coeffs = st.sampled_from([1.0, -1.0, -0.5, -0.0, 0.0]) | st.floats(-2, 2)
    specs = data.draw(st.lists(st.tuples(masks, masks, coeffs), min_size=1, max_size=8))
    terms = [PauliString(n, xmask if shared else x, z, c) for x, z, c in specs]
    got, want = pauli_sum_dense(terms), _folded_dense(terms)
    assert got.view(np.float64).tobytes() == want.view(np.float64).tobytes()
    for a, b in zip(np.linalg.eigh(got), np.linalg.eigh(want)):
        assert a.tobytes() == b.tobytes()


@given(n=st.integers(1, 4), data=st.data())
def test_decompose_recovers_the_terms_of_a_pauli_sum(n, data):
    masks = st.integers(0, (1 << n) - 1)
    coeffs = st.floats(0.01, 2) | st.floats(-2, -0.01)
    specs = data.draw(
        st.lists(st.tuples(masks, masks, coeffs), min_size=1, max_size=12, unique_by=lambda s: s[:2])
    )
    terms = merge_pauli_terms(PauliString(n, x, z, c) for x, z, c in specs)
    back = decompose_in_pauli_basis(pauli_sum_dense(terms))
    assert [t.key for t in back] == [t.key for t in terms]
    assert [t.coeff for t in back] == pytest.approx([t.coeff for t in terms], abs=1e-12)
