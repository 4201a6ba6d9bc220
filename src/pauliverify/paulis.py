"""Bit-packed Pauli strings and exact Pauli-basis decompositions.

Conventions used throughout the package:

* Qubit 0 is the leftmost character of an axis string and the most
  significant bit of a basis-state index, so a mask bit for qubit ``j`` of an
  ``n``-qubit register sits at position ``n - 1 - j`` and masks combine
  directly with amplitude indices.
* A string is stored as two masks: ``xmask`` has a bit set where the axis is
  X or Y, ``zmask`` where it is Z or Y.  The action on a basis state is

      P|b> = coeff * i**y_count * (-1)**popcount(b & zmask) |b ^ xmask>

  which keeps every operation a gather plus a sign vector.

* Inside the package a Pauli operator is its ``(xmask, zmask)`` pair, the
  symplectic form of Aaronson and Gottesman (PRA 70, 052328, 2004).  Axis
  strings exist only at the edges: target files, reports, branch labels and
  one string per distinct measurement basis for the Born tables.
* Terms sort by ``PauliString.sort_key``: one octal digit ``2z + (x ^ z)``
  per qubit (I=0, X=1, Y=2, Z=3), qubit 0 first.  That is the I < X < Y < Z
  order of the axis strings, computed without rendering them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .schedules import capped_dim

AXES = "IXYZ"

# Dense simulation caps: pure amplitude vectors up to 16 qubits, density
# matrices and 4**n Pauli transforms up to 8.
PURE_QUBIT_CAP = 16
DENSE_QUBIT_CAP = 8
# `inspect` of any target writes at least one entry per qubit, and up to 16
# terms of n letters for each of a circuit's n qubits; refusing targets
# wider than 2 048 qubits keeps every report under about 67 MB.
INSPECT_QUBIT_CAP = 2048

# Coefficients at or below this magnitude are treated as exactly zero, so the
# sign of a vanishing coefficient is never taken and zero-weight terms are
# never sampled.
DROP_THRESHOLD = 1e-12

# Largest deviation from Hermiticity, in the matrix and in its Pauli
# coefficients' imaginary parts, that the Pauli transform accepts.
HERMITIAN_TOL = 1e-8

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def bit_for_qubit(n: int, qubit: int) -> int:
    """Mask bit of ``qubit`` within an ``n``-qubit basis index."""
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    return 1 << (n - 1 - qubit)


def qubit_mask(n: int, qubits: Iterable[int]) -> int:
    """Mask with the bit of every one of ``qubits`` set, within ``n`` qubits."""
    mask = 0
    for q in qubits:
        mask |= bit_for_qubit(n, q)
    return mask


# octal digit 2z + (x ^ z) of a qubit -> its axis letter
_DIGIT_AXES = str.maketrans("0123", AXES)
_X_DIGITS = str.maketrans(AXES, "0110")
_Z_DIGITS = str.maketrans(AXES, "0011")


def parity_bits(values: np.ndarray, mask: int) -> np.ndarray:
    """Parity of ``popcount(values & mask)`` for an integer array."""
    return (np.bitwise_count(np.bitwise_and(values, mask)) & 1).astype(np.int64)


def sign_vector(dim: int, zmask: int) -> np.ndarray:
    """(-1)**popcount(b & zmask) over all basis indices b."""
    idx = np.arange(dim, dtype=np.int64)
    return 1 - 2 * parity_bits(idx, zmask)


@dataclass(frozen=True)
class PauliString:
    """A real multiple of an n-qubit tensor product of I, X, Y, Z."""

    n: int
    xmask: int = 0
    zmask: int = 0
    coeff: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("PauliString needs at least one qubit")
        limit = 1 << self.n
        if not (0 <= self.xmask < limit and 0 <= self.zmask < limit):
            raise ValueError("mask bits outside the register width")

    @classmethod
    def from_axes(cls, axes: str | Sequence[str], coeff: float = 1.0) -> "PauliString":
        axes = "".join(axes)
        unknown = axes.translate(dict.fromkeys(map(ord, AXES)))
        if unknown:
            raise ValueError(f"unknown Pauli axis {unknown[0]!r}")
        n = len(axes)
        xmask = int("0" + axes.translate(_X_DIGITS), 2)
        zmask = int("0" + axes.translate(_Z_DIGITS), 2)
        return cls(n, xmask, zmask, coeff)

    @classmethod
    def identity(cls, n: int, coeff: float = 1.0) -> "PauliString":
        return cls(n, 0, 0, coeff)

    @classmethod
    def on_qubit(cls, n: int, qubit: int, axis: str) -> "PauliString":
        """``axis`` on ``qubit`` of an ``n``-qubit register, I everywhere else."""
        if len(axis) != 1 or axis not in AXES:
            raise ValueError(f"unknown Pauli axis {axis!r}")
        bit = bit_for_qubit(n, qubit)
        return cls(n, bit if axis in "XY" else 0, bit if axis in "ZY" else 0)

    @property
    def sort_key(self) -> int:
        """The term order: one octal digit 2z + (x ^ z) per qubit, qubit 0 first."""
        # reading a mask's binary digits as octal gives each qubit its own digit
        z, x_xor_z = (int(format(m, "b"), 8) for m in (self.zmask, self.xmask ^ self.zmask))
        return 2 * z + x_xor_z

    @property
    def axes(self) -> str:
        return format(self.sort_key, f"0{self.n}o").translate(_DIGIT_AXES)

    @property
    def y_count(self) -> int:
        return (self.xmask & self.zmask).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.xmask == 0 and self.zmask == 0

    @property
    def key(self) -> tuple[int, int]:
        return (self.xmask, self.zmask)

    @property
    def sign(self) -> int:
        if abs(self.coeff) <= DROP_THRESHOLD:
            raise ValueError("sign of a vanishing coefficient is undefined")
        return 1 if self.coeff > 0 else -1

    def with_coeff(self, coeff: float) -> "PauliString":
        return replace(self, coeff=coeff)

    def dense(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, coefficient included."""
        return pauli_sum_dense([self])


def merge_pauli_terms(terms: Iterable[PauliString]) -> list[PauliString]:
    """Sum like strings, drop coefficients up to DROP_THRESHOLD, sort by sort_key.

    The mask key orders terms as their axis strings would sort in
    I < X < Y < Z, without rendering them.  The identity string sorts first,
    which keeps sampling indices stable across runs for any fixed operator.
    """
    acc: dict[tuple[int, int], float] = {}
    n = None
    for t in terms:
        if n is None:
            n = t.n
        elif t.n != n:
            raise ValueError("cannot merge Pauli strings of different widths")
        acc[t.key] = acc.get(t.key, 0.0) + t.coeff
    if n is None:
        raise ValueError("no terms to merge")
    for (x, z), c in acc.items():
        if math.isnan(c):  # inf - inf; abs(c) > DROP_THRESHOLD would drop it as if 0
            raise ValueError(f"the coefficients of {PauliString(n, x, z).axes} sum to nan")
    kept = [
        PauliString(n, x, z, c) for (x, z), c in acc.items() if abs(c) > DROP_THRESHOLD
    ]
    return sorted(kept, key=attrgetter("sort_key"))


# Pauli-transform tensor: _PAULI_BASIS[p] is the matrix of axis AXES[p].
_PAULI_BASIS = np.stack([PAULI_MATRICES[a] for a in AXES])

def decompose_in_pauli_basis(matrix: np.ndarray) -> list[PauliString]:
    """All Pauli-basis coefficients Tr[M tau] / 2^n of a Hermitian matrix.

    Returns one PauliString per coefficient above DROP_THRESHOLD, ordered
    with the identity first and then lexicographically in I < X < Y < Z,
    which is the sort_key order.  The masks come straight from the
    coefficient tensor's indices; no axis string is built.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    if capped_dim(n, DENSE_QUBIT_CAP, "Pauli transform") != dim:
        raise ValueError("matrix dimension is not a power of two")
    if np.max(np.abs(matrix - matrix.conj().T)) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")

    # Contract each qubit's (row, column) index pair with the Pauli tensor;
    # after j steps the axes are (p_0..p_{j-1}, a_j..a_{n-1}, b_j..b_{n-1}).
    arr = matrix.reshape([2] * (2 * n))
    for j in range(n):
        arr = np.tensordot(_PAULI_BASIS, arr, axes=([2, 1], [j, n]))
        arr = np.moveaxis(arr, 0, j)
    coeffs = arr / dim
    if np.max(np.abs(coeffs.imag)) > HERMITIAN_TOL:
        raise ValueError("Pauli coefficients acquired an imaginary part")
    coeffs = coeffs.real

    # a qubit's index into AXES is its sort_key digit 2z + (x ^ z)
    kept = np.abs(coeffs) > DROP_THRESHOLD
    digits = np.argwhere(kept)
    weights = np.array([bit_for_qubit(n, j) for j in range(n)], dtype=np.int64)
    zmasks = (digits >> 1) @ weights
    xmasks = ((digits ^ (digits >> 1)) & 1) @ weights
    return [
        PauliString(n, x, z, c)
        for x, z, c in zip(xmasks.tolist(), zmasks.tolist(), coeffs[kept].tolist())
    ]


def pauli_sum_dense(terms: Iterable[PauliString]) -> np.ndarray:
    """Dense matrix of a sum of Pauli strings.

    Each term adds its one entry per column, at rows ``idx ^ xmask``, in term
    order, into one matrix; one term alone gives ``PauliString.dense``.  This
    equals the sum of the terms' dense matrices bit for bit.  That sum also
    adds the zeros of each term, which clears the sign of a -0.0 part
    wherever some term has no entry; when every term shares one xmask no zero
    is added, so the first term's entries are stored, not added to +0.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("no terms")
    dim = capped_dim(terms[0].n, DENSE_QUBIT_CAP, "dense Pauli matrix")
    idx = np.arange(dim, dtype=np.int64)
    out = np.zeros((dim, dim), dtype=complex)
    store_first = all(t.xmask == terms[0].xmask for t in terms)
    for i, t in enumerate(terms):
        entries = t.coeff * (1j) ** t.y_count * sign_vector(dim, t.zmask)
        if i == 0 and store_first:
            out[idx ^ t.xmask, idx] = entries
        else:
            out[idx ^ t.xmask, idx] += entries
    return out


@dataclass(frozen=True)
class PauliSum:
    """A real sum of Pauli strings, sampled term by term with probability |c|/l1.

    This is the operator behind both parity tests: the rescaled Hamiltonian of
    the ground protocol and each stabilizer U X_i U^dag of the circuit
    protocol.  Build it with ``PauliSum.of``.
    """

    n: int
    terms: tuple[PauliString, ...]
    l1_norm: float  # sum of |coefficient| over the terms
    cum: np.ndarray  # cumulative sampling weights |c|/l1, in term order

    @classmethod
    def of(cls, terms: Iterable[PauliString], **fields) -> "PauliSum":
        """The sum of ``terms`` with its l1 norm and sampling CDF.

        ``fields`` are the extra fields of a subclass.
        """
        terms = tuple(terms)
        if not terms:
            raise ValueError("a Pauli sum needs at least one term")
        n = terms[0].n
        if any(t.n != n for t in terms):
            raise ValueError("term width does not match the register")
        coeffs = np.abs(np.array([t.coeff for t in terms]))
        with np.errstate(over="ignore"):  # an overflow is refused below
            l1 = float(np.sum(coeffs))
        if not l1 < math.inf:
            raise ValueError(f"a Pauli sum needs a finite l1 norm, got {l1}")
        if not l1 > 0.0:
            raise ValueError("a Pauli sum with no weight cannot be sampled")
        weights = coeffs / l1
        # written so that a NaN sum fails it
        if not abs(float(np.sum(weights)) - 1.0) <= 1e-12:
            raise ValueError("sampling weights do not sum to 1")
        return cls(n=n, terms=terms, l1_norm=l1, cum=np.cumsum(weights), **fields)

    @property
    def identity_coeff(self) -> float:
        """Coefficient of the identity string, 0 when the sum has none."""
        return next((t.coeff for t in self.terms if t.is_identity), 0.0)

    def dense(self) -> np.ndarray:
        return pauli_sum_dense(self.terms)
