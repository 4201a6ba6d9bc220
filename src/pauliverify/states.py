"""Dense pure/mixed states, Pauli expectations, and Born sampling.

States are immutable after construction.  ``pure_state`` and ``mixed_state``
validate what a caller supplies; states built from validated ones (a pure
state's density matrix, the maximally mixed state, a reduced density matrix,
a convex mixture) are Hermitian, unit-trace and PSD by construction and skip
the eigenvalue check.  The maximally mixed state and a convex mixture are
held as their parts, with no matrix.  Their ``data`` is built on first read,
by the dense arithmetic (``_parts_density``), and kept read-only.  Born
tables and ``expectations`` read them from their parts instead: the
tables as the same mixture of the parts' tables, the entries ``rho[i, i ^
x]`` by the matrix's own elementwise steps (``_bands``), so those entries
are the matrix's bits and no 2**n x 2**n array is built.

``expectations`` is the one Pauli-expectation reader: each term is summed
over all basis indices or over its own row of them (those a projector keeps).

Born tables (outcome distributions over the measured qubits) have one
builder, ``_table_stack``: the tables of a tuple of bases are one stack,
memoized on the state under that tuple, so repeated sampling of the same
state in the same bases is cheap.  The scalar path (``measure_in_bases``,
``outcome_distribution``) reads its basis's one-basis stack.  How
``_born_rows`` builds a stack's raw rows follows from how the state was built:

* a pure state's distinct bases are walked in the sorted order of their
  rotated letters ((qubit, letter), ...), keeping only the current path of
  rotated tensors, one per rotated qubit, so a prefix shared with the
  previous basis is not rotated again.  Each rotation is the same call on
  the same input whatever the other bases are, so a row is the row of the
  basis's own one-basis stack bit for bit;
* the maximally mixed state's rows are uniform, 2**-m over m measured
  qubits, which finishing leaves as is;
* a convex mixture's rows are the same mixture of its two components'
  finished rows, each stack memoized on its part, in one elementwise pass,
  because Born probabilities are linear in rho;
* any other density matrix (a caller-supplied one, a random mixed state, a
  reduced density matrix) is contracted qubit by qubit: each qubit's row and
  column axes are merged into its Born weights (traced out for I, the
  diagonal for Z, sum_ab u[s,a] conj(u[s,b]) rho[a,b] for X and Y), so the
  tensor halves at every step and one row costs about two passes over the
  4**n entries whatever the letters are.

A rotation, like a gate of a circuit, applies its matrix to some axes of the
amplitude tensor as ``np.dot`` on the transposed copy that ``np.tensordot``
would make, then transposes back as ``np.moveaxis`` would.  Both orders come
from a cache keyed by (ndim, axes), so a call pays for neither function's
argument handling, and the bits are theirs.

``_finish_rows`` then clips every row at 0, normalizes it and sums it into
its CDF.  Rows with the same number of measured qubits are finished together
as one contiguous 2-D block, whose row-wise sum and cumsum give the same bits
as the 1-D calls on each row alone, so a row finished in a block of many is
the row finished alone.  Where each row lies, which qubits it measures and
which rows are finished together is a ``StackLayout``, which a test works out
once for all the states it samples; a stack carries its layout.

The stack lays the CDFs out as ``stack_segments`` does, so one vectorized
search serves a whole run.  The search is branch-free: a position moves by
its step times the comparison, not through ``np.where``, which mispredicts
on the random mask that the comparisons of random variates make.
The adaptive test reads only a value per outcome (its pass flag, with its
branch bits when trials are recorded), so it searches ``sample_stacked_values``'
intervals of that value over the outcomes a search can draw, built from the
finished stack alone, by the same comparisons on the same doubles.  The
parity test's value, the outcome parity, flips between most neighbouring
outcomes, so it searches the outcomes themselves.

A state's memo holds these stacks and interval tables.  Every entry goes
through ``_remember``: a memo that would grow past MEMO_LIMIT entries starts
over, so long-lived states stay bounded.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .paulis import (
    DENSE_QUBIT_CAP,
    PURE_QUBIT_CAP,
    PauliString,
    parity_bits,
    sign_vector,
)
from .schedules import capped_dim

PURE_NORM_TOL = 1e-10
TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
S_DAGGER = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)
# Rotation that maps the measured eigenbasis onto the computational basis.
BASIS_ROTATIONS = {"X": HADAMARD, "Y": HADAMARD @ S_DAGGER, "Z": None, "I": None}

# The most stacks and interval tables one state's memo holds.
MEMO_LIMIT = 8192


@dataclass(frozen=True, eq=False)
class DenseState:
    """An n-qubit state: amplitude vector (pure) or density matrix (mixed).

    A state held as parts (a convex mixture, the maximally mixed state) is
    built with no array; ``data`` builds its density matrix on first read
    and keeps it, read-only.
    """

    n: int
    _data: np.ndarray | None
    _cache: dict = field(default_factory=dict, repr=False)
    # How a density matrix was built, when its entries follow from that:
    # ((weight, component), (weight, component)) for a convex mixture and ()
    # for the maximally mixed state.  None means it is its ``_data``.
    _parts: tuple | None = field(default=None, repr=False)

    @property
    def data(self) -> np.ndarray:
        """The amplitude vector or the density matrix; read-only."""
        if self._data is None:
            rho = _parts_density(self)
            rho.flags.writeable = False
            object.__setattr__(self, "_data", rho)
        return self._data

    @property
    def is_pure(self) -> bool:
        # a state held as parts is mixed, and its matrix may not be built yet
        return self._data is not None and self._data.ndim == 1

    @property
    def dim(self) -> int:
        return 1 << self.n


def pure_state(amplitudes, n: int | None = None) -> DenseState:
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if n is None:
        n = amps.size.bit_length() - 1
    if capped_dim(n, PURE_QUBIT_CAP, "pure state") != amps.size:
        raise ValueError("amplitude count is not 2**n")
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= PURE_NORM_TOL:  # NaN fails it too
        raise ValueError(f"state norm {norm} is not 1 within {PURE_NORM_TOL}")
    amps = amps.copy()
    amps.flags.writeable = False
    return DenseState(n, amps)


def mixed_state(rho, n: int | None = None) -> DenseState:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if n is None:
        n = rho.shape[0].bit_length() - 1
    if capped_dim(n, DENSE_QUBIT_CAP, "density matrix") != rho.shape[0]:
        raise ValueError("matrix dimension is not 2**n")
    # each check is written so that NaN fails it
    if not abs(np.trace(rho) - 1.0) <= TRACE_TOL:
        raise ValueError("trace is not 1 within tolerance")
    if not np.max(np.abs(rho - rho.conj().T)) <= HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if not np.min(np.linalg.eigvalsh(rho)) >= EIGENVALUE_FLOOR:
        raise ValueError("density matrix has a negative eigenvalue")
    return _density(rho.copy(), n)


def _density(rho: np.ndarray, n: int) -> DenseState:
    """Wrap a density matrix that is valid by construction, without re-checking it.

    Callers sized ``rho`` through ``capped_dim``; the cap is not checked again.
    """
    rho.flags.writeable = False
    return DenseState(n, rho)


def plus_state(n: int) -> DenseState:
    dim = capped_dim(n, PURE_QUBIT_CAP, "pure state")
    return pure_state(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex), n)


def computational_state(n: int, index: int) -> DenseState:
    amps = np.zeros(capped_dim(n, PURE_QUBIT_CAP, "pure state"), dtype=complex)
    amps[index] = 1.0
    return pure_state(amps, n)


def maximally_mixed(n: int) -> DenseState:
    """I/dim, held as no parts; ``data`` has the bits of ``np.eye(dim, dtype=complex) / dim``."""
    capped_dim(n, DENSE_QUBIT_CAP, "density matrix")
    return DenseState(n, None, _parts=())


def random_pure_state(n: int, rng: np.random.Generator) -> DenseState:
    dim = capped_dim(n, PURE_QUBIT_CAP, "pure state")
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return pure_state(amps / np.linalg.norm(amps), n)


def random_mixed_state(
    n: int, rng: np.random.Generator, rank: int | None = None
) -> DenseState:
    dim = capped_dim(n, DENSE_QUBIT_CAP, "density matrix")
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return mixed_state(rho / np.trace(rho).real, n)


def to_density(state: DenseState) -> DenseState:
    if not state.is_pure:
        return state
    capped_dim(state.n, DENSE_QUBIT_CAP, "density matrix")
    return _density(np.outer(state.data, state.data.conj()), state.n)


def mixture(state: DenseState, other: DenseState, weight: float) -> DenseState:
    """(1 - weight) * state + weight * other, held as its two parts.

    Both states must be valid (built by the constructors above), so the
    convex mixture is one too and is not re-checked.  The density-matrix cap
    is checked here, before anything is built; the matrix itself is built
    only when ``data`` is first read (``_parts_density``).
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("the mixture weight must lie in [0, 1]")
    if other.n != state.n:
        raise ValueError(f"cannot mix states on {state.n} and {other.n} qubits")
    capped_dim(state.n, DENSE_QUBIT_CAP, "density matrix")
    return DenseState(state.n, None, _parts=((1.0 - weight, state), (weight, other)))


def _parts_density(state: DenseState) -> np.ndarray:
    """The density matrix of a state held as parts, in one fresh array.

    The maximally mixed state is zeros with 1/dim on the diagonal, the bits
    of ``np.eye(dim, dtype=complex) / dim``.  A mixture is its first part
    scaled, plus its second part scaled, in place.  A maximally mixed second
    part adds weight/dim to the diagonal instead, which is the bits of adding
    ``weight * other.data``: off the diagonal that array holds +0.0, whose
    only effect is to turn -0.0 into +0.0, as ``+= 0.0`` does, and on the
    diagonal ``weight * 2**-n`` is ``weight / dim``, one rounding of the same
    value.
    """
    dim = state.dim
    if state._parts == ():
        rho = np.zeros((dim, dim), dtype=complex)
        rho.reshape(-1)[:: dim + 1] = 1.0 / dim
        return rho
    (w0, s0), (w1, s1) = state._parts
    rho = _scaled_density(s0, w0)
    if s1._parts == ():
        rho += 0.0
        rho.reshape(-1)[:: dim + 1] += w1 / dim
    else:
        rho += _scaled_density(s1, w1)
    return rho


def _scaled_density(state: DenseState, scale: float) -> np.ndarray:
    """``scale * to_density(state).data``, bit for bit, built in one fresh array."""
    if not state.is_pure:
        return np.multiply(scale, state.data)
    rho = np.outer(state.data, state.data.conj())
    rho *= scale
    return rho


def _bands(state: DenseState, rows: np.ndarray, x) -> np.ndarray:
    """``state.data[rows, rows ^ x]`` of a density matrix, bit for bit; ``rows``, ``x`` broadcast.

    A state held as parts reads these entries from its parts, entry by
    entry by ``_parts_density``'s steps: a pure part's ``psi[i] *
    conj(psi)[i ^ x]`` (``np.outer``'s elementwise product) scaled in place,
    a mixed part's entries scaled, ``+= 0.0`` and ``+= weight/dim`` where
    ``x == 0`` for a maximally mixed second part, and 1/dim where ``x == 0``
    for the maximally mixed state itself.  So it builds no 2**n x 2**n array.
    """
    if state._parts is None:
        return state.data[rows, rows ^ x]
    if state._parts == ():
        band = np.zeros(np.broadcast_shapes(np.shape(rows), np.shape(x)), dtype=complex)
        np.copyto(band, 1.0 / state.dim, where=x == 0)
        return band
    (w0, s0), (w1, s1) = state._parts
    band = _scaled_band(s0, w0, rows, x)
    if s1._parts == ():
        band += 0.0
        np.add(band, w1 / state.dim, out=band, where=x == 0)
    else:
        band += _scaled_band(s1, w1, rows, x)
    return band


def _scaled_band(state: DenseState, scale: float, rows: np.ndarray, x) -> np.ndarray:
    """``_scaled_density(state, scale)[rows, rows ^ x]``, bit for bit, by the same steps."""
    if not state.is_pure:
        band = _bands(state, rows, x)
        return np.multiply(scale, band, out=band)
    band = state.data[rows] * state.data.conj()[rows ^ x]
    band *= scale
    return band


def _check_width(state: DenseState, n: int):
    if state.n != n:
        raise ValueError(f"state is on {state.n} qubits, operator on {n}")


def apply_pauli(state: DenseState, p: PauliString) -> DenseState:
    """coeff * (P |psi>) for pure states; P rho P^dag (coeff-free) for mixed.

    The pure result is deliberately not re-validated: the coefficient scales
    the norm.  Mixed states are conjugated, where the coefficient would only
    contribute |coeff|^2, so it is ignored.
    """
    _check_width(state, p.n)
    idx = np.arange(state.dim, dtype=np.int64)
    perm = idx ^ p.xmask
    signs = sign_vector(state.dim, p.zmask)
    if state.is_pure:
        phase = p.coeff * (1j) ** p.y_count
        out = phase * (signs * state.data)[perm]
        return DenseState(state.n, out)
    out = state.data[np.ix_(perm, perm)] * np.outer(signs[perm], signs[perm])
    return DenseState(state.n, out)


def expectation(state: DenseState, p: PauliString) -> float:
    """coeff * Tr[rho tau]: ``expectations`` of the one term."""
    return expectations(state, [p])[0]


# The most entries one gather of ``expectations`` holds; terms are gathered
# in chunks under it, so a wide pure state is gathered term by term.
GATHER_ENTRIES = 1 << 16


def expectations(state: DenseState, terms, rows=None) -> list[float]:
    """coeff * sum_r (-1)**|r & z| rho[r, r ^ x] for each term, r over the term's row of ``rows``.

    ``rows`` is a (terms, m) int64 array of ascending basis indices, one row
    per term; ``None`` is all 2**n indices, which gives Tr[rho tau].  A row
    that keeps the indices with some bits fixed, for a term whose X/Y letters
    avoid those bits, gives Tr[rho P tau], P the projector onto those bits.
    A pure state's entries are ``conj(psi[r ^ x]) * psi[r]``, a density
    matrix's come from ``_bands``.  A chunk of terms under GATHER_ENTRIES is
    gathered as one (terms, m) array by the same elementwise steps; summing
    a C-contiguous row along its axis makes the same pairwise additions as
    the 1-d sum of that row alone, so each value has the bits of its own
    1-d sum over its own row, in any chunk.
    """
    terms = list(terms)
    for t in terms:
        _check_width(state, t.n)
    if rows is not None and np.shape(rows)[:1] != (len(terms),):
        raise ValueError(f"rows must hold one row per term, got shape {np.shape(rows)}")
    every = np.arange(state.dim, dtype=np.int64)
    step = max(1, GATHER_ENTRIES // (state.dim if rows is None else rows.shape[1]))
    values = []
    for lo in range(0, len(terms), step):
        chunk = terms[lo : lo + step]
        idx = every if rows is None else rows[lo : lo + step]
        xmasks, zmasks = np.array([t.key for t in chunk], dtype=np.int64).T[:, :, None]
        signs = 1 - 2 * parity_bits(idx, zmasks)
        if state.is_pure:
            sums = np.sum(np.conj(state.data[idx ^ xmasks]) * signs * state.data[idx], axis=1)
        else:
            sums = np.sum(signs * _bands(state, idx, xmasks), axis=1)
        values += [float((t.coeff * (1j) ** t.y_count * v).real) for t, v in zip(chunk, sums)]
    return values


def _remember(state: DenseState, key, value):
    """Memoize ``value`` on ``state`` under ``key``; a full memo starts over first."""
    if len(state._cache) >= MEMO_LIMIT:
        state._cache.clear()
    state._cache[key] = value
    return value


def overlap(state: DenseState, reference: DenseState) -> float:
    """<ref|rho|ref> for a pure reference state."""
    if not reference.is_pure:
        raise ValueError("reference must be pure")
    _check_width(state, reference.n)
    if state.is_pure:
        return float(abs(np.vdot(reference.data, state.data)) ** 2)
    return float(np.real(reference.data.conj() @ state.data @ reference.data))


def projector_overlap(state: DenseState, projector: np.ndarray) -> float:
    """Tr[Pi rho] for a dense projector, or <A> for any dense Hermitian A."""
    if state.is_pure:
        return float(np.real(np.vdot(state.data, projector @ state.data)))
    return float(np.real(np.trace(projector @ state.data)))


def partial_trace(state: DenseState, keep: tuple[int, ...]) -> DenseState:
    """Reduced density matrix over ``keep`` (given in ascending qubit order)."""
    if not state.is_pure:
        raise ValueError("partial_trace is implemented for pure joint states")
    keep = tuple(keep)
    for q in keep:
        if not 0 <= q < state.n:
            raise ValueError(f"partial_trace: qubit {q} is not one of the {state.n} qubits")
    # the reduced matrix follows the order of keep, so another order would swap qubits
    if list(keep) != sorted(set(keep)):
        raise ValueError(f"partial_trace keeps distinct qubits in ascending order, got {keep}")
    drop = [q for q in range(state.n) if q not in keep]
    psi = state.data.reshape([2] * state.n)
    psi = np.transpose(psi, list(keep) + drop)
    mat = psi.reshape(capped_dim(len(keep), DENSE_QUBIT_CAP, "density matrix"), -1)
    return _density(mat @ mat.conj().T, len(keep))


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-qubit +-1 outcomes for one destructive measurement round.

    Qubits measured in the I "basis" are not touched and carry a forced +1.
    """

    outcomes: tuple[int, ...]


def _rotated_letters(bases: str) -> tuple[tuple[int, str], ...]:
    """(qubit, letter) of every X or Y letter, in qubit order."""
    return tuple((j, b) for j, b in enumerate(bases) if BASIS_ROTATIONS[b] is not None)


@cache
def _axis_orders(ndim: int, axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(front, back): the order that brings ``axes`` to the front, and its inverse.

    ``axes`` keep their own order at the front.  These are the orders
    np.tensordot and np.moveaxis work out on every call.
    Every caller's tensor has at most PURE_QUBIT_CAP axes, so the cache is bounded.
    """
    front = (*axes, *(k for k in range(ndim) if k not in axes))
    return front, tuple(sorted(range(ndim), key=front.__getitem__))


def apply_on_axes(matrix: np.ndarray, psi: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """A 2**a x 2**a ``matrix`` applied to the ``a`` qubit ``axes`` of the tensor ``psi``.

    These are tensordot's own steps (the same transposed copy and the same
    ``dot``), followed by moveaxis's transpose, with both orders cached, so
    the bits are those of ``np.moveaxis(np.tensordot(m, psi, axes=(in, axes)),
    range(a), axes)`` with ``m`` the matrix as a (2,) * 2a tensor.
    """
    front, back = _axis_orders(psi.ndim, axes)
    moved = psi.transpose(front)
    out = np.dot(matrix, moved.reshape(matrix.shape[1], -1))
    return out.reshape(moved.shape).transpose(back)


def _rotate(psi: np.ndarray, j: int, letter: str) -> np.ndarray:
    """np.tensordot(rotation, psi, axes=(1, j)) with axis j put back in place, bit for bit."""
    return apply_on_axes(BASIS_ROTATIONS[letter], psi, (j,))


def rotate_to_computational(psi: np.ndarray, bases: str) -> np.ndarray:
    """Amplitude tensor (one axis per qubit) rotated so every letter reads as Z."""
    for j, b in _rotated_letters(bases):
        psi = _rotate(psi, j, b)
    return psi


def _measured_qubits(n: int, bases: str) -> tuple[int, ...]:
    if len(bases) != n:
        raise ValueError("basis string length must equal the qubit count")
    for b in bases:
        if b not in "IXYZ":
            raise ValueError(f"unknown measurement basis {b!r}")
    return tuple(j for j, b in enumerate(bases) if b != "I")


# Coherence weights of the rotated letters.  Outcome s of a qubit measured
# in the basis u reads sum_ab u[s,a] conj(u[s,b]) rho[a,b] off that qubit's
# 2x2 block.  X and Y are unbiased to Z (|u[s,a]|^2 = 1/2) and u is unitary,
# so outcome 0 reads (rho00 + rho11)/2 + c and outcome 1 reads
# (rho00 + rho11)/2 - c, with c = w01 rho01 + w10 rho10 from these weights.
_COHERENCE_WEIGHTS = {
    b: (u[0, 0] * u[0, 1].conj(), u[0, 1] * u[0, 0].conj())
    for b, u in BASIS_ROTATIONS.items()
    if u is not None
}


def _density_outcome_probs(rho: np.ndarray, bases: str) -> np.ndarray:
    """diag(U rho U^dag) marginalized onto the measured qubits, U = (x) rotations.

    Qubits are contracted in order 0..n-1.  The tensor is (rows, cols,
    outcomes); qubit j's row and column axes are merged (traced out for I,
    the diagonal for Z, the weights above for X and Y), and a measured
    qubit's outcome bit is appended as the least significant bit, so the
    first measured qubit ends up the most significant.
    """
    dim = rho.shape[0]
    t = rho.reshape(dim, dim, 1)
    for b in bases:
        r = t.shape[0] // 2
        t = t.reshape(2, r, 2, r, -1)
        if b == "I":
            t = t[0, :, 0] + t[1, :, 1]
            continue
        out = np.empty((r, r, t.shape[-1], 2), dtype=complex)
        if b == "Z":
            out[..., 0] = t[0, :, 0]
            out[..., 1] = t[1, :, 1]
        else:
            w01, w10 = _COHERENCE_WEIGHTS[b]
            diag = t[0, :, 0] + t[1, :, 1]
            diag *= 0.5
            coherence = w01 * t[0, :, 1]
            coherence += w10 * t[1, :, 0]
            np.add(diag, coherence, out=out[..., 0])
            np.subtract(diag, coherence, out=out[..., 1])
        t = out.reshape(r, r, -1)
    return t.reshape(-1).real


def _finish_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw Born rows of one length -> (probs, CDFs, last nonzero index per row).

    ``rows`` is 2-D, one table per row.  Each row is clipped at 0, divided by
    its sum and summed into its CDF.  Clipping writes a new contiguous block,
    on which the row-wise sum and cumsum give the bits of the 1-D calls on
    each row alone.
    """
    rows = np.clip(rows, 0.0, None)
    probs = rows / rows.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    last = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)
    return probs, cum, last


def stack_segments(segments) -> tuple[np.ndarray, int]:
    """Sorted 1-d arrays laid end to end, each padded with +inf to one width.

    The width is the smallest power of two that holds the longest segment;
    segment i starts at ``i * width``.  Returns (flat array, width).
    """
    width = 1 << (max(len(seg) for seg in segments) - 1).bit_length()
    flat = np.full((len(segments), width), np.inf)
    for row, seg in zip(flat, segments):
        row[: len(seg)] = seg
    return flat.reshape(-1), width


def search_segments(
    flat: np.ndarray, width: int, segment: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """For each t, how many entries of segment ``segment[t]`` of ``flat`` are <= u[t].

    ``flat`` and ``width`` come from stack_segments.  Every segment is
    nondecreasing, so this is the index that
    ``np.searchsorted(segment, u[t], side="right")`` returns; it is found by
    the same ``<=`` comparisons, ties included, and the +inf padding is never
    counted.  All searches run together, one power-of-two step at a time.
    The search is branch-free: each step adds ``step`` times the comparison
    to the position, because the comparisons of random variates are true
    about half the time, and a select such as ``np.where`` mispredicts on
    about every other element.
    """
    start = segment * width
    counted = start.copy()  # the first entry not known to be <= u
    step = width >> 1
    while step:
        # flat[step - 1:].take(counted) is flat[counted + step - 1] without the sum
        counted += step * (flat[step - 1 :].take(counted) <= u)
        step >>= 1
    # at most width - 1 entries are counted so far; the next one is still in
    # the segment, and it is <= u only if every entry before it was too
    counted += flat.take(counted) <= u
    counted -= start
    return counted


@dataclass(frozen=True, eq=False)
class StackLayout:
    """Where the Born tables of a tuple of bases lie in a stack; a test builds it once.

    Every basis is checked once, in ``StackLayout.of``.  Basis i's row lies
    at ``segments[i]`` among rows laid end to end (2**m entries for m
    measured qubits), and its CDF in row i of width ``width``.  ``blocks``
    holds, per measured count, the bases with that count and the flat
    entries of their rows, which are finished as one block.
    """

    n: int
    bases: tuple[str, ...]
    measured: tuple[tuple[int, ...], ...]
    segments: tuple[slice, ...]
    width: int
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]  # (bases, row entries) per count

    @classmethod
    def of(cls, n: int, bases) -> StackLayout:
        bases = tuple(bases)
        measured = tuple(_measured_qubits(n, b) for b in bases)
        ends = itertools.accumulate(1 << len(m) for m in measured)
        segments = tuple(slice(end - (1 << len(m)), end) for end, m in zip(ends, measured))
        counts = np.array([len(m) for m in measured])
        starts = np.array([segment.start for segment in segments])
        blocks = []
        for m in sorted(set(counts.tolist())):
            at = np.flatnonzero(counts == m)
            blocks.append((at, starts[at, None] + np.arange(1 << m)))
        return cls(n, bases, measured, segments, 1 << int(counts.max()), tuple(blocks))


@dataclass(frozen=True)
class _TableStack:
    """The Born tables of a layout's bases on one state."""

    layout: StackLayout
    probs: np.ndarray  # normalized rows laid end to end, at the layout's segments
    cum: np.ndarray  # CDFs laid out as stack_segments lays them out, rows of layout.width
    last_sampleable: np.ndarray  # per basis


def _pure_rows(state: DenseState, layout: StackLayout, rows: np.ndarray):
    """Write the squared rotated amplitudes of each basis, marginalized, into ``rows``.

    Bases that rotate the same letters share one rotated tensor, and the
    sorted walk keeps one tensor per rotated qubit of the current path, so a
    shared prefix is rotated once.  A sum over no axes copies the tensor.
    """
    by_letters: dict[tuple, list[int]] = {}
    for i, b in enumerate(layout.bases):
        by_letters.setdefault(_rotated_letters(b), []).append(i)
    path: list[tuple[int, str]] = []
    tensors = [state.data.reshape([2] * state.n)]
    for letters in sorted(by_letters):
        shared = 0
        while shared < min(len(path), len(letters)) and path[shared] == letters[shared]:
            shared += 1
        del path[shared:], tensors[shared + 1 :]
        for j, b in letters[shared:]:
            tensors.append(_rotate(tensors[-1], j, b))
            path.append((j, b))
        full = np.abs(tensors[-1]) ** 2
        for i in by_letters[letters]:
            unmeasured = tuple(j for j in range(state.n) if j not in layout.measured[i])
            rows[layout.segments[i]] = full.sum(axis=unmeasured).reshape(-1)


def _born_rows(state: DenseState, layout: StackLayout) -> np.ndarray:
    """Raw Born rows of the layout's bases on ``state``, laid end to end at its segments.

    The one place, besides ``mixture``, that reads how a state was built: a
    mixture mixes its parts' finished rows, the maximally mixed state's rows
    are uniform, and a pure state or any other density matrix is built from
    its data.
    """
    if state._parts:
        (w0, s0), (w1, s1) = state._parts
        rows = w0 * _table_stack(s0, layout).probs
        rows += w1 * _table_stack(s1, layout).probs
        return rows
    if state._parts == ():
        return np.concatenate([np.full(1 << len(m), 2.0 ** -len(m)) for m in layout.measured])
    rows = np.empty(layout.segments[-1].stop)
    if state.is_pure:
        _pure_rows(state, layout, rows)
    else:
        for segment, b in zip(layout.segments, layout.bases):
            rows[segment] = _density_outcome_probs(state.data, b)
    return rows


def _table_stack(state: DenseState, layout: StackLayout) -> _TableStack:
    cached = state._cache.get(layout.bases)
    if cached is not None:
        return cached
    _check_width(state, layout.n)
    rows = _born_rows(state, layout)
    probs = np.empty_like(rows)
    cum = np.full((len(layout.bases), layout.width), np.inf)
    last = np.empty(len(layout.bases), dtype=np.int64)
    # rows with the same measured count are finished as one block
    for at, block in layout.blocks:
        probs[block], cum[at, : block.shape[1]], last[at] = _finish_rows(rows[block])
    return _remember(state, layout.bases, _TableStack(layout, probs, cum.reshape(-1), last))


def _basis_table(state: DenseState, bases: str) -> _TableStack:
    """The one-basis stack of ``bases`` on ``state``, the scalar path's table.

    The memo is read under ``(bases,)`` first, so a hit builds no layout.
    """
    cached = state._cache.get((bases,))
    if cached is not None:
        return cached
    return _table_stack(state, StackLayout.of(state.n, (bases,)))


def outcome_distribution(state: DenseState, bases: str) -> np.ndarray:
    """Exact joint outcome distribution over the measured (non-I) qubits.

    Index bit order follows qubit order: the first measured qubit is the most
    significant bit, and bit 0 encodes outcome +1, bit 1 outcome -1.
    """
    return _basis_table(state, bases).probs.copy()


def measure_in_bases(
    state: DenseState, bases: str, rng: np.random.Generator
) -> tuple[MeasurementRecord, float]:
    """Sample one joint outcome record from the Born distribution.

    Measured qubits are rotated into the computational basis (X via Hadamard,
    Y via the Y-eigenbasis rotation, Z directly) and a single joint bitstring
    is drawn; I qubits are not conditioned on and report +1.  The one-basis
    stack's CDF is one row with no padding, so ``searchsorted`` reads it whole.
    """
    table = _basis_table(state, bases)
    measured, last = table.layout.measured[0], int(table.last_sampleable[0])
    u = rng.random()
    k = int(np.searchsorted(table.cum, u, side="right"))
    if k > last:
        k = last
    n_meas = len(measured)
    outcomes = [1] * state.n
    for t, q in enumerate(measured):
        bit = (k >> (n_meas - 1 - t)) & 1
        outcomes[q] = 1 - 2 * bit
    return MeasurementRecord(tuple(outcomes)), float(table.probs[k])


def sample_stacked_outcomes(
    state: DenseState, layout: StackLayout, which: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Batched twin of measure_in_bases: trial t measures layout.bases[which[t]] with u[t].

    Returns one outcome index per trial.  Row i of its stack equals the
    one-basis stack of ``layout.bases[i]``, which measure_in_bases reads, bit
    for bit, and it uses the same inverse-CDF search and clamp to the last
    sampleable outcome, so the index for ``u[t]`` is the one
    measure_in_bases draws from the same variate.  Index bits follow
    outcome_distribution (first measured qubit most significant, bit 1 for
    the -1 outcome).  The tables of the layout's bases on ``state`` are built
    as one stack and memoized on the state.
    """
    stack = _table_stack(state, layout)
    k = search_segments(stack.cum, layout.width, which, u)
    return np.minimum(k, stack.last_sampleable[which])


@dataclass(frozen=True)
class _IntervalTable:
    """A stack's drawable outcomes, runs of one read value merged, row by row."""

    bounds: np.ndarray  # cum at each interval's last outcome, rows laid out as by stack_segments
    width: int
    last: np.ndarray  # per row, the index of its last interval
    values: np.ndarray  # the read value of each interval, where its bound lies


def _interval_table(stack: _TableStack, values: np.ndarray) -> _IntervalTable:
    """The intervals of ``values[row, outcome]`` over the outcomes a search of ``stack`` can draw.

    Outcome j of a row can be drawn when cum[j] > cum[j - 1] (cum[-1] = 0)
    and j <= last_sampleable; last_sampleable itself always can.  A run of
    drawable outcomes that read one value is one interval, bounded by cum at
    its last outcome.  A row's first interval is found by ``searchsorted``
    over the sorted row ids.
    """
    n_rows, width = len(stack.last_sampleable), stack.layout.width
    cum = stack.cum.reshape(n_rows, width)
    outcome, last = np.arange(width), stack.last_sampleable[:, None]
    drawable = cum > np.concatenate([np.zeros((n_rows, 1)), cum[:, :-1]], axis=1)
    at = np.flatnonzero(drawable & (outcome <= last) | (outcome == last))
    row, read = at // width, values.take(at)
    # an interval ends where the next drawable outcome lies in another row or reads another value
    ends = np.append((row[1:] != row[:-1]) | (read[1:] != read[:-1]), True)
    at, row, read = at[ends], row[ends], read[ends]
    first = np.searchsorted(row, np.arange(n_rows))
    count = np.diff(first, append=row.size)
    table_width = 1 << int(count.max() - 1).bit_length()
    place = np.arange(row.size) + (row * table_width - first.take(row))
    bounds = np.full(n_rows * table_width, np.inf)
    bounds[place] = stack.cum.take(at)
    table_values = np.zeros(n_rows * table_width, dtype=read.dtype)
    table_values[place] = read
    return _IntervalTable(bounds, table_width, count - 1, table_values)


def sample_stacked_values(
    state: DenseState, layout: StackLayout, values: np.ndarray, key, which, u
) -> np.ndarray:
    """``values[which[t], k]`` for the index k that sample_stacked_outcomes returns for u[t].

    ``values`` is a C-contiguous (bases, layout.width) array, one value per
    outcome of each of the layout's rows, and ``key`` names it: the intervals
    of the layout's stack on ``state`` are memoized on the state under
    (layout.bases, key), so two value tables on the same bases never share
    one.  Trial t is searched among the intervals of its row by the ``<=``
    comparisons of sample_stacked_outcomes on the same doubles, and clamped
    to the row's last interval as that clamps to the last sampleable
    outcome, so it reads the value of that outcome.
    """
    memo = (layout.bases, key)
    table = state._cache.get(memo)
    if table is None:
        table = _remember(state, memo, _interval_table(_table_stack(state, layout), values))
    if table.width == 1:  # one interval a row: every search of a row is clamped to it
        return table.values.take(which)
    i = search_segments(table.bounds, table.width, which, u)
    np.minimum(i, table.last[which], out=i)
    i += which * table.width
    return table.values.take(i)
