"""Hypergraph states, their stabilizers, and the adaptive test data.

A hypergraph state is built from |+>^n by applying, for every hyperedge, a
phase flip on the basis states whose edge qubits are all 1.  Conjugating X on
vertex v through those diagonal gates yields the v-th stabilizer

    g_v = X_v * prod(Z over 2-edge neighbors) * prod(multi-controlled Z's),

and expanding each multi-controlled Z over computational projectors on all
but its highest-index vertex gives the branch form used by the adaptive
single-shot test: for each projector-bit assignment ``a`` the residual
operator is a signed product of X_v and plain Z's, obtained here by literal
symbolic multiplication (Z's cancel pairwise; a Z landing on a projector
vertex turns into the sign (-1)**a of that vertex).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .paulis import (
    DENSE_QUBIT_CAP,
    PURE_QUBIT_CAP,
    bit_for_qubit,
    qubit_mask,
    sign_vector,
)
from . import reporting
from .schedules import capped_dim
from .states import DenseState, pure_state


MAX_EDGE_SIZE = 3


@dataclass(frozen=True)
class HypergraphSpec:
    """Vertices plus hyperedges of size 2..MAX_EDGE_SIZE."""

    kind = "hypergraph"  # a class attribute, not a field
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        seen = set()
        for e in self.edges:
            if tuple(sorted(e)) != tuple(e):
                raise ValueError("edges must be stored sorted ascending")
            if not 2 <= len(e) <= MAX_EDGE_SIZE:
                raise ValueError(f"edge {e} has size outside [2, {MAX_EDGE_SIZE}]")
            if len(set(e)) != len(e):
                raise ValueError(f"edge {e} repeats a vertex")
            if min(e) < 0 or max(e) >= self.n:
                raise ValueError(f"edge {e} leaves the vertex range")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)


def hypergraph(n: int, edges) -> HypergraphSpec:
    """Normalize edge containers into a canonical HypergraphSpec."""
    canon = tuple(sorted(tuple(sorted(e)) for e in edges))
    return HypergraphSpec(n, canon)


def connectivity(g: HypergraphSpec) -> tuple[int, list[int]]:
    """Max and per-vertex counts of hyperedges incident to each vertex."""
    per_vertex = [0] * g.n
    for e in g.edges:
        for v in e:
            per_vertex[v] += 1
    return (max(per_vertex) if per_vertex else 0), per_vertex


def _edge_masks(g: HypergraphSpec) -> list[int]:
    return [qubit_mask(g.n, e) for e in g.edges]


# The most entries one intermediate of ``_odd_monomials`` holds.
MONOMIAL_ENTRIES = 1 << 16


def _odd_monomials(idx: np.ndarray, masks) -> np.ndarray:
    """For each basis index, whether an odd number of ``masks`` have all their bits set.

    The masks are tested a chunk at a time, so memory stays a few arrays of
    idx's size however many masks there are.
    """
    odd = np.zeros(idx.size, dtype=bool)
    step = max(1, MONOMIAL_ENTRIES // idx.size)
    for lo in range(0, len(masks), step):
        chunk = np.array(masks[lo : lo + step], dtype=np.int64)[:, None]
        odd ^= np.bitwise_xor.reduce((idx & chunk) == chunk, axis=0)
    return odd


def cz_phase_vector(g: HypergraphSpec) -> np.ndarray:
    """Diagonal of the product of all generalized-CZ gates, as +-1 entries.

    An index picks up one -1 per edge whose qubits are all 1, so its phase is
    -1 exactly when an odd number of edges are.
    """
    idx = np.arange(capped_dim(g.n, PURE_QUBIT_CAP, "pure state"), dtype=np.int64)
    return 1 - 2 * _odd_monomials(idx, _edge_masks(g)).astype(np.int64)


def build_state(g: HypergraphSpec) -> DenseState:
    """The hypergraph state: phase flips of |+>^n on each edge's all-ones set."""
    phases = cz_phase_vector(g)
    amps = phases / np.sqrt(phases.size)
    return pure_state(amps.astype(complex), g.n)


def stabilizer_dense(g: HypergraphSpec, vertex: int) -> np.ndarray:
    """Dense matrix of the vertex stabilizer (CZ product) X_v (CZ product)."""
    dim = capped_dim(g.n, DENSE_QUBIT_CAP, "dense stabilizer")
    xbit = bit_for_qubit(g.n, vertex)
    idx = np.arange(dim, dtype=np.int64)
    d = cz_phase_vector(g)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[idx ^ xbit, idx] = d[idx ^ xbit] * d[idx]
    return mat


@dataclass(frozen=True)
class AdaptiveStabilizerForm:
    """Branch data for the adaptive single-shot stabilizer test of one vertex.

    ``cz_groups`` lists, for every incident hyperedge of size >= 3, the edge
    with the tested vertex removed, sorted ascending so the largest-index
    member is the canonical Z-carrier.  ``projector_support`` is the union of
    the non-carrier members; ``branch_for_bits`` maps an assignment of their
    bits to the branch sign and the residual Z-measured vertices.
    """

    n: int
    vertex: int
    z_neighbors: tuple[int, ...]
    cz_groups: tuple[tuple[int, ...], ...]
    projector_support: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.vertex < self.n:
            raise ValueError(f"vertex {self.vertex} out of range")
        if self.vertex in self.projector_support:  # P_a would fix the bit its X flips
            raise ValueError(f"vertex {self.vertex} lies in its own projector support")

    def branch_for_bits(self, key: int) -> tuple[int, tuple[int, ...]]:
        """Branch sign exponent and sorted residual Z-vertices for packed projector bits.

        ``key`` packs one bit per ``projector_support`` vertex, the first
        vertex's bit most significant.  A pure function of the form and the
        key: ``branch_table`` lists it, and the batched engine reads
        ``outcome_tables`` instead.
        """
        support = self.projector_support
        width = len(support)
        if not 0 <= key < 1 << width:
            raise ValueError(f"packed assignment {key} does not fit {width} projector bits")
        bits = {v: (key >> (width - 1 - t)) & 1 for t, v in enumerate(support)}
        z_count: dict[int, int] = {}
        for v in self.z_neighbors:
            z_count[v] = z_count.get(v, 0) + 1
        for grp in self.cz_groups:
            if all(bits[v] for v in grp[:-1]):
                carrier = grp[-1]
                z_count[carrier] = z_count.get(carrier, 0) + 1
        alpha = 0
        residual = []
        for v, c in z_count.items():
            if c & 1:
                if v in bits:
                    alpha ^= bits[v]
                else:
                    residual.append(v)
        return alpha, tuple(sorted(residual))

    @property
    def flips_sign(self) -> bool:
        """Whether some branch has alpha = 1, without listing the 2**width branches.

        Over GF(2), alpha sums x_v for each 2-edge neighbor v in the support
        and the product of a group's bits for each group whose carrier is in
        the support (its projectors fire the Z, the carrier's bit reads it).
        Distinct edges give distinct monomials, so alpha is 1 on some branch
        exactly when one of these terms exists.
        """
        carriers = (grp[-1] for grp in self.cz_groups)
        return not set(self.projector_support).isdisjoint([*self.z_neighbors, *carriers])

    def bases(self) -> str:
        """Measurement bases of the test: X on the vertex, Z everywhere else."""
        return "".join("X" if j == self.vertex else "Z" for j in range(self.n))

    def branch_table(self) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
        """All (a, alpha, residual-Z) branches; exponential in the support size."""
        width = len(self.projector_support)
        out = []
        for key in range(1 << width):
            a = tuple((key >> (width - 1 - t)) & 1 for t in range(width))
            alpha, residual = self.branch_for_bits(key)
            out.append((a, alpha, residual))
        return out

    def dense(self) -> np.ndarray:
        """Stabilizer rebuilt from the branch sum (for cross-validation)."""
        dim = capped_dim(self.n, DENSE_QUBIT_CAP, "dense form")
        idx = np.arange(dim, dtype=np.int64)
        xbit = bit_for_qubit(self.n, self.vertex)
        out = np.zeros((dim, dim), dtype=complex)
        for a, alpha, residual in self.branch_table():
            ones = qubit_mask(self.n, (v for v, b in zip(self.projector_support, a) if b))
            keep = (idx & qubit_mask(self.n, self.projector_support)) == ones
            signs = sign_vector(dim, qubit_mask(self.n, residual))
            sel = idx[keep]
            out[sel ^ xbit, sel] += (-1) ** alpha * signs[keep]
        return out


def adaptive_form(g: HypergraphSpec, vertex: int) -> AdaptiveStabilizerForm:
    """Purely combinatorial branch data; works at any register width."""
    z_neighbors = []
    groups = []
    for e in g.edges:
        if vertex not in e:
            continue
        rest = tuple(v for v in e if v != vertex)
        if len(rest) == 1:
            z_neighbors.append(rest[0])
        else:
            groups.append(rest)  # sorted already; last member is the carrier
    support = sorted({v for grp in groups for v in grp[:-1]})
    return AdaptiveStabilizerForm(
        n=g.n,
        vertex=vertex,
        z_neighbors=tuple(sorted(z_neighbors)),
        cz_groups=tuple(sorted(groups)),
        projector_support=tuple(support),
    )


def all_adaptive_forms(g: HypergraphSpec) -> list[AdaptiveStabilizerForm]:
    return [adaptive_form(g, v) for v in range(g.n)]


def outcome_tables(forms) -> tuple[np.ndarray, np.ndarray]:
    """Pass flag and projector bits ``a`` of every form on every joint outcome of its bases().

    Row i belongs to ``forms[i]``; its columns are the 2**n outcome indices
    (qubit 0 most significant, bit 1 for the -1 outcome).  The rule is
    branch_for_bits': a trial passes when the outcome product over the
    tested vertex and the residual Z's equals (-1)**alpha.  A Z that lands
    on a projector vertex adds that vertex's bit of ``a`` to alpha, which is
    its outcome bit, so it joins the parity like any other Z.  Each
    neighbor edge then puts its other vertex's bit in the parity and each
    group its product of bits (the projectors fire the Z, the carrier's bit
    reads it): the trial passes when an even number of these monomials,
    with the tested vertex's own bit, are 1.  The per-vertex bit arrays of
    the outcome index are computed once and shared by every form.
    """
    n = forms[0].n
    if any(f.n != n for f in forms):
        raise ValueError("the forms of one table must share one register width")
    idx = np.arange(capped_dim(n, PURE_QUBIT_CAP, "outcome table"), dtype=np.int64)
    outcome_bit = (idx >> np.arange(n - 1, -1, -1)[:, None]) & 1  # row v: vertex v's bit
    # a ends with the last support vertex's bit, as branch_for_bits packs it
    place = np.zeros((len(forms), n), dtype=np.int64)
    odd = np.empty((len(forms), idx.size), dtype=bool)
    for f, row, odd_row in zip(forms, place, odd):
        row[list(f.projector_support)] = 1 << np.arange(len(f.projector_support))[::-1]
        monomials = [(f.vertex,), *((w,) for w in f.z_neighbors), *f.cz_groups]
        odd_row[:] = _odd_monomials(idx, [qubit_mask(n, m) for m in monomials])
    return ~odd, place @ outcome_bit


def random_bms_instance(
    n: int, edge_prob: float, rng: np.random.Generator
) -> tuple[HypergraphSpec, tuple[int, ...]]:
    """Random instance with every pair/triple edge (and local Z) kept i.i.d.

    Single-vertex Z gates do not fit the hyperedge model (edges have size at
    least 2), so they come back as a separate local-Z layer that only matters
    when forming X-basis output distributions.
    """
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    # the draws grow as n**3; no instance wider than the pure-state cap can be verified
    capped_dim(n, PURE_QUBIT_CAP, "random hypergraph")
    edges = []
    for size in (2, 3):
        for combo in combinations(range(n), size):
            if rng.random() < edge_prob:
                edges.append(combo)
    z_layer = tuple(v for v in range(n) if rng.random() < edge_prob)
    return hypergraph(n, edges), z_layer


def load_hypergraph(source: str | Path | dict) -> tuple[HypergraphSpec, tuple[int, ...]]:
    """Read {"n_vertices": int, "edges": [[int,...]], "z_layer"?: [int,...]}."""
    obj = reporting.read_object(source, "the hypergraph")
    edges = reporting.field(obj, "edges", list[list[int]])
    g = hypergraph(reporting.field(obj, "n_vertices", int), edges)
    return g, z_layer_on(g.n, reporting.field(obj, "z_layer", list[int], ()))


def z_layer_on(n: int, vertices) -> tuple[int, ...]:
    """The sorted vertices of a local-Z layer; Z*Z = I, so a repeated vertex is refused."""
    z_layer = tuple(sorted(vertices))
    for i, v in enumerate(z_layer):
        if not 0 <= v < n:
            raise ValueError(f"z-layer vertex {v} out of range")
        if i and z_layer[i - 1] == v:
            raise ValueError(f"z-layer vertex {v} is repeated")
    return z_layer


def hypergraph_to_jsonable(g: HypergraphSpec, z_layer: tuple[int, ...] = ()) -> dict:
    return {
        "n_vertices": g.n,
        "edges": [list(e) for e in g.edges],
        "z_layer": list(z_layer),
    }
