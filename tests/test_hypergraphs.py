import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pauliverify.hypergraphs import (
    AdaptiveStabilizerForm,
    adaptive_form,
    bit_for_qubit,
    build_state,
    connectivity,
    cz_phase_vector,
    hypergraph,
    hypergraph_to_jsonable,
    load_hypergraph,
    outcome_tables,
    random_bms_instance,
    stabilizer_dense,
)
from pauliverify.single_copy import AdaptiveTest
from pauliverify.states import to_density

from conftest import dense_from_axes


def random_hypergraph(n, rng, edge_prob=0.5):
    from itertools import combinations

    edges = [
        combo
        for size in (2, 3)
        for combo in combinations(range(n), size)
        if rng.random() < edge_prob
    ]
    return hypergraph(n, edges)


def test_spec_validation():
    with pytest.raises(ValueError):
        hypergraph(3, [(0,)])
    with pytest.raises(ValueError):
        hypergraph(3, [(0, 1, 2, 1)])
    with pytest.raises(ValueError):
        hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        hypergraph(3, [(0, 1), (1, 0)])  # duplicate after sorting
    with pytest.raises(ValueError):
        hypergraph(4, [(0, 1, 2, 3)])  # beyond max edge size 3


def test_build_state_no_edges_is_plus():
    st = build_state(hypergraph(3, []))
    assert np.allclose(st.data, np.full(8, 1 / np.sqrt(8)))


def test_build_state_single_triple():
    st = build_state(hypergraph(3, [(0, 1, 2)]))
    want = np.full(8, 1 / np.sqrt(8))
    want[7] *= -1
    assert np.allclose(st.data, want)


def test_build_state_edge_order_invariant():
    a = build_state(hypergraph(4, [(0, 1), (1, 2, 3), (0, 3)]))
    b = build_state(hypergraph(4, [(0, 3), (0, 1), (1, 2, 3)]))
    assert np.allclose(a.data, b.data)


def test_two_qubit_graph_state_stabilizer():
    g = hypergraph(2, [(0, 1)])
    st = build_state(g)
    xz = dense_from_axes("XZ")
    assert np.allclose(xz @ st.data, st.data)
    assert np.allclose(stabilizer_dense(g, 0), xz)


def test_stabilizer_dense_empty_edges_is_x():
    g = hypergraph(3, [])
    assert np.allclose(stabilizer_dense(g, 1), dense_from_axes("IXI"))


def test_three_qubit_worked_example_stabilizers():
    g = hypergraph(3, [(0, 1, 2)])
    # projector expansions written out by hand
    g1 = dense_from_axes("X0I") + dense_from_axes("X1Z")
    g2 = dense_from_axes("0XI") + dense_from_axes("1XZ")
    g3 = dense_from_axes("0IX") + dense_from_axes("1ZX")
    assert np.allclose(stabilizer_dense(g, 0), g1)
    assert np.allclose(stabilizer_dense(g, 1), g2)
    assert np.allclose(stabilizer_dense(g, 2), g3)


def test_connectivity_counts():
    assert connectivity(hypergraph(3, []))[0] == 0
    assert connectivity(hypergraph(3, [(0, 1, 2)]))[0] == 1
    from itertools import combinations

    n = 6
    g = hypergraph(n, combinations(range(n), 3))
    xi, per_vertex = connectivity(g)
    assert xi == 10  # C(5, 2)
    assert all(x == 10 for x in per_vertex)


def test_stabilizer_identities_random(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = random_hypergraph(n, rng)
        st = build_state(g)
        proj = np.eye(1 << n, dtype=complex)
        for v in range(n):
            gv = stabilizer_dense(g, v)
            assert np.max(np.abs(gv @ gv - np.eye(1 << n))) < 1e-10
            assert np.max(np.abs(gv - gv.conj().T)) < 1e-10
            assert np.max(np.abs(gv @ st.data - st.data)) < 1e-10
            proj = proj @ (np.eye(1 << n) + gv) / 2
        rho = to_density(st).data
        assert np.max(np.abs(proj - rho)) < 1e-10


def test_adaptive_form_worked_example():
    g = hypergraph(3, [(0, 1, 2)])
    form = adaptive_form(g, 0)
    assert form.z_neighbors == ()
    assert form.cz_groups == ((1, 2),)
    assert form.projector_support == (1,)
    # branch a=0: accept on x alone; branch a=1: accept on x*z(vertex 2)
    assert form.branch_for_bits(0) == (0, ())
    assert form.branch_for_bits(1) == (0, (2,))


def test_a_form_refuses_a_vertex_out_of_range_or_in_its_projector_support():
    with pytest.raises(ValueError, match="vertex 3 out of range"):
        adaptive_form(hypergraph(3, [(0, 1)]), 3)
    with pytest.raises(ValueError, match="vertex -1 out of range"):
        AdaptiveStabilizerForm(3, -1, (), (), ())
    # the projector would fix the bit that the tested X flips
    with pytest.raises(ValueError, match="vertex 0 lies in its own projector support"):
        AdaptiveStabilizerForm(3, 0, (), ((0, 2),), (0,))
    assert AdaptiveStabilizerForm(3, 0, (), ((1, 2),), (1,)) == adaptive_form(
        hypergraph(3, [(0, 1, 2)]), 0
    )


def test_adaptive_form_graph_state_needs_no_branches():
    g = hypergraph(4, [(0, 1), (0, 2), (2, 3)])
    form = adaptive_form(g, 0)
    assert form.cz_groups == ()
    assert form.projector_support == ()
    assert form.branch_for_bits(0) == (0, (1, 2))


def test_adaptive_form_sign_can_fire():
    # carrier of one group sits in the projector support of another
    g = hypergraph(4, [(0, 1, 2), (0, 2, 3)])
    form = adaptive_form(g, 0)
    assert form.projector_support == (1, 2)
    assert form.branch_for_bits(0b11) == (1, (3,))
    assert form.branch_for_bits(0b01) == (0, (3,))
    assert form.branch_for_bits(0b10) == (0, ())


def test_adaptive_form_z_collision_with_pair_edge():
    # a 2-edge Z and a fired carrier Z on the same vertex cancel
    g = hypergraph(3, [(0, 2), (0, 1, 2)])
    form = adaptive_form(g, 0)
    assert form.branch_for_bits(0) == (0, (2,))
    assert form.branch_for_bits(1) == (0, ())


def test_adaptive_dense_matches_conjugation(rng):
    for _ in range(12):
        n = int(rng.integers(2, 6))
        g = random_hypergraph(n, rng)
        for v in range(n):
            form = adaptive_form(g, v)
            assert np.max(np.abs(form.dense() - stabilizer_dense(g, v))) < 1e-10


def test_resolver_total_and_deterministic(rng):
    g = random_hypergraph(5, rng, edge_prob=0.8)
    form = adaptive_form(g, 0)
    width = len(form.projector_support)
    table = form.branch_table()
    assert len(table) == 1 << width
    for a, alpha, residual in table:
        key = sum(bit << (width - 1 - t) for t, bit in enumerate(a))
        again = form.branch_for_bits(key)
        assert again == (alpha, tuple(sorted(residual)))
        assert alpha in (0, 1)
        assert set(residual).isdisjoint(form.projector_support)
        assert form.vertex not in residual


def test_resolver_exhaustive_at_support_width_twelve():
    # twelve disjoint triples through vertex 0: support {1,3,...,23}
    edges = [(0, 2 * i + 1, 2 * i + 2) for i in range(12)]
    g = hypergraph(25, edges)
    form = adaptive_form(g, 0)
    assert len(form.projector_support) == 12
    seen = set()
    for key in range(1 << 12):
        a = tuple((key >> (11 - t)) & 1 for t in range(12))
        alpha, residual = form.branch_for_bits(key)
        assert alpha == 0  # disjoint groups never collide
        # fired groups contribute exactly their carriers
        want = {2 * i + 2 for i in range(12) if a[i]}
        assert residual == tuple(sorted(want))
        seen.add((alpha, residual))
    assert len(seen) == 1 << 12


def test_resolver_rejects_bad_assignments():
    # one projector bit: a packed key outside [0, 2) names no assignment
    form = adaptive_form(hypergraph(3, [(0, 1, 2)]), 0)
    with pytest.raises(ValueError):
        form.branch_for_bits(0b10)
    with pytest.raises(ValueError):
        form.branch_for_bits(-1)
    with pytest.raises(ValueError):
        adaptive_form(hypergraph(3, [(0, 1, 2)]), 5)


def test_random_instance_statistics(rng):
    g, z = random_bms_instance(3, 1.0, rng)
    assert len(g.edges) == 4  # 3 pairs + 1 triple
    assert z == (0, 1, 2)
    g, z = random_bms_instance(5, 0.0, rng)
    assert g.edges == () and z == ()
    # mean edge count at p = 1/2 over many draws
    n, draws = 6, 10_000
    total = sum(len(random_bms_instance(n, 0.5, rng)[0].edges) for _ in range(draws))
    expect = (15 + 20) / 2
    sigma = np.sqrt((15 + 20) * 0.25 / draws)
    assert abs(total / draws - expect) < 3 * sigma


def test_json_roundtrip(tmp_path):
    g = hypergraph(4, [(0, 1), (1, 2, 3)])
    path = tmp_path / "g.json"
    import json

    path.write_text(json.dumps(hypergraph_to_jsonable(g, (2,))))
    back, z = load_hypergraph(path)
    assert back == g and z == (2,)
    back, z = load_hypergraph({"n_vertices": 2, "edges": [[1, 0]]})
    assert back.edges == ((0, 1),) and z == ()


def _edges_of(n, edge_bits):
    """The pair and triple edges of n vertices that edge_bits selects."""
    candidates = [e for size in (2, 3) for e in combinations(range(n), size)]
    return [e for i, e in enumerate(candidates) if edge_bits >> i & 1]


# n = 8 has 28 pairs and 56 triples
@given(
    n=st.integers(1, 8),
    edge_bits=st.integers(0, 2**84 - 1),
    vertices=st.lists(st.integers(0, 7), min_size=1, max_size=8),
)
def test_outcome_tables_follow_branch_for_bits_on_every_outcome(n, edge_bits, vertices):
    g = hypergraph(n, _edges_of(n, edge_bits))
    forms = [adaptive_form(g, v % n) for v in vertices]
    passes, bits = AdaptiveTest(*forms)._outcome_tables
    assert passes.shape == bits.shape == (len(forms), 1 << n)
    for form, row_passes, row_bits in zip(forms, passes.tolist(), bits.tolist()):
        width = len(form.projector_support)
        for idx in range(1 << n):
            key = 0
            for v in form.projector_support:
                key = (key << 1) | (idx & bit_for_qubit(n, v) != 0)
            alpha, residual = form.branch_for_bits(key)
            mask = bit_for_qubit(n, form.vertex)
            for v in residual:
                mask |= bit_for_qubit(n, v)
            assert row_bits[idx] == key and key < 1 << width
            assert row_passes[idx] == (((idx & mask).bit_count() + alpha) % 2 == 0)


@st.composite
def _hub_hypergraphs(draw):
    """Up to 12 vertices; triples (0, a, b) put any a of 1..n-2 in vertex 0's support."""
    n = draw(st.integers(3, 12))
    support = draw(st.permutations(range(1, n - 1)))[: draw(st.integers(0, n - 2))]
    hub = [(0, a, draw(st.integers(a + 1, n - 1))) for a in sorted(support)]
    others = [e for size in (2, 3) for e in combinations(range(n), size) if e not in hub]
    return hypergraph(n, hub + draw(st.lists(st.sampled_from(others), max_size=6, unique=True)))


@settings(max_examples=60)
@given(g=_hub_hypergraphs())
# vertex 0's support [1, 2, 4, 6, 8] is too wide for inspect to list; 2 is also a carrier
@example(g=hypergraph(10, [(0, 1, 2), (0, 2, 3), (0, 4, 5), (0, 6, 7), (0, 8, 9)]))
# twelve disjoint triples: no carrier is a projector, so no branch flips
@example(g=hypergraph(25, [(0, 2 * i + 1, 2 * i + 2) for i in range(12)]))
def test_flips_sign_is_whether_some_branch_has_alpha_one(g):
    for v in range(g.n):
        form = adaptive_form(g, v)
        assert form.flips_sign == any(alpha for _, alpha, _ in form.branch_table())


def test_outcome_tables_refuse_forms_of_different_widths():
    forms = [adaptive_form(hypergraph(n, [(0, 1)]), 0) for n in (2, 3)]
    with pytest.raises(ValueError, match="one register width"):
        outcome_tables(forms)


def _edge_sign(edges, n, idx):
    """The product over edges of -1 when every vertex of the edge is 1 in idx."""
    sign = 1
    for e in edges:
        if all(idx & bit_for_qubit(n, v) for v in e):
            sign = -sign
    return sign


@given(n=st.integers(1, 8), edge_bits=st.integers(0, 2**84 - 1))
def test_cz_phase_vector_is_the_product_of_edge_signs(n, edge_bits):
    g = hypergraph(n, _edges_of(n, edge_bits))
    phases = cz_phase_vector(g)
    assert phases.dtype == np.int64
    assert phases.tolist() == [_edge_sign(g.edges, n, idx) for idx in range(1 << n)]


def test_cz_phase_vector_memory_does_not_grow_with_the_edges():
    n = 16
    g = hypergraph(n, [e for size in (2, 3) for e in combinations(range(n), size)])
    assert len(g.edges) >= 500
    tracemalloc.start()
    try:
        phases = cz_phase_vector(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**n * 8
    for idx in np.random.default_rng(0).integers(0, 2**n, 50).tolist():
        assert phases[idx] == _edge_sign(g.edges, n, idx)
