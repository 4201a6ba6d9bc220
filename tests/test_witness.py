"""Each protocol's pass rates bound the fidelity they are meant to certify.

For every kind the exact group pass probabilities give a witness of the
infidelity 1 - F, from the kind's own formulas:

* hypergraph: ``1 - F <= sum_v (1 - p_v)``, since ``p_v = (1 + <g_v>)/2`` and
  the ideal state is the one joint +1 eigenstate of the ``g_v``;
* circuit: ``1 - F <= sum_i (1 - l1_i (2 p_i - 1))/2``, since
  ``p_i = 1/2 + <g_i>/(2 l1_i)``;
* ground: ``1 - F <= l1 (2 p - 1)``, since ``H' = (H - E0)/gap >= I - Pi0``
  while E0 and the gap are the true ones, as when neither is stated.

The states include the ideal under Z on every qubit, which flips every
hypergraph stabilizer (every p_v is 0).  Some cases are equalities (a
one-vertex hypergraph under Z; the ground bound of a two-level Hamiltonian
such as -Z, where H' = I - Pi0), so the checks allow 1e-12 of rounding.

Completeness is checked at the paper schedule's own k, with no sampling:
the honest prover's groups are independent binomials, so its acceptance
probability is a product of exact binomial tails, which Hoeffding bounds.
"""
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pauliverify.analysis import binomial_tail_ge, binomial_tail_le
from pauliverify.circuits import circuit
from pauliverify.cli import load_target
from pauliverify.hamiltonians import HamiltonianSpec
from pauliverify.hypergraphs import hypergraph
from pauliverify.paulis import PauliString
from pauliverify.protocol import prepare
from pauliverify.schedules import schedule_params
from pauliverify.states import (
    apply_pauli,
    mixture,
    random_mixed_state,
    random_pure_state,
)

SLACK = 1e-12
DATA = Path(__file__).parent / "data"
TARGETS = sorted(p.name for p in DATA.glob("*.json") if not p.name.startswith("verify_"))
ONE_QUBIT = ("H", "S", "SDG", "T", "X", "Y", "Z")


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(1, 6))
    candidates = [e for size in (2, 3) for e in combinations(range(n), size)]
    edges = draw(st.sets(st.sampled_from(candidates))) if candidates else ()
    return hypergraph(n, edges)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 4))
    names = ONE_QUBIT + ("CZ", "CNOT") * (n >= 2) + ("CCZ",) * (n >= 3)
    gates = []
    for name in draw(st.lists(st.sampled_from(names), max_size=10)):
        arity = 3 if name == "CCZ" else 2 if name in ("CZ", "CNOT") else 1
        gates.append((name, draw(st.permutations(range(n)))[:arity]))
    return circuit(n, gates)


@st.composite
def rings(draw):
    """An XX/YY/ZZ ring with X fields, with no stated ground energy or gap."""
    n = draw(st.integers(2, 4))
    coeff = st.floats(0.5, 1.5)
    terms = []
    for i in range(n):
        for axis in "XYZ":
            letters = ["I"] * n
            letters[i] = letters[(i + 1) % n] = axis
            terms.append(PauliString.from_axes(letters, draw(coeff)))
    for i in range(n):
        terms.append(PauliString.on_qubit(n, i, "X").with_coeff(draw(st.floats(0.2, 1.0))))
    return HamiltonianSpec(n, tuple(terms))


@st.composite
def states(draw, ideal):
    """The ideal mixed with a random state, a random mixed state, or a Pauli error of it."""
    n = ideal.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["mix pure", "mix mixed", "mixed", "pauli", "Z everywhere"]))
    if kind == "Z everywhere":
        return apply_pauli(ideal, PauliString(n, 0, (1 << n) - 1, 1.0))
    if kind == "pauli":
        x, z = draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, (1 << n) - 1))
        return apply_pauli(ideal, PauliString(n, x, z, 1.0))
    rank = draw(st.integers(1, 1 << n))
    if kind == "mixed":
        return random_mixed_state(n, rng, rank)
    other = random_pure_state(n, rng) if kind == "mix pure" else random_mixed_state(n, rng, rank)
    return mixture(ideal, other, draw(st.floats(0.0, 1.0)))


def _rates(target, data):
    """Each group's exact pass probability and the infidelity of a drawn state."""
    prepared = prepare(target)
    state = data.draw(states(prepared.ideal))
    return prepared, np.array(prepared.group_ppass(state)), 1.0 - prepared.fidelity(state)


@settings(max_examples=150)
@given(target=hypergraphs(), data=st.data())
def test_hypergraph_pass_rates_bound_the_infidelity(target, data):
    _, p, infidelity = _rates(target, data)
    assert infidelity <= np.sum(1.0 - p) + SLACK


@settings(max_examples=150)
@given(target=circuits(), data=st.data())
def test_circuit_pass_rates_bound_the_infidelity(target, data):
    prepared, p, infidelity = _rates(target, data)
    l1 = np.array(prepared.group_l1)
    assert infidelity <= np.sum(1.0 - l1 * (2.0 * p - 1.0)) / 2.0 + SLACK


@settings(max_examples=150)
@given(target=rings(), data=st.data())
def test_ground_pass_rate_bounds_the_infidelity(target, data):
    prepared, (p,), infidelity = _rates(target, data)
    assert infidelity <= prepared.l1_norm * (2.0 * p - 1.0) + SLACK


@pytest.mark.parametrize("name", TARGETS)
def test_honest_acceptance_at_the_paper_k_meets_the_hoeffding_floor(name):
    _, target, _ = load_target(DATA / name)
    prepared = prepare(target)
    params = schedule_params(prepared.protocol, target.n, l1_norm=prepared.l1_norm)
    k, below = params.k, prepared.comparison == "<="
    thresholds = prepared.thresholds(params.epsilon)
    accept, floor = 1.0, 1.0
    for p, threshold in zip(prepared.group_ppass(prepared.ideal), thresholds):
        margin = float(threshold) - p if below else p - float(threshold)
        assert margin > 0.0  # the honest rate lies on the passing side of its threshold
        accept *= (binomial_tail_le if below else binomial_tail_ge)(k, p, threshold)
        floor -= math.exp(-2.0 * margin**2 * k)
    assert accept >= floor
