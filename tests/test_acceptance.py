"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Everything is seeded, so the suite is deterministic; statistical
assertions state their tolerance (3-sigma binomial or an explicit Monte
Carlo confidence slack) inline.
"""
import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from pauliverify.analysis import (
    acceptance_bound,
    binomial_tail_ge,
    binomial_tail_le,
    hoeffding_tail,
)
from pauliverify.circuits import all_stabilizer_decompositions, build_circuit_state, circuit
from pauliverify.hamiltonians import HamiltonianSpec, rescale
from pauliverify.hypergraphs import (
    adaptive_form,
    all_adaptive_forms,
    build_state,
    hypergraph,
    stabilizer_dense,
)
from pauliverify.paulis import PauliString
from pauliverify.protocol import (
    coherent_error_prover,
    honest_prover,
    iid_deviated_prover,
    prepare,
    run_seeds,
)
from pauliverify.schedules import (
    desk_params,
    minimal_k_for_sampling_hardness,
    schedule_params,
    supremacy_margin,
)
from pauliverify.single_copy import (
    AdaptiveTest,
    ParityTest,
    adaptive_test_exact_ppass,
    monte_carlo_pass_rate,
    parity_test_exact_ppass,
)
from pauliverify.states import (
    computational_state,
    maximally_mixed,
    measure_in_bases,
    outcome_distribution,
    overlap,
    mixed_state,
    pure_state,
    random_mixed_state,
    to_density,
)

from conftest import dense_from_axes, trace_distance

GOLDEN = Path(__file__).parent / "golden"
MASTER_SEED = 20250810


@contextmanager
def criterion(num: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS ({time.perf_counter() - start:.1f}s)")


def random_hypergraph(n, rng, edge_prob=0.5):
    edges = [
        combo
        for size in (2, 3)
        for combo in combinations(range(n), size)
        if rng.random() < edge_prob
    ]
    return hypergraph(n, edges)


def test_criterion_1_exact_identity_suite():
    """50 random hypergraphs (n<=5): all stabilizer identities to 1e-10, <1min."""
    with criterion(1, "exact identity suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(MASTER_SEED)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            g = random_hypergraph(n, rng)
            state = build_state(g)
            eye = np.eye(1 << n)
            proj = np.eye(1 << n, dtype=complex)
            for v in range(n):
                gv = stabilizer_dense(g, v)
                assert np.max(np.abs(gv @ gv - eye)) <= 1e-10
                assert np.max(np.abs(gv @ state.data - state.data)) <= 1e-10
                assert np.max(np.abs(adaptive_form(g, v).dense() - gv)) <= 1e-10
                proj = proj @ (eye + gv) / 2
            assert np.max(np.abs(proj - to_density(state).data)) <= 1e-10
        assert time.perf_counter() - start < 60.0


def test_criterion_2_worked_example():
    """The 3-qubit triple state: closed-form stabilizers and the branch rule."""
    with criterion(2, "worked-example reproduction"):
        g = hypergraph(3, [(0, 1, 2)])
        want = {
            0: dense_from_axes("X0I") + dense_from_axes("X1Z"),
            1: dense_from_axes("0XI") + dense_from_axes("1XZ"),
            2: dense_from_axes("0IX") + dense_from_axes("1ZX"),
        }
        for v, mat in want.items():
            assert np.array_equal(stabilizer_dense(g, v), mat)
        # branch rule for the X-tested first vertex, verbatim:
        #   z on vertex 1 is +1  ->  accept iff x = +1
        #   z on vertex 1 is -1  ->  accept iff x * z(vertex 2) = +1
        form = adaptive_form(g, 0)
        assert form.projector_support == (1,)
        assert form.branch_for_bits(0) == (0, ())
        assert form.branch_for_bits(1) == (0, (2,))


def test_criterion_3_ppass_formula_agreement():
    """Each kernel: 20 random mixed states, 1e5 trials inside 3-sigma, <5min.

    The trials run through the group kernels, which consume the same
    variates as the scalar tests (tests/test_batched.py checks that).
    """
    with criterion(3, "pass-probability formula agreement"):
        start = time.perf_counter()
        trials = 100_000
        rng = np.random.default_rng(MASTER_SEED + 1)

        h_rng = np.random.default_rng(MASTER_SEED + 2)
        ham = HamiltonianSpec(
            3,
            tuple(
                PauliString.from_axes(
                    "".join(h_rng.choice(list("IXYZ")) for _ in range(3)),
                    float(h_rng.normal()),
                )
                for _ in range(5)
            ),
        )
        rh = rescale(ham)
        ccz = circuit(3, [("CCZ", (0, 1, 2))])
        decomp = all_stabilizer_decompositions(ccz)[0]
        hg = hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3)])
        form = adaptive_form(hg, 0)
        g_dense = stabilizer_dense(hg, 0)

        for _ in range(20):
            rho = random_mixed_state(3, rng)
            p = parity_test_exact_ppass(rho, rh)
            rate, _ = monte_carlo_pass_rate(ParityTest(rh), trials, rng, state=rho)
            assert abs(rate - p) <= 3 * np.sqrt(p * (1 - p) / trials)

        for _ in range(20):
            rho = random_mixed_state(3, rng)
            p = parity_test_exact_ppass(rho, decomp)
            rate, _ = monte_carlo_pass_rate(ParityTest(decomp), trials, rng, state=rho)
            assert abs(rate - p) <= 3 * np.sqrt(p * (1 - p) / trials)

        for _ in range(20):
            rho = random_mixed_state(4, rng)
            p = adaptive_test_exact_ppass(rho, form, g_dense)
            rate, _ = monte_carlo_pass_rate(AdaptiveTest(form), trials, rng, state=rho)
            assert abs(rate - p) <= 3 * np.sqrt(p * (1 - p) / trials)

        assert time.perf_counter() - start < 300.0


def test_criterion_4_completeness_at_desk_scale():
    """Honest provers: hypergraph accepts always; ground/circuit match binomials."""
    with criterion(4, "completeness at desk scale"):
        # hypergraph: 100 runs at n=4, k=500; every trial must pass
        target = prepare(hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3), (0, 1, 3)]))
        params = desk_params("hypergraph", 4, k=500, m=3, epsilon=0.1)
        prover = honest_prover(target.ideal)
        for rep in target.runs(prover, params, run_seeds(MASTER_SEED + 3, 100)):
            assert rep.accepted
            assert all(grp.passes == 500 for grp in rep.groups)

        # ground: honest acceptance rate >= exact binomial prediction - 3 MC sigma,
        # and the completeness Hoeffding chain holds numerically at desk params
        ham = HamiltonianSpec(
            1, (PauliString.from_axes("Z", -1.0),), ground_energy=-1.0, gap_lower_bound=2.0
        )
        rh = rescale(ham)
        params_g = desk_params("ground", 1, k=200, m=5, epsilon=0.2)
        thr = Fraction(1, 2) + params_g.epsilon / (2 * Fraction(rh.l1_norm))
        predicted = binomial_tail_le(200, 0.5, thr)
        runs = 100
        honest_g = honest_prover(computational_state(1, 0))
        accepted = sum(
            rep.accepted
            for rep in prepare(ham).runs(
                honest_g, params_g, run_seeds(MASTER_SEED + 4, runs)
            )
        )
        sigma = np.sqrt(predicted * (1 - predicted) / runs)
        assert accepted / runs >= predicted - 3 * sigma
        t = float(params_g.epsilon) / (2 * rh.l1_norm)
        assert 1 - predicted <= hoeffding_tail(200, t) + 1e-12

        # circuit: honest CCZ acceptance rate >= product of exact binomial tails
        ccz = circuit(3, [("CCZ", (0, 1, 2))])
        decomps = all_stabilizer_decompositions(ccz)
        ideal = build_circuit_state(ccz)
        params_c = desk_params("circuit", 3, k=200, m=4, epsilon=0.2)
        predicted_c = 1.0
        for d in decomps:
            thr_i = Fraction(1, 2) + (1 - params_c.epsilon) / (2 * Fraction(d.l1_norm))
            p_i = parity_test_exact_ppass(ideal, d)
            predicted_c *= binomial_tail_ge(200, p_i, thr_i)
            # completeness chain, exact tail under the Hoeffding bound
            tail = 1 - binomial_tail_ge(200, p_i, thr_i)
            t_i = float(params_c.epsilon) / (2 * d.l1_norm)
            assert tail <= hoeffding_tail(200, t_i) + 1e-12
        accepted_c = sum(
            rep.accepted
            for rep in prepare(ccz).runs(
                honest_prover(ideal), params_c, run_seeds(MASTER_SEED + 5, runs)
            )
        )
        sigma_c = np.sqrt(predicted_c * (1 - predicted_c) / runs)
        assert accepted_c / runs >= predicted_c - 3 * sigma_c


def test_criterion_5_soundness_behavior():
    """Phase-flipped and orthogonal provers are rejected as predicted."""
    with criterion(5, "soundness behavior"):
        # hypergraph: flipping the first vertex makes group 0 fail every trial
        g = hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3)])
        forms = all_adaptive_forms(g)
        ideal = build_state(g)
        flipped = coherent_error_prover(ideal, PauliString.from_axes("ZIII"))
        bad_state = flipped.make_source(1, np.random.default_rng(0))
        assert adaptive_test_exact_ppass(
            bad_state, forms[0], stabilizer_dense(g, 0)
        ) == pytest.approx(0.0, abs=1e-12)
        params = desk_params("hypergraph", 4, k=100, m=2, epsilon=0.2)
        for rep in prepare(g).runs(flipped, params, run_seeds(MASTER_SEED + 6, 100)):
            assert not rep.accepted
            assert rep.groups[0].passes == 0

        # ground: the orthogonal excited state saturates the pass rate
        ham = HamiltonianSpec(
            1, (PauliString.from_axes("Z", -1.0),), ground_energy=-1.0, gap_lower_bound=2.0
        )
        rh = rescale(ham)
        excited = computational_state(1, 1)
        assert parity_test_exact_ppass(excited, rh) == pytest.approx(1.0)
        params_g = desk_params("ground", 1, k=200, m=0, epsilon=0.2)
        thr = Fraction(1, 2) + params_g.epsilon / (2 * Fraction(rh.l1_norm))
        predicted_reject = 1.0 - binomial_tail_le(200, 1.0, thr)
        assert predicted_reject >= 0.99
        rejected = sum(
            not rep.accepted
            for rep in prepare(ham).runs(
                honest_prover(excited), params_g, run_seeds(MASTER_SEED + 7, 100)
            )
        )
        assert rejected == 100


def test_criterion_6_robustness_bound():
    """Deviated prover at eps' = 2*eps, k = 1000, n = 4 meets the stated bound."""
    with criterion(6, "robustness bound"):
        g = hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3), (0, 1, 3)])
        target = prepare(g)
        forms, ideal = target.test.forms, target.ideal
        k = 1000
        eps = Fraction(1, 4 * 4) / Fraction(
            int(round(k ** (2 / 7) * 10**9)), 10**9
        )  # 1/(4*n*k**(2/7)) to 9 digits
        params = desk_params("hypergraph", 4, k=k, m=0, epsilon=eps)
        eps_prime = float(2 * eps)
        eta = maximally_mixed(4)

        # eps' = 0 endpoint: acceptance is exactly 1
        honest = iid_deviated_prover(ideal, 0.0, eta)
        for rep in target.runs(honest, params, run_seeds(MASTER_SEED + 8, 20)):
            assert rep.accepted

        prover = iid_deviated_prover(ideal, eps_prime, eta)
        rho = prover.make_source(1, np.random.default_rng(0))
        for v in range(4):
            p = adaptive_test_exact_ppass(rho, forms[v], stabilizer_dense(g, v))
            assert p == pytest.approx(1 - eps_prime / 2, abs=1e-10)

        runs = 60
        accepted = sum(
            rep.accepted for rep in target.runs(prover, params, run_seeds(MASTER_SEED + 9, runs))
        )
        measured = accepted / runs
        bound = acceptance_bound(4, k, float(eps), eps_prime)
        mc_ci = np.sqrt(0.25 / runs)  # worst-case binomial sigma over the runs
        assert measured >= bound - 3 * mc_ci


def test_criterion_7_supremacy_margin_arithmetic():
    """Minimal k for the l1 budget, and the triangle chain on real vectors."""
    with criterion(7, "sampling-hardness margin arithmetic"):
        k_min = minimal_k_for_sampling_hardness()
        assert k_min == 74112**14
        # at that k the one-sided budget is met with exact equality
        assert Fraction(2, 74112) + Fraction(1, 193) == Fraction(1, 192)
        rep = supremacy_margin(fidelity=1.0 - 74112.0**-2, sampler_error=1 / 193)
        assert rep.satisfied

        # numeric inequality chain on constructed n<=4 examples
        rng = np.random.default_rng(MASTER_SEED + 10)
        for n, edges in [(3, [(0, 1, 2)]), (4, [(0, 1, 2), (2, 3), (0, 1, 3)])]:
            g = hypergraph(n, edges)
            st = build_state(g)
            lam = 0.05
            rho = mixed_state((1 - lam) * to_density(st).data + lam * np.eye(1 << n) / (1 << n))
            p = outcome_distribution(st, "X" * n)
            p_prime = outcome_distribution(rho, "X" * n)
            q = p_prime.copy()
            shift = min(0.002, float(q[0]) / 2)
            q[0] -= shift
            q[1] += shift  # a slightly wrong classical sampler
            lhs = float(np.sum(np.abs(p - q)))
            mid = float(np.sum(np.abs(p - p_prime)))
            rhs = float(np.sum(np.abs(p_prime - q)))
            assert lhs <= mid + rhs + 1e-9
            distance = trace_distance(rho, st)
            assert mid <= 2 * distance + 1e-9
            assert 2 * distance <= 2 * np.sqrt(1 - overlap(rho, st)) + 1e-9


def test_criterion_8_parameter_calculator_golden():
    """Schedules for n = 2..6 match the frozen table and the stated formulas."""
    with criterion(8, "parameter calculator"):
        import mpmath

        mpmath.mp.dps = 60
        ln2 = mpmath.log(2)
        golden = json.loads((GOLDEN / "schedules_n2_to_n6.json").read_text())
        for n in range(2, 7):
            g = schedule_params("ground", n, l1_norm=1.0)
            assert g.epsilon == Fraction(1, 4 * n**2)
            assert g.k == 32 * n**5
            assert g.m == int(mpmath.ceil(2 * n**5 * g.k**2 * ln2))
            assert golden[f"ground_n{n}"] == g.to_jsonable()

            c = schedule_params("circuit", n, l1_norm=1.0)
            assert c.epsilon == Fraction(1, 2 * n**3)
            assert c.k == 8 * n**7
            assert c.m == int(mpmath.ceil(2 * n**7 * c.k**2 * ln2))
            assert golden[f"circuit_n{n}"] == c.to_jsonable()

            h = schedule_params("hypergraph", n)
            assert h.k == (4 * n) ** 7
            assert h.epsilon == Fraction(1, (4 * n) ** 3)
            assert h.m == int(mpmath.ceil(2 * n**3 * mpmath.mpf(4 * n) ** 18 * ln2))
            assert golden[f"hypergraph_n{n}"] == h.to_jsonable()


def test_criterion_9_born_sampler_calibration():
    """Five fixed 3-qubit states: empirical TV < 0.02 at 1e5 samples."""
    with criterion(9, "Born-sampler calibration"):
        rng_state = np.random.default_rng(MASTER_SEED + 11)
        amps = rng_state.normal(size=8) + 1j * rng_state.normal(size=8)
        cases = [
            (build_state(hypergraph(3, [(0, 1, 2)])), "XZZ"),
            (build_state(hypergraph(3, [(0, 1), (1, 2), (0, 1, 2)])), "XYZ"),
            (pure_state(amps / np.linalg.norm(amps)), "YYX"),
            (random_mixed_state(3, rng_state), "ZXY"),
            (computational_state(3, 0b101), "XXZ"),
        ]
        samples = 100_000
        rng = np.random.default_rng(MASTER_SEED + 12)
        for state, bases in cases:
            exact = outcome_distribution(state, bases)
            counts = np.zeros(8)
            for _ in range(samples):
                rec, _ = measure_in_bases(state, bases, rng)
                idx = 0
                for m in rec.outcomes:
                    idx = (idx << 1) | (m == -1)
                counts[idx] += 1
            tv = 0.5 * float(np.sum(np.abs(counts / samples - exact)))
            assert tv < 0.02
