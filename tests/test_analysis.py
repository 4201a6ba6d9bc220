import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from pauliverify import analysis
from pauliverify.analysis import (
    acceptance_bound,
    binomial_tail_ge,
    binomial_tail_le,
    hoeffding_tail,
    robustness_sweep,
)
from pauliverify.circuits import circuit
from pauliverify.hypergraphs import build_state, hypergraph
from pauliverify.paulis import PauliString
from pauliverify.protocol import RUN_COUNT_CAP, prepare
from pauliverify.schedules import (
    desk_params,
    minimal_k_for_sampling_hardness,
    pass_cut,
    quantity,
    schedule_params,
    supremacy_margin,
)
from pauliverify.states import (
    apply_pauli,
    computational_state,
    maximally_mixed,
    mixed_state,
    outcome_distribution,
    overlap,
    plus_state,
    pure_state,
    random_mixed_state,
    to_density,
)

from conftest import kron_chain, trace_distance


H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_x_basis_plus_state_is_point_mass():
    probs = outcome_distribution(plus_state(3), "XXX")
    want = np.zeros(8)
    want[0] = 1.0
    assert np.allclose(probs, want, atol=1e-12)


def test_x_basis_triple_state_matches_amplitudes():
    g = hypergraph(3, [(0, 1, 2)])
    st = build_state(g)
    rotated = kron_chain(H2, H2, H2) @ st.data
    assert np.allclose(outcome_distribution(st, "XXX"), np.abs(rotated) ** 2, atol=1e-12)


def test_x_basis_maximally_mixed_is_uniform():
    probs = outcome_distribution(maximally_mixed(3), "XXX")
    assert np.allclose(probs, 1 / 8)


def test_iqp_distribution_with_z_layer():
    g = hypergraph(3, [(0, 1, 2)])
    base = outcome_distribution(build_state(g), "XXX")
    st = apply_pauli(build_state(g), PauliString.from_axes("ZII"))
    flipped = outcome_distribution(st, "XXX")
    want = np.abs(kron_chain(H2, H2, H2) @ st.data) ** 2
    assert np.allclose(flipped, want, atol=1e-12)
    assert not np.allclose(base, flipped)
    # direct amplitude arithmetic: outcome 000 carries (8-2)^2/64 = 9/16
    assert base[0] == pytest.approx(9 / 16)
    assert flipped[0b100] == pytest.approx(9 / 16)


def test_depolarized_l1_chain(rng):
    g = hypergraph(3, [(0, 1, 2), (0, 1)])
    st = build_state(g)
    lam = 0.3
    rho = mixed_state((1 - lam) * to_density(st).data + lam * np.eye(8) / 8)
    p = outcome_distribution(st, "XXX")
    q = outcome_distribution(rho, "XXX")
    distance = trace_distance(rho, st)
    l1 = float(np.sum(np.abs(p - q)))
    assert l1 <= 2 * distance + 1e-9
    assert 2 * distance <= 2 * np.sqrt(lam) + 1e-9


def test_trace_distance_extremes(rng):
    # the oracle the inequality tests lean on: 0 for a state against itself,
    # 1 for orthogonal states, with fidelity 1 and 0
    st = plus_state(2)
    assert (overlap(st, st), trace_distance(st, st)) == pytest.approx((1, 0), abs=1e-9)
    one, zero = computational_state(1, 1), pure_state(np.array([1.0, 0]))
    assert (overlap(one, zero), trace_distance(one, zero)) == pytest.approx((0, 1), abs=1e-9)
    mixed = maximally_mixed(1)
    assert trace_distance(mixed, zero) == pytest.approx(0.5, abs=1e-9)


def test_deviated_state_trace_distance_bound(rng):
    g = hypergraph(3, [(0, 1, 2)])
    st = build_state(g)
    for eps_prime in [0.1, 0.25, 0.6]:
        eta = random_mixed_state(3, rng)
        rho = mixed_state((1 - eps_prime) * to_density(st).data + eps_prime * eta.data)
        assert trace_distance(rho, st) <= np.sqrt(eps_prime) + 1e-9


def test_povm_l1_never_exceeds_trace_norm(rng):
    g = hypergraph(3, [(0, 1, 2), (1, 2)])
    st = build_state(g)
    for _ in range(10):
        rho = random_mixed_state(3, rng)
        p, q = outcome_distribution(st, "XXX"), outcome_distribution(rho, "XXX")
        assert 0.5 * float(np.sum(np.abs(p - q))) <= trace_distance(rho, st) + 1e-9


def test_margin_reference_instance():
    rep = supremacy_margin(1.0, 1 / 193)
    assert rep.satisfied and rep.total_bound == pytest.approx(1 / 193)
    rep = supremacy_margin(0.5, 0.0)
    assert not rep.satisfied
    with pytest.raises(ValueError):
        supremacy_margin(1.5, 0.0)


@given(st.floats(0.0, 1.0))
def test_math_sqrt_is_numpy_sqrt_bit_for_bit(x):
    # supremacy_margin takes its square root from math, not numpy; both are
    # the correctly rounded IEEE square root, so the margin keeps its bits
    assert math.sqrt(x).hex() == float(np.sqrt(x)).hex()
    state_term = supremacy_margin(1.0 - x, 0.0).state_term
    assert state_term.hex() == (2.0 * float(np.sqrt(max(1.0 - (1.0 - x), 0.0)))).hex()


def test_margin_monotonicity(rng):
    fids = np.sort(rng.uniform(0.9, 1.0, size=8))
    margins = [supremacy_margin(float(f), 1 / 193).total_bound for f in fids]
    assert all(a >= b - 1e-15 for a, b in zip(margins, margins[1:]))
    errs = np.sort(rng.uniform(0, 0.01, size=8))
    totals = [supremacy_margin(0.999, float(e)).total_bound for e in errs]
    assert all(a <= b + 1e-15 for a, b in zip(totals, totals[1:]))


def test_minimal_k_exact_value():
    k = minimal_k_for_sampling_hardness()
    assert k == 74112**14
    # exact check at k, high-precision check just below
    assert Fraction(2, 74112) + Fraction(1, 193) <= Fraction(1, 192)
    import mpmath

    # the violation just below k is ~1e-64 relative, so use plenty of digits
    mpmath.mp.dps = 120
    below = 2 * mpmath.mpf(k - 1) ** (mpmath.mpf(-1) / 14) + mpmath.mpf(1) / 193
    assert below > mpmath.mpf(1) / 192
    with pytest.raises(ValueError):
        minimal_k_for_sampling_hardness(sampler_error=Fraction(1, 192))


def test_hoeffding_values_and_exact_dominance(rng):
    assert hoeffding_tail(100, 0.1) == pytest.approx(np.exp(-2.0))
    for p in [0.1, 0.5, 0.62]:
        for k in [10, 100, 400]:
            for t in [0.05, 0.1, 0.2]:
                exact = binomial_tail_ge(k, p, Fraction(p) + Fraction(t))
                assert exact <= hoeffding_tail(k, t) + 1e-12


def test_ground_schedule_reproduces_target_tail():
    # with the minimal schedule the deviation eps/(2*l1) gives exp(-n) exactly
    for n in [2, 3, 4]:
        params = schedule_params("ground", n, l1_norm=1.0)
        t = float(params.epsilon) / 2.0
        assert hoeffding_tail(params.k, t) <= np.exp(-n) + 1e-12


def test_binomial_tail_rational_thresholds():
    # P[K/4 >= 3/4] with p = 1/2 is (4 choose 3 + 4 choose 4)/16 = 5/16
    assert binomial_tail_ge(4, 0.5, Fraction(3, 4)) == pytest.approx(5 / 16)
    assert binomial_tail_le(4, 0.5, Fraction(1, 4)) == pytest.approx(5 / 16)
    assert binomial_tail_ge(4, 0.5, Fraction(5, 4)) == 0.0


def _same_bits(got: float, want: float) -> bool:
    return math.isnan(got) and math.isnan(want) or got.hex() == want.hex()


ORACLE_PS = [0.0, 5e-324, 0.3, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52, -1e-300, math.nan]
ORACLE_KS = [1, 2, 7, 50, 200, 500, 1000]


def _oracle_grid(k: int) -> list[tuple[Fraction, float]]:
    """(threshold, p) pairs: each cut around the support, 1/(3k) either side, every ORACLE_PS."""
    return [
        (Fraction(j, k) + Fraction(d, 3 * k), p)
        for j in sorted({-1, 0, 1, k // 2, k - 1, k, k + 1})
        for d in (-1, 0, 1)
        for p in ORACLE_PS
    ]


def _assert_scipy_stats_tails(k, threshold, p, got_ge, got_le):
    m_ge, m_le = math.ceil(threshold * k), math.floor(threshold * k)
    want_ge = float(stats.binom.sf(m_ge - 1, k, p))
    want_le = float(stats.binom.cdf(m_le, k, p))
    assert _same_bits(got_ge, want_ge), (k, threshold, p, got_ge, want_ge)
    assert _same_bits(got_le, want_le), (k, threshold, p, got_le, want_le)


@pytest.mark.parametrize("k", ORACLE_KS)
def test_binomial_tails_equal_scipy_stats_bit_for_bit(k):
    # the tails call scipy.special's private boost kernels; scipy.stats.binom
    # is the public oracle, so a renamed or changed kernel fails here
    for threshold, p in _oracle_grid(k):
        _assert_scipy_stats_tails(
            k, threshold, p, binomial_tail_ge(k, p, threshold), binomial_tail_le(k, p, threshold)
        )


# This process imported scipy.stats, so the tails above took the kernels from
# the loaded scipy.special package.  A fresh interpreter loads them without it.
FRESH_TAILS = r"""
import importlib.util, json, sys, threading
from fractions import Fraction
from pauliverify import analysis

mode = sys.argv[1]
tried = []
if mode == "import_error":
    module_from_spec = importlib.util.module_from_spec

    def unimportable(spec):
        tried.append(spec.name)
        standin = module_from_spec(spec)
        standin.__path__ = []  # no submodule is found under the stand-in
        return standin

    importlib.util.module_from_spec = unimportable
release = threading.Event()
worker = threading.Thread(target=release.wait)
if mode == "second_thread":
    worker.start()
tails = [
    [analysis.binomial_tail_ge(k, float.fromhex(p), Fraction(t)).hex(),
     analysis.binomial_tail_le(k, float.fromhex(p), Fraction(t)).hex()]
    for k, t, p in json.load(sys.stdin)
]
release.set()
package = sys.modules.get("scipy.special")
result = {
    "tails": tails,
    "tried": tried,
    "ufuncs_loaded": "scipy.special._ufuncs" in sys.modules,
    # the executed package defines gamma; the stand-in defines nothing
    "package": None if package is None else hasattr(package, "gamma"),
}
import scipy.stats
from scipy.special import _ufuncs

cdf, sf = analysis._binomial_kernels()
result["same_kernels"] = _ufuncs._binom_cdf is cdf and _ufuncs._binom_sf is sf
result["binom_works"] = float(scipy.stats.binom.sf(2, 4, 0.5)) == 5 / 16
print(json.dumps(result))
"""
SRC = Path(analysis.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "mode, package",
    # the fresh path leaves no scipy.special module; the ordinary import leaves
    # the executed package, never the stand-in
    [("fresh", None), ("import_error", True), ("second_thread", True)],
)
def test_binomial_tails_in_a_fresh_interpreter_equal_scipy_stats_bit_for_bit(mode, package):
    cases = [(k, t, p) for k in ORACLE_KS for t, p in _oracle_grid(k)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_TAILS, mode],
        input=json.dumps([[k, str(t), p.hex()] for k, t, p in cases]),
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["tried"] == (["scipy.special"] if mode == "import_error" else [])
    assert result["ufuncs_loaded"]
    assert result["package"] is package
    # a later import of scipy.stats works and holds the very kernels the tails use
    assert result["same_kernels"] and result["binom_works"]
    assert len(result["tails"]) == len(cases)
    for (k, threshold, p), (got_ge, got_le) in zip(cases, result["tails"]):
        _assert_scipy_stats_tails(k, threshold, p, float.fromhex(got_ge), float.fromhex(got_le))


unit_floats = st.floats(0.0, 1.0, allow_nan=False)


@given(
    threshold=st.fractions(0, 2, max_denominator=10**6).filter(lambda t: 0 < t < 2),
    k=st.integers(1, 200),
)
def test_pass_cut_decides_every_pass_count_as_the_exact_rate_does(threshold, k):
    # the engine's verdicts and both binomial tails read the cut, not the rate
    low, high = pass_cut("<=", threshold, k), pass_cut(">=", threshold, k)
    for passes in range(k + 1):
        assert (Fraction(passes, k) <= threshold) == (passes <= low)
        assert (Fraction(passes, k) >= threshold) == (passes >= high)


@given(
    k=st.integers(1, 200),
    p=unit_floats,
    j=st.integers(-1, 201),
    inside=st.fractions(0, 1).filter(lambda f: f > 0),
)
def test_tail_ge_is_constant_between_rational_boundaries(k, p, j, inside):
    # every threshold in ((j-1)/k, j/k] asks for at least j passes
    threshold = Fraction(j - 1, k) + inside / k
    assert binomial_tail_ge(k, p, threshold) == binomial_tail_ge(k, p, Fraction(j, k))


@given(
    k=st.integers(1, 200),
    p=unit_floats,
    q=unit_floats,
    t1=st.fractions(-1, 2),
    t2=st.fractions(-1, 2),
)
def test_tail_ge_is_monotone_in_threshold_and_p(k, p, q, t1, t2):
    (p, q), (t1, t2) = sorted((p, q)), sorted((t1, t2))
    assert binomial_tail_ge(k, p, t1) >= binomial_tail_ge(k, p, t2)
    # the kernel rounds differently at neighbouring p: up to about 3e-15
    # downward between adjacent doubles, so p is compared within 1e-12
    assert binomial_tail_ge(k, q, t1) >= binomial_tail_ge(k, p, t1) - 1e-12


@given(k=st.integers(1, 200), p=unit_floats, j=st.integers(-1, 201))
def test_tail_ge_and_tail_le_below_it_sum_to_one(k, p, j):
    total = binomial_tail_ge(k, p, Fraction(j, k)) + binomial_tail_le(k, p, Fraction(j - 1, k))
    assert abs(total - 1.0) <= 1e-12


def test_quantity_tags():
    q = quantity(0.5, "exact")
    assert q == {"value": 0.5, "mode": "exact"}
    with pytest.raises(ValueError):
        quantity(1, "guess")


def test_robustness_sweep_endpoint_and_bound(rng):
    g = hypergraph(3, [(0, 1, 2), (0, 2)])
    params = desk_params("hypergraph", 3, k=60, m=0, epsilon=0.05)
    pts = robustness_sweep(
        prepare(g), maximally_mixed(3), [0.0, 0.02], params, runs=12, seed=5
    )
    assert pts[0].acceptance_rate == 1.0  # honest endpoint accepts always
    assert pts[0].per_group_ppass == pytest.approx((1.0, 1.0, 1.0))
    assert pts[1].per_group_ppass == pytest.approx((0.99, 0.99, 0.99))
    want_bound = 1 - 3 * np.exp(-2 * (0.02 - 0.05) ** 2 * 60)
    assert pts[1].bound == pytest.approx(want_bound)
    assert pts[1].bound_label == "stated"
    assert pts[0].bound_valid and pts[1].bound_valid  # both below epsilon
    assert acceptance_bound(4, 1000, 0.00868, 2 * 0.00868) < 0
    # at eps' = eps the bound degenerates to 1 - n
    assert acceptance_bound(3, 50, 0.1, 0.1) == pytest.approx(1 - 3)


def test_robustness_bound_validity_regime(rng):
    # when eps' exceeds eps the formula stops being a lower bound: the point
    # is flagged; within the valid regime a non-vacuous bound really holds
    g = hypergraph(3, [(0, 1, 2), (0, 2)])
    params = desk_params("hypergraph", 3, k=400, m=0, epsilon=0.2)
    pts = robustness_sweep(
        prepare(g), maximally_mixed(3), [0.05, 0.5], params, runs=20, seed=17
    )
    assert pts[0].bound_valid
    assert pts[0].bound > 0.99  # (eps - eps')^2 * k = 9, so 1 - 3e^-18
    assert pts[0].acceptance_rate >= pts[0].bound - 3 * max(pts[0].mc_sigma, 0.05)
    assert not pts[1].bound_valid
    assert pts[1].acceptance_rate < pts[1].bound  # the formula is vacuous here


@pytest.mark.parametrize(
    "runs, message",
    [(0, "runs must be at least 1, got 0"), (RUN_COUNT_CAP + 1, f"at most {RUN_COUNT_CAP}")],
)
def test_robustness_sweep_refuses_a_run_count_before_drawing_a_seed(monkeypatch, runs, message):
    def no_seeds(*args):
        raise AssertionError("a seed was drawn")

    monkeypatch.setattr(analysis, "run_seeds", no_seeds)
    params = desk_params("hypergraph", 2, k=5, m=0, epsilon=0.1)
    target = prepare(hypergraph(2, [(0, 1)]))
    with pytest.raises(ValueError, match=message):
        robustness_sweep(target, maximally_mixed(2), [0.0], params, runs=runs, seed=1)


def test_a_robustness_sweep_builds_no_density_matrix():
    # one 8-qubit density matrix is 1 MiB; a sweep point's mixture is read from
    # its parts (Born tables and expectation bands), so no point builds one
    n = 8
    gates = (
        [("H", (q,)) for q in range(n)]
        + [("T", (q,)) for q in range(n)]
        + [("CNOT", (q, q + 1)) for q in range(n - 1)]
    )
    target = prepare(circuit(n, gates))
    params = desk_params("circuit", n, k=20, m=0, epsilon=0.05)
    # the ideal's Born tables and the lazily imported tail kernels come first
    robustness_sweep(target, maximally_mixed(n), [0.0], params, runs=2, seed=3)
    tracemalloc.start()
    try:
        points = robustness_sweep(
            target, maximally_mixed(n), [0.01, 0.05, 0.1], params, runs=2, seed=3
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == 3
    assert peak < 1 << 20, peak


def test_robustness_sweep_is_deterministic():
    g = hypergraph(2, [(0, 1)])
    params = desk_params("hypergraph", 2, k=25, m=1, epsilon=0.1)
    args = ([0.0, 0.05, 0.1], params, 8, 99)
    first = robustness_sweep(prepare(g), maximally_mixed(2), *args)
    again = robustness_sweep(prepare(g), maximally_mixed(2), *args)
    assert [p.to_jsonable() for p in first] == [p.to_jsonable() for p in again]
    assert first[0].accepted == 8 and first[2].accepted < 8
