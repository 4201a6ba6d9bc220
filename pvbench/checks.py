"""Output checks: a benchmark op that exits 0 with a wrong report still fails.

The checks recompute every verdict from the numbers the report itself
states, compare pass counts with exact pass probabilities computed outside
the timed region, and cross-check the trial CSV against the report.
Statistical checks use a fixed 6-sigma window (normal) or a 1e-9 two-sided
exact binomial test, so a correct program fails one of them far less often
than once in all the runs a benchmark campaign makes.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

SIGMA_WINDOW = 6.0
BINOMIAL_ALPHA = 1e-9
FLOAT_TOL = 1e-9


def _verdict(passes: int, trials: int, threshold: Fraction, comparison: str) -> bool:
    rate = Fraction(passes, trials)
    if comparison == ">=":
        return rate >= threshold
    if comparison == "<=":
        return rate <= threshold
    raise ValueError(f"unknown comparison {comparison!r}")


def check_report(rep: dict, expect: dict) -> list[str]:
    """Recompute each group's verdict and the overall acceptance of one run."""
    problems = []
    groups = rep["groups"]
    hyper = expect["kind"] == "hypergraph"
    n_groups = expect["target"]["n_vertices"] if hyper else 1
    if len(groups) != n_groups:
        problems.append(f"{len(groups)} groups, expected {n_groups}")
    all_passed = True
    for g in groups:
        if g["trials"] != expect["k"] or not 0 <= g["passes"] <= g["trials"]:
            problems.append(f"group {g['group']}: passes/trials {g['passes']}/{g['trials']}")
            continue
        threshold = Fraction(g["threshold"])
        if hyper and threshold != 1 - Fraction(str(expect["epsilon"])):
            problems.append(f"group {g['group']}: threshold {g['threshold']}")
        expected_cmp = ">=" if hyper else "<="
        if g["comparison"] != expected_cmp:
            problems.append(f"group {g['group']}: comparison {g['comparison']}")
            continue
        passed = _verdict(g["passes"], g["trials"], threshold, g["comparison"])
        if passed != g["passed"]:
            problems.append(f"group {g['group']}: passed={g['passed']}, recomputed {passed}")
        all_passed &= passed
    if rep["accepted"] != all_passed:
        problems.append(f"accepted={rep['accepted']}, recomputed {all_passed}")
    return problems


def check_pooled_rates(reports: list[dict], ppass: list[float], k: int) -> list[str]:
    """Each group's pass rate, pooled over the runs, within 6 sigma of ppass."""
    problems = []
    for i, p in enumerate(ppass):
        passes = sum(rep["groups"][i]["passes"] for rep in reports)
        n = k * len(reports)
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / n)
        if abs(passes / n - p) > SIGMA_WINDOW * sigma + FLOAT_TOL:
            problems.append(f"group {i}: pooled rate {passes / n:.5f} vs exact {p:.5f}")
    return problems


def check_trials_csv(text: str, reports: list[dict], k: int) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "run,group,trial,register,branch,passed":
        return ["trials CSV header"]
    per_run = [0] * len(reports)
    rows = 0
    for line in lines[1:]:
        run, _group, _trial, _register, _branch, passed = line.split(",")
        per_run[int(run)] += int(passed)
        rows += 1
    problems = []
    if rows != k * len(reports):
        problems.append(f"trials CSV has {rows} rows, expected {k * len(reports)}")
    for r, rep in enumerate(reports):
        if per_run[r] != sum(g["passes"] for g in rep["groups"]):
            problems.append(f"run {r}: CSV passes {per_run[r]} differ from the report")
    return problems


def check_verify(doc: dict, expect: dict, ppass: list[float] | None, csv_text=None):
    runs = expect["runs"]
    reports = doc["reports"] if runs > 1 else [doc["report"]]
    if doc.get("runs") != runs or len(reports) != runs:
        return [f"expected {runs} reports"]
    problems = []
    for rep in reports:
        problems += check_report(rep, expect)
    if runs > 1:
        accepted = sum(rep["accepted"] for rep in reports)
        if doc["accepted_runs"] != accepted or doc["acceptance_rate"] != accepted / runs:
            problems.append("accepted_runs/acceptance_rate disagree with the reports")
    if ppass is not None and not problems:
        problems += check_pooled_rates(reports, ppass, expect["k"])
    if csv_text is not None:
        problems += check_trials_csv(csv_text, reports, expect["k"])
    return problems


def binomial_tail_ge(k: int, p: float, threshold: Fraction) -> float:
    """P[K/k >= threshold] for K ~ Binomial(k, p), summed term by term."""
    m = -((-threshold.numerator * k) // threshold.denominator)
    p = min(max(p, 0.0), 1.0)
    terms = (math.comb(k, j) * p**j * (1.0 - p) ** (k - j) for j in range(max(m, 0), k + 1))
    return math.fsum(terms)


def _binomial_consistent(count: int, n: int, p: float) -> bool:
    """Two-sided exact test: is ``count`` a plausible draw of Binomial(n, p)?"""
    p = min(max(p, 0.0), 1.0)
    pmf = [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]
    return min(math.fsum(pmf[: count + 1]), math.fsum(pmf[count:])) >= BINOMIAL_ALPHA


def check_robustness(doc: dict, expect: dict) -> list[str]:
    """Exact per-group pass probabilities, predicted acceptance, observed counts.

    For the deviated state (1 - e') ideal + e' I/2^n, the stabilizer test of
    qubit i passes with probability (1 - e')(1/2 + 1/(2 l1)) + e'(1/2 + c/(2 l1)),
    where c is the identity coefficient of the stabilizer's Pauli expansion.
    """
    problems = []
    points = doc["points"]
    if [pt["eps_prime"] for pt in points] != expect["eps_primes"]:
        return ["sweep points differ from the requested deviations"]
    k = doc["params"]["k"]
    epsilon = Fraction(doc["params"]["epsilon"])
    if k != expect["k"]:
        problems.append(f"k={k}")
    for pt in points:
        e = pt["eps_prime"]
        if pt["runs"] != expect["runs"] or not 0 <= pt["accepted"] <= pt["runs"]:
            problems.append(f"eps'={e}: accepted {pt['accepted']} of {pt['runs']}")
            continue
        if pt["acceptance_rate"]["value"] != pt["accepted"] / pt["runs"]:
            problems.append(f"eps'={e}: acceptance rate")
        predicted = 1.0
        reported = [q["value"] for q in pt["per_group_ppass"]]
        for i, (l1, ident) in enumerate(expect["stabilizers"]):
            p = (1 - e) * (0.5 + 0.5 / l1) + e * (0.5 + 0.5 * ident / l1)
            if abs(reported[i] - p) > FLOAT_TOL:
                problems.append(f"eps'={e}: group {i} ppass {reported[i]} vs {p}")
            threshold = Fraction(1, 2) + (1 - epsilon) / (2 * Fraction(l1))
            predicted *= binomial_tail_ge(k, p, threshold)
        claimed = pt["predicted_acceptance"]["value"]
        if abs(claimed - predicted) > 1e-6 * max(predicted, 1e-6):
            problems.append(f"eps'={e}: predicted acceptance {claimed} vs {predicted}")
        if not _binomial_consistent(pt["accepted"], pt["runs"], predicted):
            problems.append(f"eps'={e}: {pt['accepted']} accepted runs, predicted {predicted}")
    return problems


def exact_ppass(expect: dict) -> list[float] | None:
    """Per-group exact pass probabilities of the prover's state.

    Only honest and i.i.d.-deviated provers have a fixed per-register state;
    for the others the pooled-rate check does not apply and None is returned.
    """
    from pauliverify import (
        adaptive_test_exact_ppass, all_adaptive_forms, build_state, energy_test_exact_ppass,
        ground_state, load_hamiltonian, load_hypergraph, maximally_mixed, mixed_state,
        rescale, stabilizer_dense, to_density,
    )

    prover = expect["prover"]
    if prover["kind"] not in ("honest", "iid_deviated"):
        return None
    if expect["kind"] == "hamiltonian":
        h = load_hamiltonian(expect["target"])
        return [energy_test_exact_ppass(ground_state(h), rescale(h))]
    g, _ = load_hypergraph(expect["target"])
    state = build_state(g)
    if prover["kind"] == "iid_deviated":
        e = prover["epsilon_prime"]
        state = mixed_state((1 - e) * to_density(state).data + e * maximally_mixed(g.n).data)
    return [
        adaptive_test_exact_ppass(state, form, stabilizer_dense(g, form.vertex))
        for form in all_adaptive_forms(g)
    ]


def check_output(expect: dict, out_text: str, ppass=None, csv_text=None) -> list[str]:
    """All checks of one op's output; an empty list means it is correct."""
    try:
        doc = json.loads(out_text)
        if expect["kind"] == "circuit":
            return check_robustness(doc, expect)
        return check_verify(doc, expect, ppass, csv_text)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
