"""Seeded input generators for the three benchmark workloads.

Each generator takes the workload seed and an op index, writes the op's
target (and, for ``verify``, its config) as JSON into a work directory, and
returns an :class:`Op`: the CLI argument list plus what the output checker
needs to know.  The same (seed, op index) always gives the same files and the
same argument list, so an op can be replayed byte for byte.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

N_QUBITS = 8

# Sizes of each workload.  They are recorded in BENCHMARK.json as well.
HYPER_K = {
    "n": N_QUBITS, "edge_prob": 0.3, "k": 500, "m": 10, "epsilon": 0.05, "runs": 5,
    "provers": ["honest", "iid_deviated", "coherent_error", "classically_correlated"],
    "epsilon_prime": 0.02,
}
GROUND_RUNS = {
    "n": N_QUBITS, "terms": "XX+YY+ZZ ring and X fields", "k": 200, "m": 5, "runs": 10,
    "coupling": [0.5, 1.5], "field": [0.2, 1.0],
}
CIRCUIT_SWEEP = {
    "n": N_QUBITS, "depth": 6, "single_qubit_gates": ["H", "S", "T"],
    "two_qubit_gates": ["CNOT", "CZ"], "distinct_bases": [40, 100],
    "basis_rotations": [140, 160],
    "eps_prime": "0,0.01,0.02,0.05", "k": 50, "runs": 10,
}


@dataclass
class Op:
    """One CLI call and the facts its output is checked against."""

    index: int
    argv: list[str]
    out: Path
    csv: Path | None = None
    # What the checker compares against: prover kind, exact pass
    # probabilities, stabilizer l1 norms, ...  Filled by the generator.
    expect: dict = field(default_factory=dict)


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


# ---------------------------------------------------------------------------
# hyper-k: random pair/triple hypergraphs, four product-state provers


def random_hypergraph(n: int, edge_prob: float, rng: np.random.Generator) -> dict:
    """Every pair and triple of vertices is an edge with probability edge_prob."""
    edges = [
        list(combo)
        for size in (2, 3)
        for combo in combinations(range(n), size)
        if rng.random() < edge_prob
    ]
    return {"n_vertices": n, "edges": edges}


def _prover_config(kind: str, rng: np.random.Generator) -> dict:
    qubit = int(rng.integers(0, N_QUBITS))
    if kind == "honest":
        return {"kind": "honest"}
    if kind == "iid_deviated":
        return {"kind": "iid_deviated", "epsilon_prime": HYPER_K["epsilon_prime"],
                "eta": "maximally_mixed"}
    if kind == "coherent_error":
        return {"kind": "coherent_error", "pauli": "Z", "qubit": qubit}
    return {"kind": "classically_correlated", "p_bad": 0.5, "pauli": "Z", "qubit": qubit}


def gen_hyper_k(seed: int, index: int, work: Path) -> Op:
    rng = op_rng(seed, index)
    p = HYPER_K
    target = random_hypergraph(p["n"], p["edge_prob"], rng)
    kind = p["provers"][index % len(p["provers"])]
    config = {
        "protocol": "hypergraph",
        "target": "target.json",
        "params": {"mode": "desk", "k": p["k"], "m": p["m"], "epsilon": p["epsilon"]},
        "prover": _prover_config(kind, rng),
        "seed": _cli_seed(rng),
    }
    _write(work / "target.json", target)
    _write(work / "config.json", config)
    out = work / "out.json"
    argv = ["verify", "--config", str(work / "config.json"), "--runs", str(p["runs"]),
            "--out", str(out)]
    return Op(index, argv, out,
              expect={"kind": "hypergraph", "prover": config["prover"], "target": target,
                      "runs": p["runs"], "k": p["k"], "epsilon": p["epsilon"]})


# ---------------------------------------------------------------------------
# ground-runs: 2-local ring Hamiltonians without a stated ground energy or gap


def random_ring_hamiltonian(n: int, rng: np.random.Generator) -> dict:
    lo, hi = GROUND_RUNS["coupling"]
    flo, fhi = GROUND_RUNS["field"]
    terms = []
    for i in range(n):
        j = (i + 1) % n
        for axis in "XYZ":
            pauli = ["I"] * n
            pauli[i] = pauli[j] = axis
            terms.append({"pauli": "".join(pauli), "coeff": float(rng.uniform(lo, hi))})
    for i in range(n):
        pauli = ["I"] * n
        pauli[i] = "X"
        terms.append({"pauli": "".join(pauli), "coeff": float(rng.uniform(flo, fhi))})
    return {"n_qubits": n, "terms": terms}


def gen_ground_runs(seed: int, index: int, work: Path) -> Op:
    rng = op_rng(seed, index)
    p = GROUND_RUNS
    target = random_ring_hamiltonian(p["n"], rng)
    config = {
        "protocol": "ground",
        "target": "target.json",
        "params": {"mode": "desk", "k": p["k"], "m": p["m"]},
        "prover": {"kind": "honest"},
        "seed": _cli_seed(rng),
    }
    _write(work / "target.json", target)
    _write(work / "config.json", config)
    out, csv = work / "out.json", work / "trials.csv"
    argv = ["verify", "--config", str(work / "config.json"), "--runs", str(p["runs"]),
            "--trials-csv", str(csv), "--out", str(out)]
    return Op(index, argv, out, csv,
              expect={"kind": "hamiltonian", "prover": config["prover"], "target": target,
                      "runs": p["runs"], "k": p["k"]})


# ---------------------------------------------------------------------------
# circuit-sweep: Clifford+T circuits with banded Born-table work


def random_clifford_t(n: int, depth: int, rng: np.random.Generator) -> dict:
    """Layers of random H/S/T on every qubit, then a random CNOT/CZ pairing."""
    singles = CIRCUIT_SWEEP["single_qubit_gates"]
    doubles = CIRCUIT_SWEEP["two_qubit_gates"]
    gates = []
    for _ in range(depth):
        for q in range(n):
            gates.append({"name": singles[int(rng.integers(len(singles)))], "qubits": [q]})
        order = rng.permutation(n)
        for a, b in zip(order[0::2], order[1::2]):
            name = doubles[int(rng.integers(len(doubles)))]
            gates.append({"name": name, "qubits": [int(a), int(b)]})
    return {"n_qubits": n, "gates": gates}


def stabilizer_summary(target: dict):
    """Per-qubit (l1 norm, identity coefficient), distinct bases, basis rotations.

    A basis rotation is one X or Y letter of a distinct measured basis: each
    costs a tensor contraction when a Born table is built, so their total
    predicts an op's cost far better than the number of bases does.
    """
    from pauliverify.circuits import all_stabilizer_decompositions, load_circuit

    decomps = all_stabilizer_decompositions(load_circuit(target))
    bases = {t.axes for d in decomps for t in d.terms}
    rotations = sum(b.count("X") + b.count("Y") for b in bases)
    summary = [
        (d.l1_norm, sum(t.coeff for t in d.terms if t.is_identity)) for d in decomps
    ]
    return summary, len(bases), rotations


def gen_circuit_sweep(seed: int, index: int, work: Path) -> Op:
    rng = op_rng(seed, index)
    p = CIRCUIT_SWEEP
    (lo, hi), (rot_lo, rot_hi) = p["distinct_bases"], p["basis_rotations"]
    while True:
        target = random_clifford_t(p["n"], p["depth"], rng)
        summary, n_bases, rotations = stabilizer_summary(target)
        if lo <= n_bases <= hi and rot_lo <= rotations <= rot_hi:
            break
    _write(work / "target.json", target)
    out = work / "out.json"
    argv = ["robustness", "--target", str(work / "target.json"),
            "--eps-prime", p["eps_prime"], "-k", str(p["k"]), "--runs", str(p["runs"]),
            "--seed", str(_cli_seed(rng)), "--out", str(out)]
    return Op(index, argv, out,
              expect={"kind": "circuit", "stabilizers": summary,
                      "eps_primes": [float(x) for x in p["eps_prime"].split(",")],
                      "runs": p["runs"], "k": p["k"]})


GENERATORS = {
    "hyper-k": gen_hyper_k,
    "ground-runs": gen_ground_runs,
    "circuit-sweep": gen_circuit_sweep,
}
PARAMS = {"hyper-k": HYPER_K, "ground-runs": GROUND_RUNS, "circuit-sweep": CIRCUIT_SWEEP}
