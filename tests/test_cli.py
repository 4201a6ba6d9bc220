import ctypes
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from pauliverify import cli
from pauliverify.cli import build_parser, load_target, main
from pauliverify.hypergraphs import stabilizer_dense
from pauliverify.paulis import PauliString
from pauliverify.protocol import (
    ENTANGLED_TOTAL_QUBIT_CAP,
    RUN_COUNT_CAP,
    check_run_sizes,
    prepare,
)
from pauliverify.single_copy import adaptive_test_exact_ppass
from pauliverify.states import apply_pauli, maximally_mixed

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"

SUBCOMMANDS = [
    "gen-hypergraph",
    "inspect",
    "ppass",
    "verify",
    "params",
    "iqp-margin",
    "robustness",
    "selftest",
]


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_help_contract(name, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([name, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert name in out or "usage" in out


def run_cli(args, capsys) -> tuple[int, str, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_golden(capsys):
    code, out, _ = run_cli(["params", "--protocol", "hypergraph", "--n", "2"], capsys)
    assert code == 0
    assert out == (GOLDEN / "params_hypergraph_n2.json").read_text()


def test_one_process_answers_each_call_as_a_fresh_one(capsys):
    # the parser is built once per process; no call may leave state for the next
    assert build_parser() is build_parser()
    verify = ["verify", "--config", str(DATA / "verify_hyper_honest.json")]
    params = ["params", "--protocol", "hypergraph", "--n", "2"]
    for argv, golden in [
        (verify, "verify_hyper_honest.json"),
        (params, "params_hypergraph_n2.json"),
        (verify, "verify_hyper_honest.json"),
    ]:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()
        for bad in (["verify"], ["params", "--protocol", "nope", "--n", "2"], ["no-such"]):
            code, out, err = run_cli(bad, capsys)
            assert (code, out) == (1, "")
            assert json.loads(err)["kind"] == "config"
    code, seeded, _ = run_cli(verify + ["--seed", "1"], capsys)
    assert seeded != (GOLDEN / "verify_hyper_honest.json").read_text()
    assert run_cli(verify, capsys)[1] == (GOLDEN / "verify_hyper_honest.json").read_text()


def test_gen_hypergraph_golden(capsys):
    code, out, _ = run_cli(
        ["gen-hypergraph", "--n", "4", "--edge-prob", "0.5", "--seed", "11"], capsys
    )
    assert code == 0
    assert out == (GOLDEN / "gen_hypergraph_n4_seed11.json").read_text()


def test_gen_hypergraph_writes_loadable_file(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    code, out, _ = run_cli(
        [
            "gen-hypergraph", "--n", "5", "--edge-prob", "0.4",
            "--seed", "3", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    manifest = json.loads(out)
    assert manifest["seed"] == 3
    from pauliverify.hypergraphs import load_hypergraph

    g, z = load_hypergraph(out_file)
    assert g.n == 5 and manifest["n_edges"] == len(g.edges)


# These goldens store the target path as given, "tests/data/triple.json", so
# their calls run from the root of the checkout and compare bytes.
TRIPLE = "tests/data/triple.json"


def test_inspect_golden(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(["inspect", TRIPLE], capsys)
    assert code == 0
    assert out == (GOLDEN / "inspect_triple.json").read_text()


def test_ppass_golden(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(["ppass", "--target", TRIPLE, "--state", "ideal"], capsys)
    assert code == 0
    assert out == (GOLDEN / "ppass_triple_ideal.json").read_text()


def test_verify_golden_and_determinism(tmp_path, capsys):
    config = DATA / "verify_hyper_honest.json"
    code, out1, _ = run_cli(["verify", "--config", str(config)], capsys)
    assert code == 0
    assert out1 == (GOLDEN / "verify_hyper_honest.json").read_text()
    code, out2, _ = run_cli(["verify", "--config", str(config)], capsys)
    assert out1 == out2
    # a different seed changes the bytes
    code, out3, _ = run_cli(["verify", "--config", str(config), "--seed", "1"], capsys)
    assert out3 != out1


def test_verify_trials_csv(tmp_path, capsys):
    csv_path = tmp_path / "trials.csv"
    code, out, _ = run_cli(
        [
            "verify", "--config", str(DATA / "verify_hyper_honest.json"),
            "--trials-csv", str(csv_path),
        ],
        capsys,
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "run,group,trial,register,branch,passed"
    assert len(lines) == 1 + 3 * 40  # n groups * k trials
    assert all(line.endswith(",1") for line in lines[1:])  # honest passes all


def test_verify_multi_run_summary(capsys):
    code, out, _ = run_cli(
        ["verify", "--config", str(DATA / "verify_hyper_honest.json"), "--runs", "3"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["runs"] == 3
    assert doc["accepted_runs"] == 3
    assert len(doc["reports"]) == 3


def test_verify_protocol_mismatch_is_config_error(tmp_path, capsys):
    bad = {
        "protocol": "ground",
        "target": str((DATA / "triple.json").resolve()),
        "params": {"mode": "desk", "k": 5},
        "seed": 1,
    }
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    code, out, err = run_cli(["verify", "--config", str(cfg)], capsys)
    assert code == 1
    assert json.loads(err)["kind"] == "config"


def test_verify_paper_mode_small_ground(tmp_path, capsys):
    cfg = {
        "protocol": "ground",
        "target": str((DATA / "minus_z.json").resolve()),
        "params": {"mode": "paper"},
        "prover": {"kind": "honest"},
        "seed": 9,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["verify", "--config", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["params"]["mode"] == "paper"
    assert doc["report"]["params"]["conforming"] is True
    assert doc["report"]["accepted"] is True  # honest ground at n=1


def test_verify_paper_mode_refuses_astronomical(tmp_path, capsys):
    cfg = {
        "protocol": "hypergraph",
        "target": str((DATA / "triple.json").resolve()),
        "params": {"mode": "paper"},
        "seed": 9,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["verify", "--config", str(path)], capsys)
    assert code == 1
    assert "report-only" in json.loads(err)["error"]


def test_iqp_margin_golden_and_report_input(tmp_path, capsys):
    code, out, _ = run_cli(["iqp-margin", "--fidelity", "0.9999"], capsys)
    assert code == 0
    assert out == (GOLDEN / "iqp_margin.json").read_text()
    code, out, _ = run_cli(
        ["iqp-margin", "--report", str(GOLDEN / "verify_hyper_honest.json")], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["margin"]["fidelity"] == pytest.approx(1.0)
    code, _, err = run_cli(["iqp-margin"], capsys)
    assert code == 1


HYPER6_ROBUSTNESS = [
    "robustness", "--target", "tests/data/hyper6.json",
    "--eps-prime", "0,0.02,0.1", "-k", "40", "--runs", "8", "--seed", "5",
]


def test_robustness_golden(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(
        [
            "robustness", "--target", TRIPLE,
            "--eps-prime", "0,0.05", "-k", "30", "--runs", "10", "--seed", "7",
        ],
        capsys,
    )
    assert code == 0
    assert out == (GOLDEN / "robustness_triple.json").read_text()


def test_robustness_hyper6_golden(capsys, monkeypatch):
    # four of hyper6's forms have four branches each, summed at every mixture point
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(HYPER6_ROBUSTNESS, capsys)
    assert code == 0
    assert out == (GOLDEN / "robustness_hyper6.json").read_text()


def test_robustness_circuit_golden(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(
        [
            "robustness", "--target", "tests/data/clifford_t.json",
            "--eps-prime", "0,0.05", "-k", "20", "--runs", "4", "--seed", "3",
        ],
        capsys,
    )
    assert code == 0
    assert out == (GOLDEN / "robustness_clifford_t.json").read_text()


def test_robustness_other_kinds_are_labeled_extrapolated(capsys):
    code, out, _ = run_cli(
        [
            "robustness", "--target", str(DATA / "minus_z.json"),
            "--eps-prime", "0.0,0.3", "-k", "20", "--runs", "6", "--seed", "2",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert all(p["bound"]["label"] == "extrapolated" for p in doc["points"])


def test_selftest_golden(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert out == (GOLDEN / "selftest.txt").read_text()


def test_error_paths(capsys, tmp_path):
    code, _, err = run_cli(["inspect", str(tmp_path / "missing.json")], capsys)
    assert code == 1
    assert json.loads(err)["kind"] == "config"
    # cap exceeded surfaces as exit 2
    big = {"n_vertices": 20, "edges": [[0, 1]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    code, _, err = run_cli(
        ["ppass", "--target", str(path), "--state", "ideal"], capsys
    )
    assert code == 2
    assert json.loads(err)["kind"] == "cap_exceeded"

# ---------------------------------------------------------------------------
# Run sizes fail loudly: exit 1 with JSON on stderr, never a traceback


def _hyper_config(tmp_path, **params) -> Path:
    cfg = {
        "protocol": "hypergraph",
        "target": str((DATA / "triple.json").resolve()),
        "params": {"mode": "desk", "k": 10, "m": 0, "epsilon": 0.1, **params},
        "prover": {"kind": "honest"},
        "seed": 5,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def _edited_config(tmp_path, **edit) -> Path:
    path = _hyper_config(tmp_path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    return path


def assert_config_error(code, out, err, needle):
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["kind"] == "config"
    assert needle in doc["error"]


def test_gen_hypergraph_refuses_a_negative_width(capsys):
    code, out, err = run_cli(["gen-hypergraph", "--n", "-2", "--edge-prob", "0.3"], capsys)
    assert_config_error(code, out, err, "random hypergraph needs a non-negative qubit count, got -2")


def test_verify_zero_runs_is_config_error(tmp_path, capsys):
    code, out, err = run_cli(
        ["verify", "--config", str(_hyper_config(tmp_path)), "--runs", "0"], capsys
    )
    assert_config_error(code, out, err, "runs must be at least 1")


def test_verify_negative_runs_is_config_error(tmp_path, capsys):
    code, out, err = run_cli(
        ["verify", "--config", str(_hyper_config(tmp_path)), "--runs", "-3"], capsys
    )
    assert_config_error(code, out, err, "runs must be at least 1")


def test_verify_null_k_is_config_error(tmp_path, capsys):
    code, out, err = run_cli(
        ["verify", "--config", str(_hyper_config(tmp_path, k=None))], capsys
    )
    assert_config_error(code, out, err, "k must be an integer, got null")


def test_robustness_zero_k_is_config_error(capsys):
    code, out, err = run_cli(
        [
            "robustness", "--target", str(DATA / "triple.json"),
            "--eps-prime", "0", "-k", "0", "--runs", "2", "--seed", "1",
        ],
        capsys,
    )
    assert_config_error(code, out, err, "k must be at least 1")


def test_robustness_zero_runs_is_config_error(capsys):
    code, out, err = run_cli(
        [
            "robustness", "--target", str(DATA / "triple.json"),
            "--eps-prime", "0", "-k", "5", "--runs", "0", "--seed", "1",
        ],
        capsys,
    )
    assert_config_error(code, out, err, "runs must be at least 1")


# The triple target has 3 vertices, so a desk run holds 3*k + m + 1 registers;
# with m = 0 the smallest k over the cap of 1_000_000 is 333_334.
SMALLEST_K_OVER_CAP = 333_334


def test_verify_desk_mode_enforces_the_register_cap(tmp_path, capsys):
    config = _hyper_config(tmp_path, k=SMALLEST_K_OVER_CAP)
    code, out, err = run_cli(["verify", "--config", str(config)], capsys)
    assert_config_error(code, out, err, "report-only")


def test_robustness_enforces_the_register_cap(capsys):
    code, out, err = run_cli(
        [
            "robustness", "--target", str(DATA / "triple.json"), "--eps-prime", "0",
            "-k", str(SMALLEST_K_OVER_CAP), "--runs", "1", "--seed", "1",
        ],
        capsys,
    )
    assert_config_error(code, out, err, "report-only")


def test_verify_prepares_the_target_once(tmp_path, capsys, monkeypatch):
    from pauliverify import hamiltonians

    diagonalized, eighs = [], []
    original_diagonalize, original_eigh = hamiltonians.exact_diagonalize, np.linalg.eigh

    def counting_diagonalize(h):
        diagonalized.append(h.n)
        return original_diagonalize(h)

    def counting_eigh(a, *args, **kwargs):
        eighs.append(a.shape)
        return original_eigh(a, *args, **kwargs)

    # prepare imports exact_diagonalize from hamiltonians when it runs
    monkeypatch.setattr(hamiltonians, "exact_diagonalize", counting_diagonalize)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    target = tmp_path / "ring.json"
    target.write_text(json.dumps({
        "n_qubits": 3,
        "terms": [
            {"pauli": "ZZI", "coeff": 1.0}, {"pauli": "IZZ", "coeff": 0.7},
            {"pauli": "XII", "coeff": 0.4}, {"pauli": "IXI", "coeff": 0.3},
        ],
    }))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "target": str(target), "params": {"mode": "desk", "k": 20}, "seed": 3,
    }))
    code, out, _ = run_cli(["verify", "--config", str(config), "--runs", "6"], capsys)
    assert code == 0
    assert len(json.loads(out)["reports"]) == 6
    # rescale, the ground projector and the ideal state share one eigh
    assert diagonalized == [3]
    assert eighs == [(8, 8)]


# ---------------------------------------------------------------------------
# Config blocks that are not JSON objects fail loudly


@pytest.mark.parametrize(
    "edit, extra_args, needle",
    [
        ({"params": None}, [], "params must be a JSON object, got null"),
        ({"params": [1]}, [], "params must be a JSON object, got [1]"),
        ({"params": None}, ["--mode", "desk"], "params must be a JSON object, got null"),
        ({"prover": None}, [], "prover must be a JSON object, got null"),
        ({"prover": "honest"}, [], 'prover must be a JSON object, got "honest"'),
    ],
)
def test_verify_config_block_that_is_not_an_object_is_config_error(
    tmp_path, capsys, edit, extra_args, needle
):
    path = _edited_config(tmp_path, **edit)
    code, out, err = run_cli(["verify", "--config", str(path), *extra_args], capsys)
    assert_config_error(code, out, err, needle)


@pytest.mark.parametrize("top", [[1], None])
def test_verify_config_that_is_not_an_object_is_config_error(tmp_path, capsys, top):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(top))
    code, out, err = run_cli(["verify", "--config", str(path)], capsys)
    assert_config_error(code, out, err, "the config must be a JSON object")


@pytest.mark.parametrize("target", [None, 5])
def test_verify_non_string_target_is_config_error(tmp_path, capsys, target):
    config = _edited_config(tmp_path, target=target)
    code, out, err = run_cli(["verify", "--config", str(config)], capsys)
    assert_config_error(code, out, err, f"target must be a string, got {json.dumps(target)}")


@pytest.mark.parametrize("seed", ["x", 1.5, True])
def test_verify_non_integer_seed_is_config_error(tmp_path, capsys, seed):
    config = _edited_config(tmp_path, seed=seed)
    code, out, err = run_cli(["verify", "--config", str(config)], capsys)
    expected = "a whole number" if seed == 1.5 else "an integer"
    assert_config_error(code, out, err, f"seed must be {expected}, got {json.dumps(seed)}")


@pytest.mark.parametrize(
    "entry", ["verify config", "verify --seed", "robustness", "gen-hypergraph", "selftest"]
)
def test_negative_seed_is_refused_with_its_field(tmp_path, capsys, entry):
    # numpy's own refusal ("expected non-negative integer") names no field
    config = _edited_config(tmp_path, seed=-3 if entry == "verify config" else 5)
    argv = {
        "verify config": ["verify", "--config", str(config)],
        "verify --seed": ["verify", "--config", str(config), "--seed", "-3"],
        "robustness": [
            "robustness", "--target", str(DATA / "triple.json"),
            "--eps-prime", "0", "-k", "5", "--runs", "2", "--seed", "-3",
        ],
        "gen-hypergraph": ["gen-hypergraph", "--n", "4", "--edge-prob", "0.5", "--seed", "-3"],
        "selftest": ["selftest", "--seed", "-3"],
    }[entry]
    code, out, err = run_cli(argv, capsys)
    assert_config_error(code, out, err, "seed must be a non-negative integer, got -3")


@pytest.mark.parametrize("kind", ["coherent_error", "classically_correlated"])
def test_verify_non_string_pauli_is_config_error(tmp_path, capsys, kind):
    config = _edited_config(tmp_path, prover={"kind": kind, "pauli": 5})
    code, out, err = run_cli(["verify", "--config", str(config)], capsys)
    assert_config_error(code, out, err, "pauli must be a string, got 5")


# ---------------------------------------------------------------------------
# robustness, ppass and verify share one prepared target


def _ring_hamiltonian(n: int, seed: int) -> dict:
    """An XX/YY/ZZ ring with X fields and no stated ground energy or gap."""
    rng = np.random.default_rng(seed)
    terms = []
    for i in range(n):
        for axis in "XYZ":
            pauli = ["I"] * n
            pauli[i] = pauli[(i + 1) % n] = axis
            terms.append({"pauli": "".join(pauli), "coeff": float(rng.uniform(0.5, 1.5))})
    for i in range(n):
        pauli = ["I"] * n
        pauli[i] = "X"
        terms.append({"pauli": "".join(pauli), "coeff": float(rng.uniform(0.2, 1.0))})
    return {"n_qubits": n, "terms": terms}


@pytest.mark.parametrize("n, seed", [(3, 1), (4, 0), (4, 2)])
def test_robustness_honest_point_equals_ppass_of_the_ideal(tmp_path, capsys, n, seed):
    target = tmp_path / "ring.json"
    target.write_text(json.dumps(_ring_hamiltonian(n, seed)))
    code, out, _ = run_cli(["ppass", "--target", str(target), "--state", "ideal"], capsys)
    assert code == 0
    ideal_ppass = json.loads(out)["p_pass"]["value"]
    code, out, _ = run_cli(
        [
            "robustness", "--target", str(target), "--eps-prime", "0", "-k", "5",
            "--runs", "1", "--seed", "1",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["points"][0]["per_group_ppass"][0]["value"] == ideal_ppass


def test_robustness_circuit_ppass_matches_closed_form(capsys):
    from pauliverify.circuits import all_stabilizer_decompositions, load_circuit

    eps_primes = [0.0, 0.1, 0.5]
    code, out, _ = run_cli(
        [
            "robustness", "--target", str(DATA / "ccz.json"),
            "--eps-prime", ",".join(map(str, eps_primes)), "-k", "10", "--runs", "2",
            "--seed", "4",
        ],
        capsys,
    )
    assert code == 0
    points = json.loads(out)["points"]
    decomps = all_stabilizer_decompositions(load_circuit(DATA / "ccz.json"))
    for e, point in zip(eps_primes, points):
        got = [q["value"] for q in point["per_group_ppass"]]
        # (1 - e) ideal + e I/d: <g> = (1 - e) + e * c, with c the identity coefficient
        want = []
        for d in decomps:
            c = sum(t.coeff for t in d.terms if t.is_identity)
            l1 = d.l1_norm
            want.append((1 - e) * (0.5 + 1 / (2 * l1)) + e * (0.5 + c / (2 * l1)))
        assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# Goldens of the parity-test protocols: a Hamiltonian ground-state target (the
# n=3, seed-1 ring above) and a Clifford+T circuit with T, H and CCZ gates.
# Targets are passed relative to tests/data, so the bytes hold in any checkout.

PARITY_VERIFY_GOLDENS = ["verify_ring3", "verify_clifford_t"]
PARITY_TARGET_GOLDENS = [
    (["ppass", "--target", "ring3.json", "--state", "deviated:0.1"], "ppass_ring3_deviated"),
    (["ppass", "--target", "clifford_t.json", "--state", "deviated:0.1"],
     "ppass_clifford_t_deviated"),
    (["inspect", "ring3.json"], "inspect_ring3"),
    (["inspect", "clifford_t.json"], "inspect_clifford_t"),
]


def check_verify_golden(name, runs, tmp_path, capsys):
    """``verify --runs RUNS --trials-csv`` on tests/data/NAME.json writes both goldens."""
    csv_path = tmp_path / "trials.csv"
    code, out, _ = run_cli(
        [
            "verify", "--config", str(DATA / f"{name}.json"), "--runs", str(runs),
            "--trials-csv", str(csv_path),
        ],
        capsys,
    )
    assert code == 0
    assert out == (GOLDEN / f"{name}_runs{runs}.json").read_text()
    assert csv_path.read_bytes() == (GOLDEN / f"{name}_runs{runs}.csv").read_bytes()


@pytest.mark.parametrize("name", PARITY_VERIFY_GOLDENS)
def test_parity_verify_golden_and_trials_csv(name, tmp_path, capsys):
    check_verify_golden(name, 3, tmp_path, capsys)


# Trial CSVs of the other label and source paths: adaptive "a=" labels (one of
# them empty, for an isolated vertex) with failed trials, and the scalar trial
# loop of an entangled prover.
# verify_triple_correlated's classically correlated prover fills both values of
# every varying report field: accepted and rejected runs, passed and failed
# groups, and fidelities of 0.0 and 0.9999999999999996.
TRIALS_CSV_GOLDENS = [
    ("verify_hyper6_deviated", 2),
    ("verify_cnot_t2_entangled", 3),
    ("verify_triple_correlated", 12),
]


@pytest.mark.parametrize("name, runs", TRIALS_CSV_GOLDENS)
def test_verify_golden_and_trials_csv(name, runs, tmp_path, capsys):
    check_verify_golden(name, runs, tmp_path, capsys)


@pytest.mark.parametrize("args, golden", PARITY_TARGET_GOLDENS)
def test_parity_target_golden(args, golden, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == (GOLDEN / f"{golden}.json").read_text()


# ---------------------------------------------------------------------------
# Out-of-range qubits, l1 norms and empty sweeps fail loudly


@pytest.mark.parametrize("qubit", ["9", "3", "-1"])
def test_ppass_phaseflip_out_of_range_is_config_error(capsys, qubit):
    code, out, err = run_cli(
        ["ppass", "--target", str(DATA / "triple.json"), "--state", f"phaseflip:{qubit}"],
        capsys,
    )
    assert_config_error(code, out, err, f"qubit {qubit} out of range for 3 qubits")


@pytest.mark.parametrize("kind", ["coherent_error", "classically_correlated"])
@pytest.mark.parametrize("qubit", [9, -1])
def test_verify_prover_qubit_out_of_range_is_config_error(tmp_path, capsys, kind, qubit):
    config = _edited_config(tmp_path, prover={"kind": kind, "pauli": "Z", "qubit": qubit})
    code, out, err = run_cli(["verify", "--config", str(config)], capsys)
    assert_config_error(code, out, err, f"qubit {qubit} out of range for 3 qubits")


@pytest.mark.parametrize("l1", ["inf", "-inf", "nan", "-1", "0"])
@pytest.mark.parametrize("protocol", ["ground", "circuit"])
def test_params_l1_that_is_not_finite_and_positive_is_config_error(capsys, l1, protocol):
    code, out, err = run_cli(
        ["params", "--protocol", protocol, "--n", "2", f"--l1={l1}"], capsys
    )
    assert_config_error(code, out, err, "l1 norm must be finite and positive")


def test_robustness_without_deviations_is_config_error(capsys):
    code, out, err = run_cli(
        [
            "robustness", "--target", str(DATA / "triple.json"),
            "--eps-prime", ",", "-k", "5", "--runs", "2", "--seed", "1",
        ],
        capsys,
    )
    assert_config_error(code, out, err, "eps-prime needs at least one deviation")


def test_robustness_refuses_every_deviation_before_the_first_point(capsys, monkeypatch):
    from pauliverify.single_copy import AdaptiveTest

    sampled = []
    monkeypatch.setattr(AdaptiveTest, "sample", lambda *args: sampled.append(args))
    code, out, err = run_cli(
        [
            "robustness", "--target", str(DATA / "triple.json"),
            "--eps-prime", "0,1.5", "-k", "5", "--runs", "2", "--seed", "1",
        ],
        capsys,
    )
    assert_config_error(code, out, err, "epsilon_prime must lie in [0, 1]")
    assert json.loads(err) == {"error": "epsilon_prime must lie in [0, 1]", "kind": "config"}
    assert sampled == []


@pytest.mark.parametrize(
    "outputs",
    [["--out", "missing/report.json"], ["--trials-csv", "missing/trials.csv"]],
    ids=["out", "trials-csv"],
)
def test_verify_refuses_a_missing_output_directory_before_loading(
    outputs, tmp_path, capsys, monkeypatch
):
    prepared = []
    monkeypatch.setattr("pauliverify.protocol.prepare", lambda *args: prepared.append(args))
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--config", str(DATA / "verify_ring3.json"), "--runs", "3"]
    csv_path = tmp_path / "trials.csv"
    if outputs[0] == "--out":
        argv += ["--trials-csv", str(csv_path)]
    code, out, err = run_cli([*argv, *outputs], capsys)
    assert_config_error(code, out, err, f"cannot write {outputs[1]}: missing is not a directory")
    assert prepared == []
    assert not csv_path.exists()


def test_robustness_refuses_a_missing_output_directory_before_loading(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "load_target", lambda *args: pytest.fail("target loaded"))
    (tmp_path / "file").write_text("")
    out_path = tmp_path / "file" / "robustness.json"
    code, out, err = run_cli(
        [
            "robustness", "--target", str(DATA / "triple.json"), "--eps-prime", "0",
            "-k", "5", "--runs", "2", "--seed", "1", "--out", str(out_path),
        ],
        capsys,
    )
    assert_config_error(code, out, err, f"{tmp_path / 'file'} is not a directory")


# ---------------------------------------------------------------------------
# The state selectors, prover fields and refusals that no golden runs


@pytest.mark.parametrize("target", ["triple.json", "ring3.json", "clifford_t.json"])
@pytest.mark.parametrize("selector", ["maximally-mixed", "pauli"])
def test_ppass_state_selector_is_the_library_state(capsys, target, selector):
    spec = load_target(DATA / target)[1]
    prepared = prepare(spec)
    if selector == "maximally-mixed":
        state = maximally_mixed(spec.n)
    else:
        axes = "ZX" + "I" * (spec.n - 2)
        selector = f"pauli:{axes}"
        state = apply_pauli(prepared.ideal, PauliString.from_axes(axes))
    code, out, _ = run_cli(["ppass", "--target", str(DATA / target), "--state", selector], capsys)
    assert code == 0
    doc = json.loads(out)
    # cmd_ppass evaluates a hypergraph on the dense stabilizer, the others by group_ppass
    if spec.kind == "hypergraph":
        got = doc["p_pass_per_vertex"]
        want = [
            adaptive_test_exact_ppass(state, f, stabilizer_dense(spec, f.vertex))
            for f in prepared.test.forms
        ]
    else:
        got = [doc["p_pass"]] if spec.kind == "hamiltonian" else doc["p_pass_per_qubit"]
        want = list(prepared.group_ppass(state))
    assert [q["value"] for q in got] == want


@pytest.mark.parametrize("kind", ["coherent_error", "classically_correlated"])
def test_verify_prover_pauli_may_be_a_full_axis_string(tmp_path, capsys, kind):
    reports = []
    for pauli in ({"pauli": "IZI"}, {"pauli": "Z", "qubit": 1}):
        config = _edited_config(tmp_path, prover={"kind": kind, **pauli})
        code, out, _ = run_cli(["verify", "--config", str(config)], capsys)
        assert code == 0
        reports.append(json.loads(out)["report"])
    assert reports[0] == reports[1]


def test_ppass_deviation_above_one_is_config_error(capsys):
    argv = ["ppass", "--target", str(DATA / "triple.json"), "--state", "deviated:1.5"]
    code, out, err = run_cli(argv, capsys)
    assert_config_error(code, out, err, "deviation must lie in [0, 1]")


def test_verify_other_eta_is_config_error(tmp_path, capsys):
    prover = {"kind": "iid_deviated", "epsilon_prime": 0.1, "eta": "dephased"}
    config = _edited_config(tmp_path, prover=prover)
    code, out, err = run_cli(["verify", "--config", str(config)], capsys)
    assert_config_error(code, out, err, "only the maximally mixed eta is configurable here")


def test_verify_unknown_params_mode_is_config_error(tmp_path, capsys):
    config = _hyper_config(tmp_path, mode="fast")
    code, out, err = run_cli(["verify", "--config", str(config)], capsys)
    assert_config_error(code, out, err, "params.mode must be 'desk' or 'paper'")


def test_iqp_margin_report_without_fidelity_is_config_error(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"report": {"target_fidelity": None}}))
    code, out, err = run_cli(["iqp-margin", "--report", str(path)], capsys)
    assert_config_error(code, out, err, "the report carries no target fidelity")


def test_target_file_of_no_known_kind_is_config_error(tmp_path, capsys):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"n_qubits": 2}))
    code, out, err = run_cli(["inspect", str(path)], capsys)
    assert_config_error(code, out, err, "not a hypergraph, circuit, or Hamiltonian file")


@pytest.mark.parametrize("command", ["inspect", "ppass", "robustness"])
def test_hamiltonian_of_one_level_is_config_error(tmp_path, capsys, command):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"n_qubits": 2, "terms": [{"pauli": "II", "coeff": 1.0}]}))
    argv = {
        "inspect": ["inspect", str(path)],
        "ppass": ["ppass", "--target", str(path)],
        "robustness": ["robustness", "--target", str(path), "--eps-prime", "0", "-k", "5"],
    }[command]
    code, out, err = run_cli(argv, capsys)
    assert_config_error(code, out, err, "spectrum is a single level; no gap exists")


# ---------------------------------------------------------------------------
# NaN, infinite and fractional inputs exit 1; no report carries NaN or Infinity


def test_verify_nan_p_bad_is_config_error(tmp_path, capsys):
    prover = {"kind": "classically_correlated", "pauli": "Z", "p_bad": float("nan")}
    config = _edited_config(tmp_path, prover=prover)
    code, out, err = run_cli(["verify", "--config", str(config)], capsys)
    assert_config_error(code, out, err, "p_bad must be a finite number, got NaN")


@pytest.mark.parametrize("target", ["ring3.json", "clifford_t.json", "triple.json"])
@pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
def test_inspect_budget_that_is_not_finite_and_non_negative_is_config_error(
    capsys, target, budget
):
    code, out, err = run_cli(
        ["inspect", str(DATA / target), f"--budget={budget}"], capsys
    )
    assert_config_error(code, out, err, "l1 budget must be finite and non-negative")


@pytest.mark.parametrize("error", ["nan", "inf", "-0.1"])
def test_iqp_margin_sampler_error_that_is_not_finite_and_non_negative_is_config_error(
    capsys, error
):
    code, out, err = run_cli(
        ["iqp-margin", "--fidelity", "0.9999", f"--sampler-error={error}"], capsys
    )
    assert_config_error(code, out, err, "sampler error must be finite and non-negative")


def test_canonical_json_refuses_nan_and_infinity():
    from pauliverify.reporting import canonical_json

    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            canonical_json({"x": value})


@pytest.mark.parametrize(
    "edit, needle",
    [
        ({"params": {"mode": "desk", "k": 10.7}}, "k must be a whole number, got 10.7"),
        (
            {"params": {"mode": "desk", "k": float("inf")}},
            "k must be a whole number, got Infinity",
        ),
        ({"params": {"mode": "desk", "k": 10, "m": 1.5}}, "m must be a whole number, got 1.5"),
        (
            {"prover": {"kind": "coherent_error", "pauli": "Z", "qubit": 0.5}},
            "qubit must be a whole number, got 0.5",
        ),
    ],
)
def test_verify_fractional_whole_number_field_is_config_error(
    tmp_path, capsys, edit, needle
):
    config = _edited_config(tmp_path, **edit)
    code, out, err = run_cli(["verify", "--config", str(config)], capsys)
    assert_config_error(code, out, err, needle)


def test_verify_whole_float_k_still_runs(tmp_path, capsys):
    config = _edited_config(tmp_path, params={"mode": "desk", "k": 10.0, "epsilon": 0.1})
    code, out, _ = run_cli(["verify", "--config", str(config)], capsys)
    assert code == 0
    assert all(g["trials"] == 10 for g in json.loads(out)["report"]["groups"])


@pytest.mark.parametrize("k", ["0", "-5"])
@pytest.mark.parametrize("protocol", ["ground", "circuit", "hypergraph"])
def test_params_k_below_one_is_config_error(capsys, k, protocol):
    # schedule_params took max(k_min, k), so a k below 1 reported the minimum
    code, out, err = run_cli(
        ["params", "--protocol", protocol, "--n", "2", f"--k={k}"], capsys
    )
    assert_config_error(code, out, err, f"k must be at least 1, got {k}")


def _peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn()`` runs."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak


def _refused_runs(argv, capsys) -> None:
    # run_seeds(1, 10**6) alone peaked at 50 MiB before the first run
    result = []
    peak = _peak_bytes(lambda: result.append(run_cli(argv, capsys)))
    assert_config_error(*result[0], f"runs must be at most {RUN_COUNT_CAP}")
    assert peak < 1 << 20


def test_verify_runs_over_cap_is_refused_before_any_allocation(tmp_path, capsys):
    config = str(_hyper_config(tmp_path))
    _refused_runs(["verify", "--config", config, "--runs", str(RUN_COUNT_CAP + 1)], capsys)


def test_robustness_runs_over_cap_is_refused_before_any_allocation(capsys):
    argv = [
        "robustness", "--target", str(DATA / "triple.json"), "--eps-prime", "0",
        "-k", "5", "--runs", str(RUN_COUNT_CAP + 1), "--seed", "1",
    ]
    _refused_runs(argv, capsys)


def test_runs_at_the_cap_are_accepted():
    check_run_sizes(RUN_COUNT_CAP)


# ---------------------------------------------------------------------------
# What a fresh process loads, and same seed, same bytes for robustness

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES_AFTER_MAIN = """
import json, sys
from pauliverify import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _script_result(argv, cwd, script) -> dict:
    """The last stdout line of ``script`` run on ``argv`` in a fresh interpreter, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, cwd=cwd, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return result


def _modules_after_main(argv, cwd, script=MODULES_AFTER_MAIN) -> set[str]:
    return set(_script_result(argv, cwd, script)["modules"])


def _run_module(module, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, env=env, cwd=ROOT
    )


def test_the_cli_module_runs_as_the_package_does():
    argv = ["params", "--protocol", "ground", "--n", "2", "--l1", "1"]
    via_cli, via_package = _run_module("pauliverify.cli", argv), _run_module("pauliverify", argv)
    assert via_cli.returncode == via_package.returncode == 0
    assert via_cli.stdout and via_cli.stdout == via_package.stdout
    bad = _run_module("pauliverify.cli", ["params", "--protocol", "nope", "--n", "2"])
    assert bad.returncode == 1 and bad.stdout == b""
    assert json.loads(bad.stderr)["kind"] == "config"
    assert "invalid choice: 'nope'" in json.loads(bad.stderr)["error"]


@pytest.mark.parametrize("target", ["clifford_t.json", "ring3.json"])
def test_robustness_never_loads_scipy_stats(target, tmp_path):
    argv = [
        "robustness", "--target", str(DATA / target), "--eps-prime", "0,0.05",
        "-k", "10", "--runs", "2", "--seed", "3", "--out", str(tmp_path / "out.json"),
    ]
    modules = _modules_after_main(argv, tmp_path)
    assert "scipy.special._ufuncs" in modules  # the tails did run
    # the compiled kernels only: not the package, nor scipy's array-API layer
    assert not {"scipy.special", "scipy.stats", "scipy._lib._array_api", "numpy.f2py"} & modules


def test_verify_never_loads_scipy(tmp_path):
    argv = ["verify", "--config", str(DATA / "verify_hyper_honest.json"),
            "--out", str(tmp_path / "out.json")]
    modules = _modules_after_main(argv, tmp_path)
    assert not any(m == "scipy" or m.startswith("scipy.") for m in modules)
    # a hypergraph run loads no module of the other kinds, nor analysis
    assert "pauliverify.hypergraphs" in modules
    assert not {"pauliverify.circuits", "pauliverify.hamiltonians", "pauliverify.analysis"} & modules


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--config", str(DATA / "verify_clifford_t.json")],
        ["inspect", str(DATA / "clifford_t.json")],
    ],
    ids=["verify", "inspect"],
)
def test_a_circuit_call_never_loads_hamiltonians(argv, tmp_path):
    # the l1 budget rule lives in schedules, so circuits needs no hamiltonians
    modules = _modules_after_main([*argv, "--out", str(tmp_path / "out.json")], tmp_path)
    assert "pauliverify.circuits" in modules
    assert "pauliverify.hamiltonians" not in modules


def test_importing_the_cli_loads_no_numpy(tmp_path):
    bare = 'import json, sys\nimport pauliverify.cli\nprint(json.dumps({"code": 0, "modules": sorted(sys.modules)}))'
    modules = _modules_after_main([], tmp_path, script=bare)
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("pauliverify")} == {
        "pauliverify", "pauliverify.cli", "pauliverify.reporting", "pauliverify.schedules"
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "--protocol", "hypergraph", "--n", "2"],
        ["params", "--protocol", "ground", "--n", "3", "--l1", "2.5"],
        ["iqp-margin", "--fidelity", "0.9999"],
        ["iqp-margin", "--report", str(GOLDEN / "verify_hyper_honest.json")],
    ],
    ids=["params-hypergraph", "params-ground", "iqp-margin-fidelity", "iqp-margin-report"],
)
def test_arithmetic_subcommands_run_without_numpy(argv, tmp_path):
    modules = _modules_after_main([*argv, "--out", str(tmp_path / "out.json")], tmp_path)
    assert "numpy" not in modules
    assert "ctypes" not in modules  # the heap policy is set where a target is loaded


# ---------------------------------------------------------------------------
# The CLI's heap policy: freed blocks stay for the next call, and no byte moves


def _ring_config(tmp_path, n: int = 8) -> Path:
    """A ground verify config on an n-qubit XX/YY/ZZ ring with X fields."""
    rng = np.random.default_rng(n)
    terms = []
    for i in range(n):
        for axis in "XYZ":
            letters = ["I"] * n
            letters[i] = letters[(i + 1) % n] = axis
            terms.append({"pauli": "".join(letters), "coeff": float(rng.uniform(0.5, 1.5))})
        field_term = ["I"] * n
        field_term[i] = "X"
        terms.append({"pauli": "".join(field_term), "coeff": float(rng.uniform(0.1, 1.0))})
    (tmp_path / "ring.json").write_text(json.dumps({"n_qubits": n, "terms": terms}))
    config = {
        "protocol": "ground",
        "target": "ring.json",
        "params": {"mode": "desk", "k": 20, "m": 1},
        "seed": 5,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path / "config.json"


# A fresh interpreter: a long-lived one may have freed some larger block,
# after which glibc raises its own thresholds, with or without the policy.
SECOND_CALL_FAULTS = """
import json, resource, sys
from pauliverify import cli
cli.main(sys.argv[1:])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = cli.main(sys.argv[1:])
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"code": code, "faults": faults, "applied": cli._keep_freed_memory()}))
"""


@pytest.mark.skipif("LD_PRELOAD" in os.environ, reason="a preloaded allocator ignores mallopt")
def test_a_repeated_verify_reuses_the_freed_heap(tmp_path):
    # without the policy, each call's 256x256 eigh faults about 1 000 pages back in
    argv = ["verify", "--config", str(_ring_config(tmp_path)), "--out", str(tmp_path / "out.json")]
    result = _script_result(argv, tmp_path, SECOND_CALL_FAULTS)
    if not result["applied"]:  # no glibc, or a glibc that refuses a 32 MiB mmap threshold
        pytest.skip("the C library did not take both mallopt settings")
    assert result["faults"] < 100


def _no_c_library(name):
    raise OSError("no C library")


def _no_default_library(name):
    raise TypeError("argument of type 'NoneType' is not iterable")  # CDLL(None) on Windows


@pytest.mark.parametrize(
    "cdll",
    [_no_c_library, _no_default_library, lambda name: object()],
    ids=["cdll-fails", "cdll-refuses-none", "no-mallopt"],
)
def test_verify_keeps_its_bytes_without_mallopt(cdll, monkeypatch, capsys):
    looked_up = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: looked_up.append(name) or cdll(name))
    monkeypatch.setattr(cli, "_keep_freed_memory", cli._keep_freed_memory.__wrapped__)
    code, out, _ = run_cli(["verify", "--config", str(DATA / "verify_hyper_honest.json")], capsys)
    assert looked_up == [None]
    assert (code, out) == (0, (GOLDEN / "verify_hyper_honest.json").read_text())


# Same bytes under any BLAS thread count.  OpenBLAS reads its thread count when
# numpy loads, so each count gets fresh interpreters, one golden of each kind.
BLAS_THREAD_GOLDENS = {
    "verify_ring3_runs3": ["verify", "--config", str(DATA / "verify_ring3.json"), "--runs", "3"],
    "verify_clifford_t_runs3": [
        "verify", "--config", str(DATA / "verify_clifford_t.json"), "--runs", "3",
    ],
    "verify_hyper6_deviated_runs2": [
        "verify", "--config", str(DATA / "verify_hyper6_deviated.json"), "--runs", "2",
    ],
    "robustness_clifford_t": [
        "robustness", "--target", "tests/data/clifford_t.json",
        "--eps-prime", "0,0.05", "-k", "20", "--runs", "4", "--seed", "3",
    ],
    "robustness_hyper6": HYPER6_ROBUSTNESS,
}


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_goldens_hold_under_any_blas_thread_count(threads, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    launched = {}
    for golden, argv in BLAS_THREAD_GOLDENS.items():
        if argv[0] == "verify":
            argv = [*argv, "--trials-csv", str(tmp_path / f"{golden}.csv")]
        launched[golden] = subprocess.Popen(
            [sys.executable, "-m", "pauliverify", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        )
    for golden, proc in launched.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert out == (GOLDEN / f"{golden}.json").read_bytes(), golden
        if golden.startswith("verify"):
            csv = (tmp_path / f"{golden}.csv").read_bytes()
            assert csv == (GOLDEN / f"{golden}.csv").read_bytes(), golden


@st.composite
def small_circuits(draw) -> dict:
    n = draw(st.integers(2, 4))
    gates = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            gates.append({"name": draw(st.sampled_from("HST")), "qubits": [draw(st.integers(0, n - 1))]})
        else:
            pair = draw(st.permutations(range(n)))[:2]
            gates.append({"name": draw(st.sampled_from(["CNOT", "CZ"])), "qubits": pair})
    return {"n_qubits": n, "gates": gates}


@st.composite
def small_hypergraphs(draw) -> dict:
    n = draw(st.integers(2, 4))
    candidates = [list(e) for size in (2, 3) for e in combinations(range(n), size)]
    edges = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4, unique_by=tuple))
    return {"n_vertices": n, "edges": edges}


@st.composite
def small_rings(draw) -> dict:
    n = draw(st.integers(2, 4))
    pairs = sorted({tuple(sorted((i, (i + 1) % n))) for i in range(n)})
    terms = []
    for pair in pairs:
        for axis in "XZ":
            pauli = ["I"] * n
            for q in pair:
                pauli[q] = axis
            terms.append({"pauli": "".join(pauli), "coeff": draw(st.floats(0.25, 2.0))})
    return {"n_qubits": n, "terms": terms}


@settings(max_examples=30)
@given(
    target=st.one_of(small_circuits(), small_hypergraphs(), small_rings()),
    eps_primes=st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.2]), min_size=1, max_size=3),
    k=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_robustness_replays_and_predicts_from_scipy_stats_tails(target, eps_primes, k, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "target.json"
        path.write_text(json.dumps(target))
        outs = [Path(tmp) / "a.json", Path(tmp) / "b.json"]
        for out in outs:
            argv = [
                "robustness", "--target", str(path), "--eps-prime",
                ",".join(map(str, eps_primes)), "-k", str(k), "--runs", "3",
                "--seed", str(seed), "--out", str(out),
            ]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        doc = json.loads(outs[0].read_text())
        spec = load_target(path)[1]
    prepared = prepare(spec)
    thresholds = prepared.thresholds(Fraction(doc["params"]["epsilon"]))
    for point in doc["points"]:
        predicted = 1.0
        for q, threshold in zip(point["per_group_ppass"], thresholds, strict=True):
            p = q["value"]
            if prepared.comparison == "<=":
                predicted *= float(stats.binom.cdf(math.floor(threshold * k), k, p))
            else:
                predicted *= float(stats.binom.sf(math.ceil(threshold * k) - 1, k, p))
        assert point["predicted_acceptance"]["value"] == predicted


PROVER_KINDS = [
    "honest", "iid_deviated", "coherent_error", "classically_correlated", "entangled_demo",
]


@st.composite
def verify_cases(draw, kind: str) -> tuple[dict, dict]:
    target = draw(st.one_of(small_circuits(), small_hypergraphs(), small_rings()))
    n = target.get("n_qubits", target.get("n_vertices"))
    groups = 1 if "terms" in target else n
    qubit = draw(st.integers(0, n - 1))
    prover = {
        "honest": {"kind": "honest"},
        "iid_deviated": {
            "kind": "iid_deviated", "epsilon_prime": draw(st.sampled_from([0.0, 0.05, 0.3])),
        },
        "coherent_error": {"kind": "coherent_error", "pauli": "Z", "qubit": qubit},
        "classically_correlated": {
            "kind": "classically_correlated", "pauli": "Z", "qubit": qubit, "p_bad": 0.5,
        },
        "entangled_demo": {
            "kind": "entangled_demo", "pauli": "Z", "qubit": qubit,
            "weight": draw(st.sampled_from([0.0, 0.3, 1.0])),
        },
    }[kind]
    m = draw(st.integers(0, 2))
    if kind == "entangled_demo":
        # the joint state holds n * (groups * k + m + 1) qubits
        k_max = (ENTANGLED_TOTAL_QUBIT_CAP // n - m - 1) // groups
        assume(k_max >= 1)
        k = draw(st.integers(1, k_max))
    else:
        k = draw(st.integers(1, 30))
    config = {
        "target": "target.json",
        "params": {"mode": "desk", "k": k, "m": m, "epsilon": 0.1},
        "prover": prover,
    }
    return target, config


@pytest.mark.parametrize("kind", PROVER_KINDS)
@settings(max_examples=15)
@given(data=st.data(), runs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_verify_replays_the_same_report_and_trials_csv(kind, data, runs, seed):
    target, config = data.draw(verify_cases(kind))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "target.json").write_text(json.dumps(target))
        (tmp / "config.json").write_text(json.dumps(config))
        outputs = []
        for replay in "ab":
            out, csv = tmp / f"{replay}.json", tmp / f"{replay}.csv"
            argv = [
                "verify", "--config", str(tmp / "config.json"), "--seed", str(seed),
                "--runs", str(runs), "--out", str(out), "--trials-csv", str(csv),
            ]
            assert main(argv) == 0
            outputs.append((out.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1]
    # the trial records add up to each group's pass count
    doc = json.loads(outputs[0][0])
    reports = [doc["report"]] if runs == 1 else doc["reports"]
    rows = outputs[0][1].decode().splitlines()[1:]
    passes = {}
    for row in rows:
        run, group, _, _, _, passed = row.split(",")
        passes[int(run), int(group)] = passes.get((int(run), int(group)), 0) + int(passed)
    for r, rep in enumerate(reports):
        assert rep["prover_kind"] == config["prover"]["kind"]
        for g in rep["groups"]:
            assert passes[r, g["group"]] == g["passes"]
