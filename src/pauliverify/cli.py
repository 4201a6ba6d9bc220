"""Command-line front end.

Every subcommand echoes its seed and emits canonical JSON, so identical
invocations produce identical bytes.  Exit codes: 0 success, 1 config or
validation error (machine-readable JSON on stderr), 2 dense-simulation cap
exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, reporting
from .circuits import (
    CircuitSpec,
    all_stabilizer_decompositions,
    check_circuit_conditions,
    load_circuit,
)
from .hamiltonians import HamiltonianSpec, check_conditions, load_hamiltonian, rescale
from .hypergraphs import (
    HypergraphSpec,
    adaptive_form,
    all_adaptive_forms,
    connectivity,
    hypergraph_to_jsonable,
    load_hypergraph,
    random_bms_instance,
    stabilizer_dense,
)
from .paulis import CapExceededError, PauliString
from .protocol import (
    PROTOCOL_FOR_KIND,
    RUN_COUNT_CAP,
    ProtocolParams,
    ProverModel,
    classically_correlated_prover,
    coherent_error_prover,
    desk_params,
    entangled_demo_prover,
    honest_prover,
    iid_deviated_prover,
    prepare,
    run_seeds,
    schedule_epsilon,
    schedule_params,
)
from .single_copy import adaptive_test_exact_ppass
from .states import DenseState, apply_pauli, maximally_mixed, mixture


def _fresh_seed() -> int:
    return int(np.random.SeedSequence().entropy % (2**63 - 1))


def _emit(obj, out: str | None) -> None:
    text = reporting.canonical_json(obj)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Target loading


def load_target(path: str | Path):
    """Detect and load a hypergraph, Hamiltonian, or circuit JSON file."""
    obj = json.loads(Path(path).read_text())
    if "n_vertices" in obj:
        g, z_layer = load_hypergraph(obj)
        return "hypergraph", g, z_layer
    if "gates" in obj:
        return "circuit", load_circuit(obj), None
    if "terms" in obj:
        return "hamiltonian", load_hamiltonian(obj), None
    raise ValueError(f"{path}: not a hypergraph, circuit, or Hamiltonian file")


def parse_state_spec(spec: str, ideal: DenseState) -> DenseState:
    """State selectors for the ppass subcommand.

    ideal | maximally-mixed | deviated:EPS | phaseflip:QUBIT | pauli:AXES
    """
    if spec == "ideal":
        return ideal
    if spec == "maximally-mixed":
        return maximally_mixed(ideal.n)
    if spec.startswith("deviated:"):
        eps = float(spec.split(":", 1)[1])
        if not 0.0 <= eps <= 1.0:
            raise ValueError("deviation must lie in [0, 1]")
        return mixture(ideal, maximally_mixed(ideal.n), eps)
    if spec.startswith("phaseflip:"):
        qubit = int(spec.split(":", 1)[1])
        return apply_pauli(ideal, PauliString.on_qubit(ideal.n, qubit, "Z"))
    if spec.startswith("pauli:"):
        return apply_pauli(ideal, PauliString.from_axes(spec.split(":", 1)[1]))
    raise ValueError(f"unknown state spec {spec!r}")


def _config_object(cfg: dict, key: str, default: dict) -> dict:
    """``cfg[key]`` as a JSON object; any other value is a config error."""
    value = cfg.get(key, default)
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a JSON object, got {json.dumps(value)}")
    return value


def _config_number(cfg: dict, key: str, cast=float, default=None):
    """``cfg[key]`` as a number; a missing, null or non-numeric value is a config error.

    With ``cast=int``, a float that is not a whole number is one too.
    """
    value = cfg.get(key, default)
    if value is None or isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {json.dumps(value)}")
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be a whole number, got {json.dumps(value)}")
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {json.dumps(value)}") from None


def _config_typed(cfg: dict, key: str, kind: type, default=None):
    """``cfg[key]`` as a ``kind`` (str or int; a bool is not an int), else a config error."""
    value = cfg.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        name = "a string" if kind is str else "an integer"
        raise ValueError(f"{key} must be {name}, got {json.dumps(value)}")
    return value


def check_run_sizes(k: int, m: int, runs: int) -> None:
    """Reject run sizes that leave nothing to test or to average over.

    Runs above RUN_COUNT_CAP are refused here, before any per-run seed is drawn.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if m < 0:
        raise ValueError(f"m must be at least 0, got {m}")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if runs > RUN_COUNT_CAP:
        raise ValueError(f"runs must be at most {RUN_COUNT_CAP}, got {runs}")


def _pauli_from_config(cfg: dict, n: int) -> PauliString:
    """One letter on ``qubit`` (default 0), or a full axis string."""
    axis = _config_typed(cfg, "pauli", str, "Z")
    if len(axis) == 1:
        return PauliString.on_qubit(n, _config_number(cfg, "qubit", int, 0), axis)
    return PauliString.from_axes(axis)


def prover_from_config(cfg: dict, ideal: DenseState) -> ProverModel:
    kind = cfg.get("kind", "honest")
    if kind == "honest":
        return honest_prover(ideal)
    if kind == "iid_deviated":
        eta_spec = cfg.get("eta", "maximally_mixed")
        if eta_spec != "maximally_mixed":
            raise ValueError("only the maximally mixed eta is configurable here")
        return iid_deviated_prover(
            ideal, _config_number(cfg, "epsilon_prime"), maximally_mixed(ideal.n)
        )
    if kind == "coherent_error":
        return coherent_error_prover(ideal, _pauli_from_config(cfg, ideal.n))
    if kind == "classically_correlated":
        bad = apply_pauli(ideal, _pauli_from_config(cfg, ideal.n))
        p_bad = _config_number(cfg, "p_bad", float, 0.5)
        return classically_correlated_prover([ideal, bad], [1 - p_bad, p_bad])
    if kind == "entangled_demo":
        bad = apply_pauli(ideal, _pauli_from_config(cfg, ideal.n))
        return entangled_demo_prover(ideal, bad, _config_number(cfg, "weight", float, 0.5))
    raise ValueError(f"unknown prover kind {kind!r}")


def params_from_config(
    protocol: str, n: int, cfg: dict, l1_norm: float | None, runs: int = 1
) -> ProtocolParams:
    """Run parameters from the config's params block, with every size checked.

    The register cap is checked by the protocol engine, before a run
    allocates anything sized by it.
    """
    mode = cfg.get("mode", "desk")
    if mode == "paper":
        k = _config_number(cfg, "k", int) if cfg.get("k") is not None else None
        params = schedule_params(protocol, n, l1_norm=l1_norm, k=k)
        check_run_sizes(params.k, params.m, runs)
        return params
    if mode != "desk":
        raise ValueError("params.mode must be 'desk' or 'paper'")
    if "k" not in cfg:
        raise ValueError("desk mode needs an explicit k")
    k = _config_number(cfg, "k", int)
    m = _config_number(cfg, "m", int, 0)
    check_run_sizes(k, m, runs)
    eps = (
        Fraction(str(_config_number(cfg, "epsilon")))
        if "epsilon" in cfg
        else schedule_epsilon(protocol, n, k)
    )
    return desk_params(protocol, n, k=k, m=m, epsilon=eps)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_hypergraph(args) -> int:
    seed = args.seed if args.seed is not None else _fresh_seed()
    g, z_layer = random_bms_instance(args.n, args.edge_prob, np.random.default_rng(seed))
    payload = hypergraph_to_jsonable(g, z_layer)
    manifest = {
        "command": "gen-hypergraph",
        "seed": seed,
        "n": args.n,
        "edge_prob": args.edge_prob,
        "n_edges": len(g.edges),
        "z_layer_size": len(z_layer),
        "out": args.out,
    }
    if args.out:
        Path(args.out).write_text(reporting.canonical_json(payload))
    else:
        manifest["hypergraph"] = payload
    sys.stdout.write(reporting.canonical_json(manifest))
    return 0


def _inspect_hypergraph(g: HypergraphSpec, z_layer) -> dict:
    xi, per_vertex = connectivity(g)
    stabilizers = []
    alpha_ever_one = False
    for v in range(g.n):
        form = adaptive_form(g, v)
        entry = {
            "vertex": v,
            "z_neighbors": list(form.z_neighbors),
            "cz_groups": [list(grp) for grp in form.cz_groups],
            "projector_support": list(form.projector_support),
        }
        if len(form.projector_support) <= 4:
            branches = []
            for a, alpha, residual in form.branch_table():
                alpha_ever_one |= bool(alpha)
                branches.append(
                    {
                        "a": "".join(str(b) for b in a),
                        "sign": "-" if alpha else "+",
                        "z_vertices": list(residual),
                    }
                )
            entry["branches"] = branches
        stabilizers.append(entry)
    return {
        "kind": "hypergraph",
        "n_qubits": g.n,
        "n_edges": len(g.edges),
        "connectivity": xi,
        "connectivity_per_vertex": per_vertex,
        "z_layer": list(z_layer or ()),
        "stabilizers": stabilizers,
        "alpha_ever_one": alpha_ever_one,
    }


def _inspect_hamiltonian(h: HamiltonianSpec, budget) -> dict:
    rh = rescale(h)
    report = check_conditions(rh, budget)
    terms = [{"pauli": t.axes, "coeff": t.coeff} for t in rh.terms[:64]]
    return {
        "kind": "hamiltonian",
        "n_qubits": h.n,
        "ground_energy_used": rh.e0_used,
        "gap_used": rh.gap_used,
        "oracle_assisted": rh.oracle_assisted,
        "l1_norm": rh.l1_norm,
        "n_terms": len(rh.terms),
        "rescaled_terms": terms,
        "terms_truncated": len(rh.terms) > 64,
        "conditions": report.to_jsonable(),
    }


def _inspect_circuit(c: CircuitSpec, budget) -> dict:
    decomps = all_stabilizer_decompositions(c)
    report = check_circuit_conditions(decomps, budget)
    stabilizers = []
    for qubit, d in enumerate(decomps):
        entry = {
            "qubit": qubit,
            "l1_norm": d.l1_norm,
            "n_terms": len(d.terms),
        }
        if len(d.terms) <= 16:
            entry["terms"] = [{"pauli": t.axes, "coeff": t.coeff} for t in d.terms]
        stabilizers.append(entry)
    return {
        "kind": "circuit",
        "n_qubits": c.n,
        "n_gates": len(c.gates),
        "stabilizers": stabilizers,
        "conditions": report.to_jsonable(),
    }


def cmd_inspect(args) -> int:
    kind, target, z_layer = load_target(args.target)
    if kind == "hypergraph":
        out = _inspect_hypergraph(target, z_layer)
    elif kind == "hamiltonian":
        out = _inspect_hamiltonian(target, args.budget)
    else:
        out = _inspect_circuit(target, args.budget)
    out["target"] = str(args.target)
    _emit(out, args.out)
    return 0


def cmd_ppass(args) -> int:
    kind, target, _ = load_target(args.target)
    prepared = prepare(kind, target)
    state = parse_state_spec(args.state, prepared.ideal)
    result = {
        "command": "ppass",
        "target": str(args.target),
        "kind": kind,
        "state": args.state,
    }
    if kind == "hypergraph":
        # <g> from the dense stabilizer, not the branch sum of group_ppass;
        # the two can differ in the last bit
        result["p_pass_per_vertex"] = [
            analysis.quantity(
                adaptive_test_exact_ppass(state, f, stabilizer_dense(target, f.vertex)),
                "exact",
            )
            for f in all_adaptive_forms(target)
        ]
    else:
        ppass = [analysis.quantity(p, "exact") for p in prepared.group_ppass(state)]
        if kind == "hamiltonian":
            result["p_pass"] = ppass[0]
            result["l1_norm"] = prepared.l1_norm
        else:
            result["p_pass_per_qubit"] = ppass
            result["l1_per_qubit"] = list(prepared.group_l1)
    _emit(result, args.out)
    return 0


def cmd_verify(args) -> int:
    config_path = Path(args.config)
    cfg = json.loads(config_path.read_text())
    if not isinstance(cfg, dict):
        raise ValueError(f"the config must be a JSON object, got {json.dumps(cfg)}")
    params_cfg = _config_object(cfg, "params", {})
    prover_cfg = _config_object(cfg, "prover", {"kind": "honest"})
    if args.mode is not None:
        params_cfg["mode"] = args.mode
        cfg["params"] = params_cfg
    target_path = Path(_config_typed(cfg, "target", str))
    if not target_path.is_absolute():
        target_path = config_path.parent / target_path
    seed = args.seed
    if seed is None:
        seed = _fresh_seed() if cfg.get("seed") is None else _config_typed(cfg, "seed", int)
    kind, target, _ = load_target(target_path)
    protocol = cfg.get("protocol", PROTOCOL_FOR_KIND[kind])
    if protocol != PROTOCOL_FOR_KIND[kind]:
        raise ValueError(
            f"target file is a {kind}, which runs the "
            f"{PROTOCOL_FOR_KIND[kind]} protocol, not {protocol!r}"
        )

    runs = args.runs
    prepared = prepare(kind, target)
    params = params_from_config(protocol, target.n, params_cfg, prepared.l1_norm, runs)
    prover = prover_from_config(prover_cfg, prepared.ideal)
    record = args.trials_csv is not None

    reports = [
        prepared.run(prover, params, s, record)
        for s in (run_seeds(seed, runs) if runs > 1 else [seed])
    ]
    if args.trials_csv:
        rows = []
        for r_index, rep in enumerate(reports):
            rows.extend(reporting.trials_to_csv_rows(r_index, rep.trial_records))
        reporting.write_trials_csv(args.trials_csv, rows)

    manifest = {
        "command": "verify",
        "config": cfg,
        "seed": seed,
        "runs": runs,
    }
    if runs == 1:
        manifest["report"] = reports[0].to_jsonable()
    else:
        manifest["accepted_runs"] = sum(r.accepted for r in reports)
        manifest["acceptance_rate"] = sum(r.accepted for r in reports) / runs
        manifest["reports"] = [r.to_jsonable() for r in reports]
    _emit(manifest, args.out)
    return 0


def cmd_params(args) -> int:
    params = schedule_params(args.protocol, args.n, l1_norm=args.l1, k=args.k)
    _emit({"command": "params", **params.to_jsonable()}, args.out)
    return 0


def cmd_iqp_margin(args) -> int:
    if (args.fidelity is None) == (args.report is None):
        raise ValueError("give exactly one of --fidelity or --report")
    if args.report is not None:
        rep = json.loads(Path(args.report).read_text())
        node = rep.get("report", rep)
        fidelity = node.get("target_fidelity")
        if fidelity is None:
            raise ValueError("the report carries no target fidelity")
    else:
        fidelity = args.fidelity
    margin = analysis.supremacy_margin(float(fidelity), args.sampler_error)
    out = {
        "command": "iqp-margin",
        "margin": margin.to_jsonable(),
        "minimal_k": analysis.minimal_k_for_sampling_hardness(),
        "minimal_k_note": (
            "smallest run size whose soundness floor keeps "
            "2*k**(-1/14) + 1/193 within the 1/192 line"
        ),
    }
    _emit(out, args.out)
    return 0


def cmd_robustness(args) -> int:
    kind, target, _ = load_target(args.target)
    seed = args.seed if args.seed is not None else _fresh_seed()
    eps_primes = [float(x) for x in args.eps_prime.split(",") if x != ""]
    if not eps_primes:
        raise ValueError("--eps-prime needs at least one deviation")
    k = args.trials
    check_run_sizes(k, args.m, args.runs)
    protocol = PROTOCOL_FOR_KIND[kind]
    eps = (
        Fraction(str(args.epsilon))
        if args.epsilon is not None
        else schedule_epsilon(protocol, target.n, k)
    )
    params = desk_params(protocol, target.n, k=k, m=args.m, epsilon=eps)
    eta = maximally_mixed(target.n)
    points = analysis.robustness_sweep(
        prepare(kind, target), eta, eps_primes, params, args.runs, seed
    )
    out = {
        "command": "robustness",
        "target": str(args.target),
        "kind": kind,
        "seed": seed,
        "params": params.to_jsonable(),
        "points": [p.to_jsonable() for p in points],
    }
    _emit(out, args.out)
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(seed=args.seed if args.seed is not None else 0)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauliverify",
        description=(
            "Verify many-qubit states (hypergraph, circuit-generated, or "
            "Hamiltonian ground states) with single-qubit Pauli measurements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-hypergraph", help="generate a random pair/triple hypergraph")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--edge-prob", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_hypergraph)

    p = sub.add_parser("inspect", help="stabilizers, l1 norms, condition report")
    p.add_argument("target")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("ppass", help="exact pass probability for a state/target pair")
    p.add_argument("--target", required=True)
    p.add_argument(
        "--state",
        default="ideal",
        help="ideal | maximally-mixed | deviated:EPS | phaseflip:QUBIT | pauli:AXES",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ppass)

    p = sub.add_parser("verify", help="run a verification protocol from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--mode", choices=("desk", "paper"), default=None,
                   help="override the config params mode")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--trials-csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("params", help="conforming parameter schedules")
    p.add_argument("--protocol", required=True, choices=("ground", "circuit", "hypergraph"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l1", type=float, default=1.0, help="coefficient l1 norm")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("iqp-margin", help="sampling-hardness margin arithmetic")
    p.add_argument("--fidelity", type=float, default=None)
    p.add_argument("--report", default=None, help="a verify report supplying the fidelity")
    p.add_argument("--sampler-error", type=float, default=1 / 193)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_iqp_margin)

    p = sub.add_parser("robustness", help="acceptance sweep over deviated provers")
    p.add_argument("--target", required=True)
    p.add_argument("--eps-prime", required=True, help="comma-separated deviations")
    p.add_argument("--trials", "-k", type=int, required=True, help="tests per group")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("selftest", help="run the built-in invariant battery")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        sys.stderr.write(
            reporting.canonical_json({"error": str(exc), "kind": "cap_exceeded"})
        )
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(reporting.canonical_json({"error": str(exc), "kind": "config"}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
