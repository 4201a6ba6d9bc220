"""Command-line front end.

Every subcommand echoes its seed and emits canonical JSON, so identical
invocations produce identical bytes.  Exit codes: 0 success, 1 config or
validation error (machine-readable JSON on stderr), 2 dense-simulation cap
exceeded.  An output path whose directory is missing is refused first.
Each subcommand imports the modules it uses when it runs, so ``params`` and
``iqp-margin`` start without numpy.  Loading a target first lets glibc keep
freed blocks in the heap (``_keep_freed_memory``).
"""
from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

from . import reporting
from .reporting import field, read_object
from .schedules import (
    PROTOCOL_FOR_KIND,
    CapExceededError,
    ProtocolParams,
    capped_dim,
    desk_params,
    l1_budget,
    minimal_k_for_sampling_hardness,
    quantity,
    schedule_epsilon,
    schedule_params,
    supremacy_margin,
)

if TYPE_CHECKING:
    from .circuits import CircuitSpec
    from .hamiltonians import HamiltonianSpec
    from .hypergraphs import HypergraphSpec
    from .paulis import PauliString
    from .protocol import ProverModel
    from .states import DenseState


def _seed(seed: int | None) -> int:
    """A given seed, checked, or a fresh one; numpy seeds only from non-negative integers."""
    if seed is None:
        import numpy as np  # on first use: params and iqp-margin never need it

        return int(np.random.SeedSequence().entropy % (2**63 - 1))
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


@cache
def _keep_freed_memory() -> bool:
    """Let glibc keep freed blocks of up to 32 MiB for reuse, once per process.

    By default glibc returns a freed multi-megabyte block to the kernel, so
    the next ``eigh`` workspace or 256x256 mixture faults the same pages back
    in.  A mmap threshold of 32 MiB serves such blocks from the heap, and a
    trim threshold of 64 MiB keeps the freed heap top.  No computed value
    changes.  Where there is no C library to load (``CDLL(None)`` raises
    ``OSError``, or ``TypeError`` on Windows) or it has no ``mallopt`` (not
    glibc), nothing is set.  Returns whether both settings took.  Cached,
    because a new lookup and two calls on every load made an 8-qubit
    hypergraph ``verify`` 0.5-4% slower.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    mmap_set = mallopt(m_mmap_threshold, 32 << 20) == 1
    trim_set = mallopt(m_trim_threshold, 64 << 20) == 1
    return mmap_set and trim_set


def _check_output_dirs(args) -> None:
    """Refuse an empty output path, or one whose directory is missing, before any work."""
    for dest in ("out", "trials_csv"):
        path = getattr(args, dest, None)
        if path == "":
            raise ValueError(f"--{dest.replace('_', '-')} needs a file path, got an empty one")
        if path is not None and not Path(path).parent.is_dir():
            raise ValueError(f"cannot write {path}: {Path(path).parent} is not a directory")


def _emit(obj, out: str | None) -> None:
    text = reporting.canonical_json(obj)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Target loading


def load_target(path: str | Path):
    """Detect and load a hypergraph, Hamiltonian, or circuit JSON file.

    Returns (kind, target, z_layer), the kind being the loaded target's own.
    Only the module of the kind found is imported.  Every target leads to
    dense arrays, so this is where the CLI sets its heap policy.
    """
    _keep_freed_memory()
    obj = read_object(path, "the target file")
    if "n_vertices" in obj:
        from .hypergraphs import load_hypergraph

        target, z_layer = load_hypergraph(obj)
    elif "gates" in obj:
        from .circuits import load_circuit

        target, z_layer = load_circuit(obj), None
    elif "terms" in obj:
        from .hamiltonians import load_hamiltonian

        target, z_layer = load_hamiltonian(obj), None
    else:
        raise ValueError(f"{path}: not a hypergraph, circuit, or Hamiltonian file")
    return target.kind, target, z_layer


def parse_state_spec(spec: str, ideal: DenseState) -> DenseState:
    """State selectors for the ppass subcommand.

    ideal | maximally-mixed | deviated:EPS | phaseflip:QUBIT | pauli:AXES
    """
    from .paulis import PauliString
    from .states import apply_pauli, maximally_mixed, mixture

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


def _pauli_from_config(cfg: dict, n: int) -> PauliString:
    """One letter on ``qubit`` (default 0), or a full axis string."""
    from .paulis import PauliString

    axis = field(cfg, "pauli", str, "Z")
    if len(axis) == 1:
        return PauliString.on_qubit(n, field(cfg, "qubit", int, 0), axis)
    return PauliString.from_axes(axis)


def prover_from_config(cfg: dict, ideal: DenseState) -> ProverModel:
    from .protocol import (
        classically_correlated_prover,
        coherent_error_prover,
        entangled_demo_prover,
        honest_prover,
        iid_deviated_prover,
    )
    from .states import apply_pauli, maximally_mixed

    kind = field(cfg, "kind", str, "honest")
    if kind == "honest":
        return honest_prover(ideal)
    if kind == "iid_deviated":
        if field(cfg, "eta", str, "maximally_mixed") != "maximally_mixed":
            raise ValueError("only the maximally mixed eta is configurable here")
        return iid_deviated_prover(
            ideal, field(cfg, "epsilon_prime", float), maximally_mixed(ideal.n)
        )
    if kind == "coherent_error":
        return coherent_error_prover(ideal, _pauli_from_config(cfg, ideal.n))
    if kind == "classically_correlated":
        bad = apply_pauli(ideal, _pauli_from_config(cfg, ideal.n))
        p_bad = field(cfg, "p_bad", float, 0.5)
        return classically_correlated_prover([ideal, bad], [1 - p_bad, p_bad])
    if kind == "entangled_demo":
        bad = apply_pauli(ideal, _pauli_from_config(cfg, ideal.n))
        return entangled_demo_prover(ideal, bad, field(cfg, "weight", float, 0.5))
    raise ValueError(f"unknown prover kind {kind!r}")


def params_from_config(
    protocol: str, n: int, cfg: dict, l1_norm: float | None, runs: int = 1
) -> ProtocolParams:
    """Run parameters from a params block: paper schedule or desk sizes.

    ProtocolParams checks the ranges of k and m; the register cap is checked
    by the protocol engine, before a run allocates anything sized by it.
    """
    from .protocol import check_run_sizes

    check_run_sizes(runs)
    mode = field(cfg, "mode", str, "desk")
    if mode == "paper":
        return schedule_params(protocol, n, l1_norm=l1_norm, k=field(cfg, "k", int, None))
    if mode != "desk":
        raise ValueError("params.mode must be 'desk' or 'paper'")
    k, m = field(cfg, "k", int), field(cfg, "m", int, 0)
    eps = field(cfg, "epsilon", float, None)
    if eps is None:
        eps = schedule_epsilon(protocol, n, k)
    return desk_params(protocol, n, k=k, m=m, epsilon=eps)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_hypergraph(args) -> int:
    import numpy as np

    from .hypergraphs import hypergraph_to_jsonable, random_bms_instance

    seed = _seed(args.seed)
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
    from .hypergraphs import adaptive_form, connectivity

    xi, per_vertex = connectivity(g)
    stabilizers = []
    alpha_ever_one = False
    for v in range(g.n):
        form = adaptive_form(g, v)
        alpha_ever_one |= form.flips_sign
        entry = {
            "vertex": v,
            "z_neighbors": list(form.z_neighbors),
            "cz_groups": [list(grp) for grp in form.cz_groups],
            "projector_support": list(form.projector_support),
        }
        if len(form.projector_support) <= 4:
            branches = []
            for a, alpha, residual in form.branch_table():
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
    from .hamiltonians import check_conditions, rescale

    rh = rescale(h)
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
        "conditions": check_conditions(rh, budget),
    }


def _inspect_circuit(c: CircuitSpec, budget) -> dict:
    from .circuits import all_stabilizer_decompositions, check_circuit_conditions

    decomps = all_stabilizer_decompositions(c)
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
        "conditions": check_circuit_conditions(decomps, budget),
    }


def cmd_inspect(args) -> int:
    from .paulis import INSPECT_QUBIT_CAP

    kind, target, z_layer = load_target(args.target)
    capped_dim(target.n, INSPECT_QUBIT_CAP, f"{kind} inspection")
    # checked for every kind, though only the Pauli-sum kinds report it
    budget = l1_budget(target.n, args.budget)
    if kind == "hypergraph":
        out = _inspect_hypergraph(target, z_layer)
    elif kind == "hamiltonian":
        out = _inspect_hamiltonian(target, budget)
    else:
        out = _inspect_circuit(target, budget)
    out["target"] = str(args.target)
    _emit(out, args.out)
    return 0


def cmd_ppass(args) -> int:
    from .protocol import prepare

    kind, target, _ = load_target(args.target)
    prepared = prepare(target)
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
        from .hypergraphs import stabilizer_dense
        from .single_copy import adaptive_test_exact_ppass

        result["p_pass_per_vertex"] = [
            quantity(
                adaptive_test_exact_ppass(state, f, stabilizer_dense(target, f.vertex)),
                "exact",
            )
            for f in prepared.test.forms
        ]
    else:
        ppass = [quantity(p, "exact") for p in prepared.group_ppass(state)]
        if kind == "hamiltonian":
            result["p_pass"] = ppass[0]
            result["l1_norm"] = prepared.l1_norm
        else:
            result["p_pass_per_qubit"] = ppass
            result["l1_per_qubit"] = list(prepared.group_l1)
    _emit(result, args.out)
    return 0


def cmd_verify(args) -> int:
    from .protocol import prepare, run_seeds

    config_path = Path(args.config)
    cfg = read_object(config_path, "the config")
    params_cfg = field(cfg, "params", dict, {})
    prover_cfg = field(cfg, "prover", dict, {"kind": "honest"})
    if args.mode is not None:
        params_cfg["mode"] = args.mode
        cfg["params"] = params_cfg
    target_path = config_path.parent / field(cfg, "target", str)
    seed = _seed(field(cfg, "seed", int, None) if args.seed is None else args.seed)
    kind, target, _ = load_target(target_path)
    protocol = field(cfg, "protocol", str, PROTOCOL_FOR_KIND[kind])
    if protocol != PROTOCOL_FOR_KIND[kind]:
        raise ValueError(
            f"target file is a {kind}, which runs the "
            f"{PROTOCOL_FOR_KIND[kind]} protocol, not {protocol!r}"
        )

    runs = args.runs
    prepared = prepare(target)
    params = params_from_config(protocol, target.n, params_cfg, prepared.l1_norm, runs)
    prover = prover_from_config(prover_cfg, prepared.ideal)
    record = args.trials_csv is not None

    seeds = run_seeds(seed, runs) if runs > 1 else [seed]
    reports = prepared.runs(prover, params, seeds, record)
    if record:
        lines = reporting.trial_csv_lines([rep.trials for rep in reports])
        reporting.write_trials_csv(args.trials_csv, lines)

    manifest = {
        "command": "verify",
        "config": cfg,
        "seed": seed,
        "runs": runs,
    }
    if runs == 1:
        manifest["report"] = reports[0]
    else:
        manifest["accepted_runs"] = sum(r.accepted for r in reports)
        manifest["acceptance_rate"] = sum(r.accepted for r in reports) / runs
        manifest["reports"] = reports  # rendered one at a time
    _emit(manifest, args.out)
    return 0


def cmd_params(args) -> int:
    params = schedule_params(args.protocol, args.n, l1_norm=args.l1, k=args.k)
    _emit({"command": "params", **params.to_jsonable()}, args.out)
    return 0


def cmd_iqp_margin(args) -> int:
    if (args.fidelity is None) == (args.report is None):
        raise ValueError("give exactly one of --fidelity or --report")
    fidelity = args.fidelity
    if args.report is not None:
        rep = read_object(args.report, "the report")
        fidelity = field(field(rep, "report", dict, rep), "target_fidelity", float, None)
        if fidelity is None and "reports" in rep:
            raise ValueError(
                "a multi-run verify report carries one target fidelity per run, "
                "under reports; give the one to use with --fidelity"
            )
        if fidelity is None:
            raise ValueError("the report carries no target fidelity")
    margin = supremacy_margin(fidelity, args.sampler_error)
    out = {
        "command": "iqp-margin",
        "margin": margin.to_jsonable(),
        "minimal_k": minimal_k_for_sampling_hardness(),
        "minimal_k_note": (
            "smallest run size whose soundness floor keeps "
            "2*k**(-1/14) + 1/193 within the 1/192 line"
        ),
    }
    _emit(out, args.out)
    return 0


def cmd_robustness(args) -> int:
    from .analysis import robustness_sweep
    from .protocol import prepare
    from .states import maximally_mixed

    kind, target, _ = load_target(args.target)
    seed = _seed(args.seed)
    eps_primes = [float(x) for x in args.eps_prime.split(",") if x != ""]
    if not eps_primes:
        raise ValueError("--eps-prime needs at least one deviation")
    desk = {"mode": "desk", "k": args.trials, "m": args.m, "epsilon": args.epsilon}
    params = params_from_config(PROTOCOL_FOR_KIND[kind], target.n, desk, None, args.runs)
    eta = maximally_mixed(target.n)
    points = robustness_sweep(
        prepare(target), eta, eps_primes, params, args.runs, seed
    )
    out = {
        "command": "robustness",
        "target": str(args.target),
        "kind": kind,
        "seed": seed,
        "params": params,
        "points": points,
    }
    _emit(out, args.out)
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(seed=0 if args.seed is None else _seed(args.seed))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so ``main`` reports them like any config error."""

    def error(self, message):
        raise ValueError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        _check_output_dirs(args)
        return args.func(args)
    except CapExceededError as exc:
        code, kind, error = 2, "cap_exceeded", str(exc)
    except (ValueError, KeyError, OSError) as exc:
        code, kind, error = 1, "config", str(exc)
    sys.stderr.write(reporting.canonical_json({"error": error, "kind": kind}))
    return code


if __name__ == "__main__":
    sys.exit(main())
