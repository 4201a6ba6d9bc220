"""Span tracer that wraps pauliverify's public functions from outside.

The program source is not edited.  ``Tracer.install`` replaces each traced
function in every ``pauliverify.*`` namespace that binds it (``from .states
import measure_in_bases`` copies the name, so patching only the defining
module would miss calls), and each traced method or property on its class.
``Tracer.uninstall`` puts every original back.

A span is (name, start, end, parent span, op id).  Functions called once per
single-copy test are aggregated per parent span, so memory stays bounded at
tens of thousands of tests per op.  Self time is a span's duration minus the
time covered by its child spans.
"""
from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

# (layer name, module, attribute, called once per single-copy test?)
TRACED = [
    ("cli.main", "cli", "main", False),
    ("cli.load_target", "cli", "load_target", False),
    ("protocol.run", "protocol", "run_ground_protocol", False),
    ("protocol.run", "protocol", "run_circuit_protocol", False),
    ("protocol.run", "protocol", "run_hypergraph_protocol", False),
    ("protocol.prover", "protocol", "honest_prover", False),
    ("protocol.prover", "protocol", "iid_deviated_prover", False),
    ("protocol.prover", "protocol", "coherent_error_prover", False),
    ("protocol.prover", "protocol", "classically_correlated_prover", False),
    ("protocol.prover", "protocol", "entangled_demo_prover", False),
    ("states.measure_in_bases", "states", "measure_in_bases", True),
    ("states.mixed_state", "states", "mixed_state", False),
    ("states.fidelity", "states", "overlap", False),
    ("states.fidelity", "states", "projector_overlap", False),
    ("states.fidelity", "states", "partial_trace", False),
    ("single_copy.adaptive_predicate", "single_copy", "adaptive_predicate", True),
    ("single_copy.draw_pauli_term", "single_copy", "draw_pauli_term", True),
    ("single_copy.parity_passes", "single_copy", "parity_passes", True),
    ("single_copy.exact_ppass", "single_copy", "adaptive_test_exact_ppass", False),
    ("single_copy.exact_ppass", "single_copy", "energy_test_exact_ppass", False),
    ("single_copy.exact_ppass", "single_copy", "stabilizer_test_exact_ppass", False),
    ("hypergraphs.bases", "hypergraphs", "AdaptiveStabilizerForm.bases", True),
    ("hypergraphs.branch_for_bits", "hypergraphs", "AdaptiveStabilizerForm.branch_for_bits", True),
    ("hypergraphs.all_adaptive_forms", "hypergraphs", "all_adaptive_forms", False),
    ("hypergraphs.build_state", "hypergraphs", "build_state", False),
    ("paulis.axes", "paulis", "PauliString.axes", True),
    ("hamiltonians.rescale", "hamiltonians", "rescale", False),
    ("hamiltonians.exact_diagonalize", "hamiltonians", "exact_diagonalize", False),
    ("hamiltonians.ground_state", "hamiltonians", "ground_state", False),
    ("circuits.decompose", "circuits", "all_stabilizer_decompositions", False),
    ("circuits.build_circuit_state", "circuits", "build_circuit_state", False),
    ("analysis.binomial_tail", "analysis", "binomial_tail_ge", False),
    ("analysis.binomial_tail", "analysis", "binomial_tail_le", False),
    ("analysis.sweep", "analysis", "robustness_sweep", False),
    ("analysis.sweep", "analysis", "robustness_sweep_ground", False),
    ("analysis.sweep", "analysis", "robustness_sweep_circuit", False),
    ("reporting.canonical_json", "reporting", "canonical_json", False),
    ("reporting.write_trials_csv", "reporting", "write_trials_csv", False),
]

PACKAGE = "pauliverify"


@dataclasses.dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    covered: float  # time inside child spans and aggregated child calls

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.covered


class Tracer:
    """Records spans while installed; ``op`` tags every span with an op id."""

    def __init__(self):
        self.spans: list[Span] = []
        # (parent span id, op id, name) -> [calls, total seconds, self seconds]
        self.aggregated: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.op: int | None = None
        self._stack: list[list] = [[0.0, None]]  # frames: [child time, span id]
        self._next_sid = 0
        self._patches: list[tuple[object, str, object]] = []
        self._born_keys: set = set()
        self._born_states: list = []

    # -- hooks: counts taken where the work happens ---------------------------

    def _before_measure(self, args, kwargs):
        state, bases = args[0], args[1]
        key = (id(state), bases)
        if key not in self._born_keys:
            self._born_keys.add(key)
            self._born_states.append(state)  # keeps id(state) unique for the op
            self.counters["states.born_tables"] += 1
        return args, kwargs

    def _before_csv(self, args, kwargs):
        rows = list(args[1])
        self.counters["reporting.csv_rows"] += len(rows)
        return (args[0], rows) + tuple(args[2:]), kwargs

    def _after_run(self, result):
        self.counters["protocol.trials"] += sum(g.trials for g in result.groups)
        return result

    def _after_prover(self, result):
        wrapped = self._wrap_span("protocol.prover", result.make_source)
        return dataclasses.replace(result, make_source=wrapped)

    def _after_load_target(self, result):
        self.counters[f"targets.{result[0]}"] += 1
        return result

    def _after_canonical_json(self, result):
        self.counters["reporting.bytes_out"] += len(result.encode())
        return result

    def _hooks(self, name):
        before = {
            "states.measure_in_bases": self._before_measure,
            "reporting.write_trials_csv": self._before_csv,
        }.get(name)
        after = {
            "protocol.run": self._after_run,
            "protocol.prover": self._after_prover,
            "cli.load_target": self._after_load_target,
            "reporting.canonical_json": self._after_canonical_json,
        }.get(name)
        return before, after

    # -- wrappers --------------------------------------------------------------

    def _wrap_span(self, name, fn, before=None, after=None):
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1]
            sid = self._next_sid
            self._next_sid += 1
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[0] += end - start
                self.spans.append(Span(sid, name, start, end, parent[1], self.op, frame[0]))
            return result if after is None else after(result)

        traced.__wrapped__ = fn
        return traced

    def _wrap_aggregated(self, name, fn, before=None):
        stack, clock, aggregated = self._stack, time.perf_counter, self.aggregated

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent[0] += dur
                entry = aggregated[(parent[1], self.op, name)]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, module, attr, per_trial in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{module}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            before, after = self._hooks(name)
            if owner_name:  # a method or property, patched once on its class
                raw = owner.__dict__[member]
                fget = raw.fget if isinstance(raw, property) else raw
                if per_trial:
                    wrapped = self._wrap_aggregated(name, fget, before)
                else:
                    wrapped = self._wrap_span(name, fget, before, after)
                self._patch(owner, member, raw,
                            property(wrapped) if isinstance(raw, property) else wrapped)
                continue
            if per_trial:
                wrapped = self._wrap_aggregated(name, original, before)
            else:
                wrapped = self._wrap_span(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key, original, replacement) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        self._born_keys.clear()
        self._born_states.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds] over all ops."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            entry = out[s.name]
            entry[0] += 1
            entry[1] += s.end - s.start
            entry[2] += s.self_s
        for (_, _, name), (calls, total, self_s) in self.aggregated.items():
            entry = out[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        return out

    def dump(self) -> dict:
        return {
            "spans": [dataclasses.asdict(s) | {"self_s": s.self_s} for s in self.spans],
            "aggregated": [
                {"parent": parent, "op": op, "name": name,
                 "calls": calls, "s": total, "self_s": self_s}
                for (parent, op, name), (calls, total, self_s) in self.aggregated.items()
            ],
            "counters": dict(self.counters),
            "absent": self.absent,
        }

