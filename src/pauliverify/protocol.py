"""The three register-level verification protocols against pluggable provers.

A run receives k+m+1 (or N*k+m+1) N-qubit registers, discards a uniform
random m of them, keeps one uniform random survivor as the target, and tests
the rest.  Accept/reject thresholds, from ``schedules``, are compared in
exact rational arithmetic so boundary equalities never flip on
floating-point noise.

``prepare(target)`` builds a target's tests once, and its
``PreparedTarget.runs`` is the engine.  A prover's source is either the one
DenseState that every register carries, or a joint source over all
registers.  One engine call makes all the runs of a verify call, one per
seed.  Each run keeps its own generator streams, the spawned children of
its seed (layout, prover, tests), so its bytes do not depend on the other
runs of the call.  The prover stream is built only for a prover that draws
from it: a fixed-state prover (honest, iid_deviated, coherent_error)
carries its state, and its runs build the layout and test streams alone,
which are the same streams either way.  The engine makes one pass over the
seeds that lays out each run and finds its source, grouping the runs by
source.  Then each source's runs are sampled in blocks of whole runs of at
most BLOCK_TRIALS trials, one call of the test's batched ``sample`` per
block, given each run's test stream.  Only the tiny entangled demo returns
a joint source (total qubits capped at 12); each measurement conditions its
joint state, so each of its runs is one call of the test's scalar
``trials``, made in that first pass.  Every run's group pass counts fill
one (runs, groups) array per call; the verdict rule is applied to it once,
and every report is rendered from it in seed order.  A robustness sweep
point reads only that array: ``PreparedTarget.pass_counts`` samples a fixed
state's runs with the engine's block loop and builds their test streams
alone, because a fixed-state run's pass counts do not depend on its layout.
This module draws no uniform of a test stream: single_copy's run kernels
draw them all.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .hypergraphs import all_adaptive_forms, build_state
from .paulis import DENSE_QUBIT_CAP, PauliString
from .schedules import (
    COMPARISON, PROTOCOL_FOR_KIND, ProtocolParams, capped_dim, group_thresholds, pass_cut
)
from .single_copy import AdaptiveTest, ParityTest
from .states import (
    DenseState,
    MeasurementRecord,
    apply_pauli,
    measure_in_bases,
    mixture,
    overlap,
    partial_trace,
    projector_overlap,
    rotate_to_computational,
)

ENTANGLED_TOTAL_QUBIT_CAP = 12

# Paper-schedule register counts explode; runs above this are refused.
EXECUTABLE_REGISTER_CAP = 1_000_000

# Protocol runs per verify or robustness call; more are refused before any
# per-run seed is drawn.
RUN_COUNT_CAP = 100_000

# The most trials one sampling block holds.  The runs of a call that share a
# source are sampled in blocks of whole runs up to this size (a larger run is
# a block of its own), so a block's arrays do not grow with the run count.
BLOCK_TRIALS = 1 << 14


def check_run_sizes(runs: int) -> None:
    """Refuse a run count below 1 or above RUN_COUNT_CAP, before any per-run seed is drawn."""
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if runs > RUN_COUNT_CAP:
        raise ValueError(f"runs must be at most {RUN_COUNT_CAP}, got {runs}")


# ---------------------------------------------------------------------------
# Joint register sources


class EntangledRegisters:
    """A joint pure state over all registers, conditioned as tests consume it.

    Discarding without measuring does not change any other register's
    statistics, so discarded registers are simply never touched.
    """

    def __init__(self, n: int, n_registers: int, joint_amplitudes: np.ndarray):
        total = n * n_registers
        dim = capped_dim(total, ENTANGLED_TOTAL_QUBIT_CAP, "entangled demo path")
        psi = np.asarray(joint_amplitudes, dtype=complex).reshape(-1)
        if psi.size != dim:
            raise ValueError("joint amplitude count mismatch")
        norm = np.linalg.norm(psi)
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails it too
            raise ValueError("joint state is not normalized")
        self.n = n
        self.n_registers = n_registers
        self.total = total
        self._psi = psi / norm

    def _qubit(self, register: int, local: int) -> int:
        return register * self.n + local

    def measure(
        self, register: int, bases: str, rng: np.random.Generator
    ) -> MeasurementRecord:
        lo = self._qubit(register, 0)
        joint_bases = "I" * lo + bases + "I" * (self.total - lo - self.n)
        record, prob = measure_in_bases(DenseState(self.total, self._psi), joint_bases, rng)
        outcomes = record.outcomes[lo : lo + self.n]
        # project the rotated joint state onto the observed outcome
        psi = self._psi.reshape([2] * self.total)
        psi = np.array(rotate_to_computational(psi, joint_bases))
        for j, (b, m) in enumerate(zip(bases, outcomes)):
            if b != "I":
                index = [slice(None)] * self.total
                index[lo + j] = (1 + m) // 2  # the bit of the outcome not seen
                psi[tuple(index)] = 0.0
        self._psi = (psi / np.sqrt(prob)).reshape(-1)
        return MeasurementRecord(outcomes)

    def register_state(self, register: int) -> DenseState:
        joint = DenseState(self.total, self._psi)
        keep = tuple(self._qubit(register, j) for j in range(self.n))
        return partial_trace(joint, keep)


# ---------------------------------------------------------------------------
# Prover models


@dataclass(frozen=True)
class ProverModel:
    """How the registers are produced: the honest case or an adversary.

    ``make_source(n_registers, rng)`` returns the DenseState that every
    register carries, or a joint source (EntangledRegisters).  A fixed-state
    prover also carries that ``state``; the engine then reads it directly
    and builds no prover stream.
    """

    kind: str
    make_source: Callable[[int, np.random.Generator], object]
    state: DenseState | None = None


def _fixed(kind: str, state: DenseState) -> ProverModel:
    """A prover whose every register carries ``state``."""
    return ProverModel(kind, lambda n_registers, rng: state, state)


def honest_prover(ideal: DenseState) -> ProverModel:
    return _fixed("honest", ideal)


def check_epsilon_prime(epsilon_prime: float) -> None:
    """Refuse a deviation weight outside [0, 1]; NaN fails the check too."""
    if not 0.0 <= epsilon_prime <= 1.0:
        raise ValueError("epsilon_prime must lie in [0, 1]")


def iid_deviated_prover(
    ideal: DenseState, epsilon_prime: float, eta: DenseState
) -> ProverModel:
    """Every register carries (1 - eps') ideal + eps' eta; at eps' = 0, the ideal itself."""
    check_epsilon_prime(epsilon_prime)
    if eta.n != ideal.n:
        raise ValueError("eta and the ideal state differ in width")
    state = mixture(ideal, eta, epsilon_prime) if epsilon_prime > 0.0 else ideal
    return _fixed("iid_deviated", state)


def coherent_error_prover(ideal: DenseState, error: PauliString) -> ProverModel:
    """Every register carries (P ideal) for a unit-coefficient Pauli P."""
    if not abs(abs(error.coeff) - 1.0) <= 1e-12:  # NaN fails it too
        raise ValueError("the coherent error must be a unit-coefficient Pauli")
    return _fixed("coherent_error", apply_pauli(ideal, error))


def classically_correlated_prover(
    states: Sequence[DenseState], weights: Sequence[float]
) -> ProverModel:
    """One shared random draw per run selects which state fills every register.

    This is the simplest non-i.i.d.-across-runs adversary: registers within a
    run are perfectly classically correlated through the shared draw.  The
    states must share one width, so that no draw decides whether a run fails.
    """
    states = list(states)
    w = np.asarray(weights, dtype=float)
    if len(states) != w.size or w.size == 0:
        raise ValueError("need one weight per state")
    if not np.all(w >= 0) or not abs(w.sum() - 1.0) <= 1e-9:
        raise ValueError("weights must be a probability vector")
    for state in states:
        if state.n != states[0].n:
            raise ValueError(f"the states differ in width: {states[0].n} and {state.n} qubits")
    cum = np.cumsum(w)

    def make(n_registers, rng):
        pick = int(np.searchsorted(cum, rng.random(), side="right"))
        return states[min(pick, len(states) - 1)]

    return ProverModel("classically_correlated", make)


def entangled_demo_prover(
    ideal: DenseState, bad: DenseState, weight: float
) -> ProverModel:
    """A global superposition of all-registers-good and all-registers-bad.

    Only viable at toy size (n * n_registers <= 12); larger layouts raise.
    """
    if not ideal.is_pure or not bad.is_pure:
        raise ValueError("the demo superposition needs pure branch states")
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    if bad.n != ideal.n:
        raise ValueError(f"bad and the ideal state differ in width: {bad.n} and {ideal.n} qubits")

    def make(n_registers, rng):
        capped_dim(ideal.n * n_registers, ENTANGLED_TOTAL_QUBIT_CAP, "entangled demo path")
        good = ideal.data
        worse = bad.data
        g = np.array([1.0], dtype=complex)
        b = np.array([1.0], dtype=complex)
        for _ in range(n_registers):
            g = np.kron(g, good)
            b = np.kron(b, worse)
        joint = np.sqrt(1.0 - weight) * g + np.sqrt(weight) * b
        joint /= np.linalg.norm(joint)
        return EntangledRegisters(ideal.n, n_registers, joint)

    return ProverModel("entangled_demo", make)


# ---------------------------------------------------------------------------
# Verdicts


class GroupResult(NamedTuple):
    group: int
    passes: int
    trials: int
    threshold: str  # exact rational, printed as "num/den"
    comparison: str  # "<=" for the ground protocol, ">=" otherwise
    passed: bool

    def to_jsonable(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class TrialColumns:
    """The transcript of one run's trials, one array row per group.

    ``registers``, ``branches`` and ``passed`` are (groups, k) arrays: entry
    [i, t] is trial t of group i, on that register, with that branch (the
    test's term index or projector bits) and pass flag.  ``labels(i, row)``
    is the test's ``branch_labels``, which spells the branches of group i.
    """

    registers: np.ndarray
    branches: np.ndarray
    passed: np.ndarray
    labels: Callable[[int, np.ndarray], list[str]]


@dataclass(frozen=True)
class VerdictReport:
    """One run's verdict, with its trial transcript when it was asked for.

    ``trials`` holds the columns the engine sampled, not one object per
    trial; ``reporting.trial_csv_lines`` renders them.
    """

    accepted: bool
    groups: tuple[GroupResult, ...]
    target_register: int
    target_fidelity: float | None
    seed: int
    params: ProtocolParams
    prover_kind: str
    trials: TrialColumns | None = None

    def slots(self) -> tuple[tuple, list]:
        """(shared, values): what every report of one engine call shares, and this run's own.

        The values are accepted, target_register, target_fidelity, seed and
        each group's passes and passed; ``to_jsonable(values)`` writes others
        in their place.  ``reporting`` writes the reports of one call from one template.
        """
        constants = [(g.group, g.trials, g.threshold, g.comparison) for g in self.groups]
        shared = (self.params, self.prover_kind, constants)
        values = [self.accepted, self.target_register, self.target_fidelity, self.seed]
        for g in self.groups:
            values += (g.passes, g.passed)
        return shared, values

    def to_jsonable(self, values: list | None = None) -> dict:
        if values is not None:
            doc = self.to_jsonable()
            accepted, register, fidelity, seed, *flat = values
            doc.update(
                accepted=accepted, target_register=register, target_fidelity=fidelity, seed=seed
            )
            for group, passes, passed in zip(doc["groups"], flat[::2], flat[1::2]):
                group.update(passes=passes, passed=passed)
            return doc
        return {
            "protocol": self.params.protocol,
            "accepted": self.accepted,
            "groups": [g.to_jsonable() for g in self.groups],
            "target_register": self.target_register,
            "target_fidelity": self.target_fidelity,
            "n_registers": self.params.n_registers,
            "seed": self.seed,
            "params": self.params.to_jsonable(),
            "prover_kind": self.prover_kind,
        }


def choose_layout(n_registers: int, m: int, rng: np.random.Generator):
    """Uniformly discard m registers; returns one survivor as the target, and the rest."""
    if m >= n_registers:
        raise ValueError("cannot discard every register")
    perm = rng.permutation(n_registers)
    return int(perm[m]), perm[m + 1 :]


# The spawn keys of a run's layout, prover and test streams.
LAYOUT_STREAM, PROVER_STREAM, TEST_STREAM = 0, 1, 2


def _run_rng(seed: int, stream: int) -> np.random.Generator:
    """One generator of a run: child ``stream`` of SeedSequence(seed).spawn(3).

    The child is built from its spawn key, which skips hashing the parent's
    pool, a pool that spawn never reads, and builds no sibling.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def check_executable(params: ProtocolParams) -> None:
    """Refuse a run with more registers than EXECUTABLE_REGISTER_CAP.

    Every protocol run calls this before it allocates anything sized by the
    register count.
    """
    if params.n_registers > EXECUTABLE_REGISTER_CAP:
        raise ValueError(
            f"{params.mode}-mode run needs {params.n_registers} registers, more "
            f"than the {EXECUTABLE_REGISTER_CAP} that are simulated; a run that "
            "large is report-only (see the params subcommand)"
        )


def run_seeds(master_seed: int, n_runs: int) -> list[int]:
    """Per-run seeds derived reproducibly from one master seed."""
    rng = np.random.default_rng(master_seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n_runs)]


# ---------------------------------------------------------------------------
# Prepared targets


@dataclass(frozen=True)
class PreparedTarget:
    """What every run, sweep point and pass probability of one target needs.

    ``test`` holds every group's single-copy test; group i passes at rate
    1/2 + <g_i>/(2 * group_l1[i]), the adaptive test being the unit-norm
    case.  ``runs(prover, params, seeds, record_trials)`` is the protocol
    engine, ``pass_counts(state, params, seeds)`` the group pass counts of
    its runs on one state, and ``group_ppass(state)`` each group's exact
    pass probability on ``state``.
    """

    protocol: str
    ideal: DenseState
    test: ParityTest | AdaptiveTest
    fidelity: Callable[[DenseState], float] | None  # the reported target fidelity

    @property
    def group_l1(self) -> tuple[float, ...]:
        return self.test.group_l1

    @property
    def l1_norm(self) -> float:
        """The norm the paper schedules scale with: the largest group norm."""
        return max(self.group_l1)

    @property
    def comparison(self) -> str:
        return COMPARISON[self.protocol]

    def thresholds(self, epsilon: Fraction) -> tuple[Fraction, ...]:
        return group_thresholds(self.protocol, epsilon, self.group_l1)

    def group_ppass(self, state: DenseState) -> tuple[float, ...]:
        return self.test.exact_ppass(state)

    def pass_cuts(self, params: ProtocolParams) -> np.ndarray:
        """Each group's ``pass_cut``: the whole pass count its k trials compare with."""
        return np.array(
            [pass_cut(self.comparison, t, params.k) for t in self.thresholds(params.epsilon)]
        )

    def groups_pass(self, counts: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        """Whether each group's whole pass count compares to its cut by ``COMPARISON``."""
        return counts <= cuts if self.comparison == "<=" else counts >= cuts

    def _check_runs(self, params: ProtocolParams) -> None:
        """Refuse params for another target, or a run over the register cap."""
        if params.protocol != self.protocol or params.n != self.ideal.n:
            raise ValueError(f"params are not for this {self.protocol} target")
        check_executable(params)

    def _blocks(self, state: DenseState, seeds: Sequence[int], k: int):
        """Sample runs on ``state`` in blocks of whole runs; yields (start, passed, branches).

        One ``test.sample`` call per block of at most BLOCK_TRIALS trials (a
        larger run is a block of its own); ``start`` indexes its first seed.
        """
        block = max(1, BLOCK_TRIALS // (len(self.group_l1) * k))  # whole runs
        for start in range(0, len(seeds), block):
            rngs = (_run_rng(seed, TEST_STREAM) for seed in seeds[start : start + block])
            passed, branches = self.test.sample(state, rngs, k)
            yield start, passed, branches

    def pass_counts(
        self, state: DenseState, params: ProtocolParams, seeds: Sequence[int]
    ) -> np.ndarray:
        """The (runs, groups) pass counts of one run per seed, ``state`` in every register.

        The counts are those of ``runs`` with a prover that carries
        ``state``, refused in the same cases: a fixed-state run's counts
        read only its test stream, not its layout.  So this draws no layout
        or prover stream, evaluates no fidelity and builds no report.
        """
        self._check_runs(params)
        if state.n != params.n:
            raise ValueError("prover register width does not match the protocol")
        counts = np.empty((len(seeds), len(self.group_l1)), dtype=np.int64)
        for start, passed, _ in self._blocks(state, seeds, params.k):
            counts[start : start + len(passed)] = np.count_nonzero(passed, axis=-1)
        return counts

    def runs(
        self,
        prover: ProverModel,
        params: ProtocolParams,
        seeds: Sequence[int],
        record_trials: bool = False,
    ) -> tuple[VerdictReport, ...]:
        """The one protocol engine: one run per seed, each as that run would be made alone.

        A run's layout comes from its own generator, and so does its source
        unless the prover carries a fixed ``state``.  Group i tests k
        registers with the test's i-th group and passes when its rate
        compares to its ``group_thresholds`` entry by ``COMPARISON``.  One
        pass over the seeds lays out each run and groups the runs by source.
        A joint source (the entangled demo) is sampled in that pass by one
        ``test.trials`` call, because each measurement conditions its joint
        state; it consumes the test stream in the same order.  Then each
        DenseState source's fidelity is evaluated once, and its runs are
        sampled by ``_blocks``, the loop ``pass_counts`` samples with.  The
        passes of every run fill one (runs, groups) count array, which
        ``groups_pass`` decides once; the reports are rendered from it.
        """
        self._check_runs(params)
        test, fidelity, k = self.test, self.fidelity, params.k
        n_reg = params.n_registers
        thresholds = self.thresholds(params.epsilon)
        labels = test.branch_labels if record_trials else None
        counts = np.empty((len(seeds), len(thresholds)), dtype=np.int64)
        targets: list[int] = []
        fidelities: list[float | None] = [None] * len(seeds)
        # a DenseState run keeps its layout here until its columns are sampled
        trials: list = [None] * len(seeds)
        by_source: dict[DenseState, list[int]] = {}
        for index, seed in enumerate(seeds):
            source = prover.state
            if source is None:
                source = prover.make_source(n_reg, _run_rng(seed, PROVER_STREAM))
            if source.n != params.n:
                raise ValueError("prover register width does not match the protocol")
            target, rest = choose_layout(n_reg, params.m, _run_rng(seed, LAYOUT_STREAM))
            groups = rest.reshape(len(thresholds), k)
            targets.append(target)
            if isinstance(source, DenseState):
                by_source.setdefault(source, []).append(index)
                if record_trials:
                    trials[index] = groups
                continue
            passed, branches = test.trials(source, groups, _run_rng(seed, TEST_STREAM))
            counts[index] = np.count_nonzero(passed, axis=-1)
            if fidelity is not None:
                fidelities[index] = fidelity(source.register_state(target))
            if record_trials:
                trials[index] = TrialColumns(groups, branches, passed, labels)
        for source, indices in by_source.items():
            source_fidelity = None if fidelity is None else fidelity(source)
            for index in indices:
                fidelities[index] = source_fidelity
            for start, passed, branches in self._blocks(source, [seeds[i] for i in indices], k):
                block = indices[start : start + len(passed)]
                counts[block] = np.count_nonzero(passed, axis=-1)
                if record_trials:
                    for index, run_passed, run_branches in zip(block, passed, branches):
                        layout = trials[index]
                        trials[index] = TrialColumns(layout, run_branches, run_passed, labels)
        ok = self.groups_pass(counts, self.pass_cuts(params))
        spelled = [f"{t.numerator}/{t.denominator}" for t in thresholds]
        comparison = self.comparison
        reports = []
        rows = zip(seeds, targets, fidelities, trials, counts.tolist(), ok.tolist())
        for seed, target, run_fidelity, columns, run_counts, run_ok in rows:
            results = tuple(
                GroupResult(i, c, k, threshold, comparison, o)
                for i, (c, threshold, o) in enumerate(zip(run_counts, spelled, run_ok))
            )
            reports.append(
                VerdictReport(
                    accepted=all(run_ok),
                    groups=results,
                    target_register=target,
                    target_fidelity=run_fidelity,
                    seed=seed,
                    params=params,
                    prover_kind=prover.kind,
                    trials=columns,
                )
            )
        return tuple(reports)


def prepare(target) -> PreparedTarget:
    """Compute once what every use of a loaded target needs.

    The target's type names its kind (its ``kind`` attribute): a
    HamiltonianSpec, CircuitSpec or HypergraphSpec.  A Hamiltonian is
    diagonalized once: the rescaling, the ground projector and the ideal
    state all come from that one ``eigh``.  Every group's test is built once
    here and serves every run.  The capped ideal state comes first, so a
    target over the cap is refused before the per-group work.
    """
    kind = getattr(target, "kind", None)
    if kind == "hypergraph":
        ideal = build_state(target)
        forms = all_adaptive_forms(target)
        # hypergraph reports carry a target fidelity only up to the dense cap
        fidelity = partial(overlap, reference=ideal) if target.n <= DENSE_QUBIT_CAP else None
        return PreparedTarget("hypergraph", ideal, AdaptiveTest(*forms), fidelity)
    # the ground and circuit protocols run the parity test of one Pauli sum per group;
    # their modules load only for a target of their kind
    if kind == "hamiltonian":
        from .hamiltonians import exact_diagonalize, rescale

        diag = exact_diagonalize(target)
        sums, ideal = [rescale(target, diag=diag)], diag.ground
        fidelity = partial(projector_overlap, projector=diag.projector)
    elif kind == "circuit":
        from .circuits import all_stabilizer_decompositions, build_circuit_state

        ideal = build_circuit_state(target)
        sums = all_stabilizer_decompositions(target)
        fidelity = partial(overlap, reference=ideal)
    else:
        raise ValueError(f"unknown target kind {kind!r} ({type(target).__name__})")
    return PreparedTarget(PROTOCOL_FOR_KIND[kind], ideal, ParityTest(*sums), fidelity)
