"""The destructive single-copy tests, sampled and in closed form.

The parity test of a sampled Pauli sum serves the ground protocol (the
rescaled Hamiltonian) and the circuit protocol (each stabilizer); the
adaptive stabilizer test serves hypergraph states.  Each test measures every
qubit of one register exactly once, in Pauli bases, and applies an exact
integer pass predicate.

Each test runs one of two ways, and draws every uniform of a run's test
stream itself.  ``ParityTest.trials`` and ``AdaptiveTest.trials`` are the
scalar path: one run's trials on the registers of a source, one at a time,
built on draw_pauli_term, measure_in_bases, parity_passes and
adaptive_predicate.  It is the reference the batched path is checked
against, and the path of the entangled demo, whose joint state changes with
every measurement.  ``.sample`` is the batched path: k trials per group of
one or more runs on one state, drawn through sample_stacked_outcomes.  The
closed-form functions return the expected pass probability from dense
expectations.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable

import numpy as np

from .hypergraphs import AdaptiveStabilizerForm, outcome_tables
from .paulis import PauliString, PauliSum, bit_for_qubit, qubit_mask
from .states import (
    DenseState,
    MeasurementRecord,
    StackLayout,
    expectations,
    masked_pauli_expectation,
    projector_overlap,
    sample_stacked_outcomes,
    search_segments,
    stack_segments,
)


def draw_pauli_term(pauli_sum: PauliSum, rng: np.random.Generator) -> int:
    """Sample one term index from the |coefficient|/l1 distribution."""
    i = int(np.searchsorted(pauli_sum.cum, rng.random(), side="right"))
    return min(i, len(pauli_sum.terms) - 1)


def parity_passes(record: MeasurementRecord, sign: int) -> bool:
    return math.prod(record.outcomes) == sign


# ---------------------------------------------------------------------------
# Parity test (the energy test of the ground protocol and the stabilizer test
# of the circuit protocol)


def parity_test_exact_ppass(rho: DenseState, pauli_sum: PauliSum) -> float:
    """1/2 + <H>/(2 * l1), with H the rescaled Hamiltonian or a stabilizer."""
    return _parity_ppass(expectations(rho, pauli_sum.terms), pauli_sum.l1_norm)


def _parity_ppass(values: list[float], l1_norm: float) -> float:
    """The pass probability of a sum from its terms' expectations, added in term order."""
    return 0.5 + sum(values) / (2.0 * l1_norm)


# the ground protocol's name for the same closed form; pvbench reads it
energy_test_exact_ppass = parity_test_exact_ppass


# ---------------------------------------------------------------------------
# Adaptive stabilizer test (hypergraph states)


def adaptive_predicate(
    record: MeasurementRecord, form: AdaptiveStabilizerForm
) -> tuple[bool, int]:
    """Evaluate the branch rule chosen by the observed projector bits.

    The projector bits ``a`` are read off the Z outcomes (+1 -> 0, -1 -> 1);
    returns (passed, a).
    """
    a = 0
    for v in form.projector_support:
        a = (a << 1) | (record.outcomes[v] == -1)
    alpha, residual = form.branch_for_bits(a)
    prod = record.outcomes[form.vertex]
    for v in residual:
        prod *= record.outcomes[v]
    return prod == (-1 if alpha else 1), a


def adaptive_test_exact_ppass(
    rho: DenseState, form: AdaptiveStabilizerForm, g_dense: np.ndarray | None = None
) -> float:
    """(1 + <g_i>)/2, summed branch by branch: (Tr[rho P_a] + Tr[rho P_a S_a])/2 over all a.

    ``g_dense``, the stabilizer as a dense matrix, switches to its overlap.
    ``AdaptiveTest.exact_ppass`` passes none, so every hypergraph
    ``group_ppass`` (each robustness point's ``per_group_ppass``) is the branch sum.
    """
    if g_dense is not None:
        return 0.5 * (1.0 + projector_overlap(rho, g_dense))
    total = 0.0
    for a, alpha, residual in form.branch_table():
        fixed = {v: bit for v, bit in zip(form.projector_support, a)}
        proj = masked_pauli_expectation(
            rho, PauliString.identity(form.n), fixed_bits=fixed
        )
        xmask = bit_for_qubit(form.n, form.vertex)
        zmask = qubit_mask(form.n, residual)
        string = PauliString(form.n, xmask, zmask, -1.0 if alpha else 1.0)
        signed = masked_pauli_expectation(rho, string, fixed_bits=fixed)
        total += 0.5 * (proj + signed)
    return total


# ---------------------------------------------------------------------------
# Run kernels: k trials of each group's test, for each run
#
# A kernel holds the tests of every group of a protocol run, and it draws
# every uniform of each run's test stream: ``variates`` per trial, group by
# group and trial by trial.  ``trials`` is the scalar path: one run's
# trials, drawn one at a time between the measurements of a source that may
# change state; it is the reference ``sample`` is checked against.
# ``sample`` takes one generator per run (lazily, so one is alive at a time)
# and draws each run's ``variates * groups * k`` uniforms in one call;
# rng.random(a) followed by rng.random(b) equals rng.random(a + b), so its
# results equal the scalar path's trial for trial.  Both return (passed,
# branches): ``trials`` in the shape of its registers, ``sample`` one
# (groups, k) block per run.


def _group_of_trial(n_groups: int, n_trials: int, total: int) -> np.ndarray:
    """The group of each of ``total`` trials laid out run by run, ``n_trials`` per group."""
    return np.tile(np.repeat(np.arange(n_groups), n_trials), total // (n_groups * n_trials))


class ParityTest:
    """Parity tests of sampled Pauli sums, one sum per group.

    A trial draws a term of its group's sum with probability |coefficient|/l1,
    measures its bases and passes when the outcome parity equals the term
    sign.  An identity term is part of the draw and always passes, which ties
    the pass rate to the full expectation of the sum.  A trial uses two
    variates: the term, then the outcome.  The branch of a trial is the index
    of its term among all groups' terms.
    """

    variates = 2

    def __init__(self, *sums: PauliSum):
        if not sums:
            raise ValueError("a parity test needs at least one Pauli sum")
        self.sums = sums
        self.n = sums[0].n
        if any(s.n != self.n for s in sums):
            raise ValueError("the sums of a parity test must share one register width")
        self.group_l1 = tuple(s.l1_norm for s in sums)
        self.terms = terms = [t for s in sums for t in s.terms]
        # the sign of a vanishing coefficient is undefined, but such a term
        # carries no sampling weight
        self.signs = np.array([1 if t.coeff > 0 else -1 for t in terms])
        # each distinct basis, told apart by its masks, gets one axis string
        # and one Born table per state
        basis_id: dict[tuple[int, int], int] = {}
        self.basis_id = np.array(
            [basis_id.setdefault(t.key, len(basis_id)) for t in terms], dtype=np.int64
        )
        bases = [PauliString(self.n, x, z).axes for x, z in basis_id]
        self.layout = StackLayout.of(self.n, bases)
        # the groups' term CDFs, stacked
        self.term_cum, self.term_width = stack_segments([s.cum for s in sums])
        self.term_count = np.array([len(s.terms) for s in sums], dtype=np.int64)
        self.term_offset = np.cumsum(self.term_count) - self.term_count

    def trials(
        self, source, registers: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pass flags and term indices of one run; [i, t] tests ``registers[i, t]``, group i."""
        passed = np.empty(registers.shape, dtype=bool)
        terms = np.empty(registers.shape, dtype=np.int64)
        for (i, t), register in np.ndenumerate(registers):
            index = draw_pauli_term(self.sums[i], rng)
            term = self.sums[i].terms[index]
            record = source.measure(int(register), term.axes, rng)
            passed[i, t] = parity_passes(record, term.sign)
            terms[i, t] = self.term_offset[i] + index
        return passed, terms

    def sample(
        self, state: DenseState, rngs: Iterable[np.random.Generator], n_trials: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pass flags and term indices, (runs, groups, k), on ``state``; one generator a run."""
        shape = (-1, len(self.sums), n_trials)
        u = np.concatenate([g.random(self.variates * len(self.sums) * n_trials) for g in rngs])
        group = _group_of_trial(len(self.sums), n_trials, u.size // 2)
        local = search_segments(self.term_cum, self.term_width, group, u[0::2])
        term = self.term_offset[group] + np.minimum(local, self.term_count[group] - 1)
        idx = sample_stacked_outcomes(state, self.layout, self.basis_id[term], u[1::2])
        # the outcome product is -1 exactly when the index has odd popcount
        passed = ((np.bitwise_count(idx) & 1) == 1) == (self.signs[term] < 0)
        return passed.reshape(shape), term.reshape(shape)

    def exact_ppass(self, rho: DenseState) -> tuple[float, ...]:
        """``parity_test_exact_ppass(rho, s)`` for each group's sum ``s``, bit for bit.

        The expectations of every group's terms come from one gather; each
        term's value does not depend on its neighbours in the gather, and each
        group adds its own values in term order.
        """
        values = expectations(rho, self.terms)
        return tuple(
            _parity_ppass(values[lo : lo + len(s.terms)], s.l1_norm)
            for lo, s in zip(self.term_offset.tolist(), self.sums)
        )

    def branch_label(self, term: int) -> str:
        basis = self.layout.bases[self.basis_id[term]]
        return f"{'+' if self.signs[term] > 0 else '-'}{basis}"

    def branch_labels(self, group: int, terms: np.ndarray) -> list[str]:
        """The labels of a row of term indices, looked up in the table of every term."""
        return self._label_table[terms].tolist()

    @cached_property
    def _label_table(self) -> np.ndarray:
        return np.array([self.branch_label(t) for t in range(len(self.terms))], dtype=object)


class AdaptiveTest:
    """Adaptive stabilizer tests of hypergraph vertices, one form per group.

    A trial measures X on the tested vertex and Z everywhere else, then
    applies the branch rule the observed projector bits ``a`` choose.  It uses
    one variate, and its branch is ``a``.  ``sample`` reads the pass flag and
    ``a`` of every joint outcome off the forms' outcome tables, built once.
    """

    variates = 1

    def __init__(self, *forms: AdaptiveStabilizerForm):
        if not forms:
            raise ValueError("an adaptive test needs at least one form")
        self.forms = forms
        self.layout = StackLayout.of(forms[0].n, [f.bases() for f in forms])
        self.group_l1 = (1.0,) * len(forms)

    def trials(
        self, source, registers: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pass flags and projector bits of one run; [i, t] tests ``registers[i, t]``, group i."""
        passed = np.empty(registers.shape, dtype=bool)
        bits = np.empty(registers.shape, dtype=np.int64)
        for (i, t), register in np.ndenumerate(registers):
            record = source.measure(int(register), self.layout.bases[i], rng)
            passed[i, t], bits[i, t] = adaptive_predicate(record, self.forms[i])
        return passed, bits

    def sample(
        self, state: DenseState, rngs: Iterable[np.random.Generator], n_trials: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pass flags and projector bits, (runs, groups, k), on ``state``; one generator a run."""
        shape = (-1, len(self.forms), n_trials)
        u = np.concatenate([g.random(self.variates * len(self.forms) * n_trials) for g in rngs])
        group = _group_of_trial(len(self.forms), n_trials, u.size)
        idx = sample_stacked_outcomes(state, self.layout, group, u)
        passes, bits = self._outcome_tables
        # one flat index into the (group, outcome) tables
        idx += group * passes.shape[1]
        return passes.take(idx).reshape(shape), bits.take(idx).reshape(shape)

    def exact_ppass(self, rho: DenseState) -> tuple[float, ...]:
        """``adaptive_test_exact_ppass(rho, f)`` for each group's form ``f``."""
        return tuple(adaptive_test_exact_ppass(rho, f) for f in self.forms)

    @cached_property
    def _outcome_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Every form's outcome tables, one row per group."""
        return outcome_tables(self.forms)

    def branch_label(self, group: int, a: int) -> str:
        width = len(self.forms[group].projector_support)
        return f"a={int(a):0{width}b}" if width else "a="

    def branch_labels(self, group: int, bits: np.ndarray) -> list[str]:
        """The labels of a row of projector bits, spelled once per distinct value.

        A form has 2**width branches, so only the values present are labelled.
        """
        values, inverse = np.unique(bits, return_inverse=True)
        labels = np.array([self.branch_label(group, a) for a in values.tolist()], dtype=object)
        return labels[inverse].tolist()


# ---------------------------------------------------------------------------
# Monte Carlo helper


def monte_carlo_pass_rate(
    kernel, n_trials: int, rng: np.random.Generator, state: DenseState
) -> tuple[float, int]:
    """Sample a one-group kernel (ParityTest, AdaptiveTest) on ``state``; returns (rate, pass count).

    Every trial consumes a fixed number of variates in a fixed order, so
    trial t is reproducible from the generator seed and t alone.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    if len(kernel.group_l1) != 1:
        raise ValueError(f"the kernel must have one group, got {len(kernel.group_l1)}")
    passes = int(np.count_nonzero(kernel.sample(state, [rng], n_trials)[0]))
    return passes / n_trials, passes


def binomial_sigma(p: float, n_trials: int) -> float:
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    return float(np.sqrt(max(p * (1.0 - p), 0.0) / n_trials))
