"""The package's arithmetic that needs no numpy: schedules, thresholds, margins, caps.

The paper's parameter schedules, the exact group thresholds, the
sampling-hardness margin, the dense-size cap check and the l1 reporting
budget are integer and ``Fraction`` arithmetic plus one square root.  This
module imports neither numpy nor any module that does, so the ``params``
and ``iqp-margin`` subcommands start without it.  Every module that uses
these names imports them from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

PROTOCOLS = ("ground", "circuit", "hypergraph")

# The protocol each kind of target file runs.
PROTOCOL_FOR_KIND = {
    "hamiltonian": "ground",
    "circuit": "circuit",
    "hypergraph": "hypergraph",
}

# Ground accepts a LOW pass rate; the circuit and hypergraph groups a high one.
COMPARISON = {"ground": "<=", "circuit": ">=", "hypergraph": ">="}

# ln(2) to 50 digits, as an exact rational, so the register-count schedules
# evaluate to reproducible integers far beyond double precision.
LN2 = Fraction("0.69314718055994530941723212145817656807550013436026")

SAMPLING_HARDNESS_THRESHOLD = Fraction(1, 192)


class CapExceededError(ValueError):
    """Raised when an operation would exceed the dense-simulation caps."""


def capped_dim(n: int, cap: int, what: str) -> int:
    """2**n for ``what`` on ``n`` qubits; raises CapExceededError when n > cap.

    This is the one place the caps are enforced.  Every dense allocation
    takes its size from the value returned here, so the check always runs
    before anything of that size exists.  A negative ``n`` is refused.
    """
    if n < 0:
        raise ValueError(f"{what} needs a non-negative qubit count, got {n}")
    if n > cap:
        raise CapExceededError(f"{what} on {n} qubits exceeds the {cap}-qubit cap")
    return 1 << n


def l1_budget(n: int, budget: float | None) -> float:
    """The l1 budget on ``n`` qubits: ``budget``, or 10 * n**3 when it is None."""
    if budget is not None and not 0.0 <= float(budget) < math.inf:
        raise ValueError(f"the l1 budget must be finite and non-negative, got {budget}")
    return 10.0 * n**3 if budget is None else float(budget)


def budget_report(n: int, l1: float, budget: float | None) -> dict:
    """The sampling condition of a Pauli sum on ``n`` qubits with l1 norm ``l1``.

    Both Pauli-sum protocols report it.  The l1 budget (``l1_budget``) never
    blocks execution.  The term distribution is always materialized and its
    l1 norm known exactly, so those two flags hold.
    """
    budget = l1_budget(n, budget)
    return {
        "n_qubits": n,
        "budget_value": budget,
        "within_budget": l1 <= budget,
        "distribution_materialized": True,
        "l1_exactly_known": True,
    }


def quantity(value, mode: str, **extra) -> dict:
    """A number tagged with how it was computed."""
    if mode not in ("exact", "monte_carlo", "bound"):
        raise ValueError(f"unknown computation mode {mode!r}")
    out = {"value": value, "mode": mode}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# Parameter schedules


def _int_nth_root(value: int, n: int) -> int:
    """floor(value ** (1/n)) of a positive integer, by Newton iteration on integers."""
    x = 1 << (-(-value.bit_length() // n))
    while True:
        y = ((n - 1) * x + value // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _nth_root_fraction(value: int, n: int) -> Fraction:
    """value ** (1/n) as a Fraction to 30 digits, exact when the root is an integer."""
    exact = _int_nth_root(value, n)
    if exact**n == value:
        return Fraction(exact)
    scale = 10**30
    return Fraction(_int_nth_root(value * scale**n, n), scale)


@dataclass(frozen=True)
class ProtocolParams:
    """Run sizes, the deviation parameter, and their provenance mode.

    ``mode="paper"`` means the full conservative schedule; ``mode="desk"``
    are user overrides that carry no guarantee and are flagged as such.
    Only paper-mode params are ``conforming``.
    """

    protocol: str
    n: int
    k: int
    m: int
    epsilon: Fraction
    mode: str
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.mode not in ("desk", "paper"):
            raise ValueError("mode must be 'desk' or 'paper'")
        for name, value, low in (("n", self.n, 1), ("k", self.k, 1), ("m", self.m, 0)):
            if value < low:
                raise ValueError(f"{name} must be at least {low}, got {value}")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie strictly between 0 and 1")

    @property
    def conforming(self) -> bool:
        return self.mode == "paper"

    @property
    def n_registers(self) -> int:
        per_group = self.k if self.protocol == "ground" else self.n * self.k
        return per_group + self.m + 1

    def to_jsonable(self) -> dict:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "epsilon": str(self.epsilon),
            "epsilon_float": float(self.epsilon),
            "mode": self.mode,
            "conforming": self.conforming,
            "n_registers": self.n_registers,
            "notes": list(self.notes),
        }


def schedule_epsilon(protocol: str, n: int, k: int | None = None) -> Fraction:
    """The schedule's deviation parameter; the hypergraph one shrinks with k."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if protocol == "ground":
        return Fraction(1, 4 * n**2)
    if protocol == "circuit":
        return Fraction(1, 2 * n**3)
    if protocol == "hypergraph":
        if k is None:
            raise ValueError("the hypergraph epsilon needs k")
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        return 1 / (4 * n * _nth_root_fraction(k**2, 7))
    raise ValueError(f"unknown protocol {protocol!r}")


def schedule_params(
    protocol: str,
    n: int,
    l1_norm: float | None = None,
    k: int | None = None,
) -> ProtocolParams:
    """Minimal conforming (epsilon, k, m) for the chosen protocol.

    ``l1_norm`` is the coefficient l1 norm that scales the ground/circuit
    schedules; the hypergraph schedule does not use it.  A user ``k`` above
    the minimum is kept (the hypergraph epsilon then shrinks with it).
    The register counts are astronomical at realistic n: they are meant to
    be reported, not executed.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if l1_norm is not None and not 0.0 < l1_norm < math.inf:
        raise ValueError(f"the l1 norm must be finite and positive, got {l1_norm}")
    notes = []
    if protocol != "hypergraph":
        # k >= c * l1**2 * n**e and m = 2 * n**e * k**2 * ln 2
        c, e, norm = (32, 5, "coefficient") if protocol == "ground" else (8, 7, "max")
        if l1_norm is None:
            raise ValueError(f"the {protocol} schedule needs the {norm} l1 norm")
        eps = schedule_epsilon(protocol, n)
        k_min = math.ceil(c * Fraction(l1_norm) ** 2 * n**e)
        k_val = max(k_min, k or 0)
        m_val = math.ceil(2 * n**e * k_val**2 * LN2)
    else:
        k_min = (4 * n) ** 7
        k_val = max(k_min, k or 0)
        root = _nth_root_fraction(k_val**2, 7)
        if root.denominator != 1:
            notes.append("k**(2/7) is irrational; epsilon carries 30 digits")
        eps = schedule_epsilon(protocol, n, k_val)
        m_val = math.ceil(2 * n**3 * k_val**2 * root**2 * LN2)  # k**(18/7) = k**2 * root**2
    return ProtocolParams(
        protocol=protocol,
        n=n,
        k=k_val,
        m=m_val,
        epsilon=eps,
        mode="paper",
        notes=tuple(notes),
    )


def desk_params(
    protocol: str, n: int, k: int, m: int = 0, epsilon: float | Fraction = Fraction(1, 10)
) -> ProtocolParams:
    """Arbitrary desk-scale run sizes; flagged non-conforming.

    A float epsilon is read decimally (Fraction("0.1") = 1/10), so thresholds
    stay exact rationals that match what the user typed.
    """
    if not isinstance(epsilon, Fraction):
        if not math.isfinite(epsilon):
            raise ValueError(f"epsilon must be a finite number, got {epsilon}")
        epsilon = Fraction(str(epsilon))
    return ProtocolParams(
        protocol=protocol,
        n=n,
        k=k,
        m=m,
        epsilon=epsilon,
        mode="desk",
        notes=("desk-scale parameters: no soundness guarantee is claimed",),
    )


# ---------------------------------------------------------------------------
# Exact thresholds


def ground_accept_threshold(epsilon: Fraction, l1_norm: float) -> Fraction:
    return Fraction(1, 2) + epsilon / (2 * Fraction(l1_norm))


def circuit_group_threshold(epsilon: Fraction, l1_norm: float) -> Fraction:
    return Fraction(1, 2) + (1 - epsilon) / (2 * Fraction(l1_norm))


def hypergraph_group_threshold(epsilon: Fraction) -> Fraction:
    return 1 - epsilon


def pass_cut(comparison: str, threshold: Fraction, k: int) -> int:
    """floor(threshold * k) for "<=" and ceil(threshold * k) for ">=", in integers.

    A rate ``passes / k`` compares to ``threshold`` as ``passes`` compares to this cut.
    """
    if comparison == "<=":
        return (threshold.numerator * k) // threshold.denominator
    return -((-threshold.numerator * k) // threshold.denominator)


@lru_cache(maxsize=64)
def group_thresholds(
    protocol: str, epsilon: Fraction, group_l1: tuple[float, ...]
) -> tuple[Fraction, ...]:
    """Each group's exact pass-rate threshold, compared by ``COMPARISON[protocol]``.

    ``group_l1[i]`` is the l1 norm of group i's sampled Pauli sum (1 for the
    adaptive test, whose pass rate (1 + <g>)/2 is the unit-norm case).  The
    result is memoized, so the runs of one target and epsilon compute it once.
    """
    if protocol == "ground":
        return tuple(ground_accept_threshold(epsilon, l1) for l1 in group_l1)
    if protocol == "circuit":
        return tuple(circuit_group_threshold(epsilon, l1) for l1 in group_l1)
    return tuple(hypergraph_group_threshold(epsilon) for _ in group_l1)


# ---------------------------------------------------------------------------
# Sampling-hardness margin


@dataclass(frozen=True)
class MarginReport:
    fidelity: float
    sampler_error: float
    state_term: float  # 2*sqrt(1 - fidelity)
    total_bound: float
    threshold: float
    satisfied: bool
    note: str

    def to_jsonable(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "sampler_error": self.sampler_error,
            "state_term": quantity(self.state_term, "bound"),
            "total_bound": quantity(self.total_bound, "bound"),
            "threshold": self.threshold,
            "satisfied": self.satisfied,
            "note": self.note,
        }


def supremacy_margin(fidelity: float, sampler_error: float) -> MarginReport:
    """Total l1 bound 2*sqrt(1-F) + sampler_error against the 1/192 line."""
    # a computed overlap, such as a report's target_fidelity, rounds up to 1e-12 outside [0, 1]
    if not -1e-12 <= fidelity <= 1.0 + 1e-12:
        raise ValueError("fidelity must lie in [0, 1]")
    if not 0.0 <= sampler_error < math.inf:
        raise ValueError(
            f"sampler error must be finite and non-negative, got {sampler_error}"
        )
    # math.sqrt is the correctly rounded IEEE square root, as np.sqrt is
    state_term = 2.0 * math.sqrt(max(1.0 - fidelity, 0.0))
    total = state_term + sampler_error
    threshold = float(SAMPLING_HARDNESS_THRESHOLD)
    return MarginReport(
        fidelity=fidelity,
        sampler_error=sampler_error,
        state_term=state_term,
        total_bound=total,
        threshold=threshold,
        satisfied=total <= threshold,
        note=(
            "state term instantiates the target-fidelity floor 1 - k**(-1/7) "
            "as 2*k**(-1/14) when derived from a run size k"
        ),
    )


def minimal_k_for_sampling_hardness(sampler_error: Fraction = Fraction(1, 193)) -> int:
    """Smallest run size k with 2*k**(-1/14) + sampler_error <= 1/192.

    Exact integer arithmetic: k = ceil((2/t)**14) with t the error headroom.
    """
    t = SAMPLING_HARDNESS_THRESHOLD - Fraction(sampler_error)
    if t <= 0:
        raise ValueError("the sampler error leaves no headroom")
    k = math.ceil((2 / t) ** 14)
    # verify the defining inequality exactly at k (root exact when integral)
    root = Fraction(2) / t
    if root.denominator == 1 and root.numerator**14 == k:
        assert Fraction(2, root.numerator) + sampler_error <= SAMPLING_HARDNESS_THRESHOLD
    return k
