"""The robustness sweep and the exact binomial tails it reads.

Every reported number carries its computation mode ("exact", "monte_carlo",
or "bound") so downstream consumers never mistake a sampled rate for a
closed-form value.  A point's predicted acceptance is a product of exact
binomial tails; its measured acceptance counts the runs whose every group
clears its cut, from the prepared target's ``pass_counts``, with no report.
"""
from __future__ import annotations

import functools
import importlib.util
import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .states import DenseState
from .protocol import (
    PreparedTarget, check_epsilon_prime, check_run_sizes, iid_deviated_prover, run_seeds
)
from .schedules import ProtocolParams, pass_cut, quantity
from .single_copy import binomial_sigma


# ---------------------------------------------------------------------------
# Tail bounds


def hoeffding_tail(k: int, t: float) -> float:
    """exp(-2 t^2 k): the Hoeffding bound on a k-trial mean deviating by t."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not math.isfinite(t):
        raise ValueError(f"the deviation t must be finite, got {t}")
    return float(np.exp(-2.0 * float(t) ** 2 * k))


@functools.cache
def _binomial_kernels():
    """(cdf, sf): scipy's compiled boost kernels behind binom.cdf and binom.sf.

    Running scipy/special/__init__.py would also load scipy's array-API
    layer (numpy.f2py, numpy.testing and some 66 scipy modules; about 0.26 s
    and 25 MB), which the kernels never use.  So, while no other thread can
    see sys.modules, an unexecuted stand-in holds the package's place there
    as ``_ufuncs`` loads, and is removed after.  Otherwise, or if that fails,
    the ordinary import runs.  Either path loads the one ``_ufuncs`` module,
    so the kernels and their bits are the same, and a later ``import
    scipy.special`` runs the package and reuses it.  The check reads
    sys.modules: ``getattr(scipy, "special")`` would import the package.
    """
    if "scipy.special" not in sys.modules and threading.active_count() == 1:
        try:
            spec = importlib.util.find_spec("scipy.special")  # imports scipy, not scipy.special
            sys.modules["scipy.special"] = importlib.util.module_from_spec(spec)
            try:
                from scipy.special._ufuncs import _binom_cdf, _binom_sf
            finally:
                del sys.modules["scipy.special"]
            return _binom_cdf, _binom_sf
        except ImportError:
            pass
    from scipy.special._ufuncs import _binom_cdf, _binom_sf

    return _binom_cdf, _binom_sf


def _binomial_tail(kernel, count: int, k: int, p: float, below: float, above: float) -> float:
    """``kernel`` at ``count`` behind the scalar branches of scipy.stats.binom.sf/cdf.

    binom calls the same boost kernels, which ``_binomial_kernels`` loads
    without the scipy.special package, so the bits match, without importing
    scipy.stats or paying its argument handling on every call.
    NaN for an invalid (k, p), ``below`` under the support, ``above`` at or
    past k, else the kernel clipped to [0, 1].
    """
    if not (k >= 0 and 0.0 <= p <= 1.0):
        return math.nan
    if count < 0:
        return below
    if count >= k:
        return above
    return min(max(float(kernel(float(count), k, p)), 0.0), 1.0)


def binomial_tail_ge(k: int, p: float, threshold: Fraction) -> float:
    """P[K/k >= threshold] exactly, threshold compared as a rational.

    Bit for bit ``scipy.stats.binom.sf(pass_cut(">=", threshold, k) - 1, k, p)``.
    """
    m = pass_cut(">=", threshold, k) - 1
    return _binomial_tail(_binomial_kernels()[1], m, k, p, below=1.0, above=0.0)


def binomial_tail_le(k: int, p: float, threshold: Fraction) -> float:
    """P[K/k <= threshold] exactly.

    Bit for bit ``scipy.stats.binom.cdf(pass_cut("<=", threshold, k), k, p)``.
    """
    m = pass_cut("<=", threshold, k)
    return _binomial_tail(_binomial_kernels()[0], m, k, p, below=0.0, above=1.0)


# ---------------------------------------------------------------------------
# Robustness sweep


@dataclass(frozen=True)
class SweepPoint:
    eps_prime: float
    runs: int
    accepted: int
    acceptance_rate: float
    mc_sigma: float
    per_group_ppass: tuple[float, ...]
    predicted_acceptance: float
    bound: float
    bound_label: str
    bound_valid: bool  # the lower-bound derivation needs eps' <= eps

    def to_jsonable(self) -> dict:
        return {
            "eps_prime": self.eps_prime,
            "runs": self.runs,
            "accepted": self.accepted,
            "acceptance_rate": quantity(
                self.acceptance_rate, "monte_carlo", ci_sigma=self.mc_sigma
            ),
            "per_group_ppass": [quantity(p, "exact") for p in self.per_group_ppass],
            "predicted_acceptance": quantity(self.predicted_acceptance, "exact"),
            "bound": quantity(
                self.bound, "bound", label=self.bound_label, valid=self.bound_valid
            ),
        }


def acceptance_bound(n: int, k: int, epsilon: float, eps_prime: float) -> float:
    """1 - n * exp(-2 (eps' - eps)^2 k); can go negative, meaning vacuous.

    This is a lower bound on acceptance only while eps' <= eps: the per-test
    pass rate of the deviated state is at least 1 - eps', and the derivation
    needs it to clear the 1 - eps group threshold with margin eps - eps'.
    Callers flag points outside that regime.
    """
    return 1.0 - n * hoeffding_tail(k, eps_prime - epsilon)


def robustness_sweep(
    prepared: PreparedTarget,
    eta: DenseState,
    eps_primes: Sequence[float],
    params: ProtocolParams,
    runs: int,
    seed: int,
) -> list[SweepPoint]:
    """Measured acceptance of i.i.d.-deviated provers against the acceptance bound.

    Each point derives its own seed chain from ``seed``.  Every eps' is
    checked before the first point is sampled.  The bound is stated for
    hypergraph targets; for the others it reuses that functional form over
    their groups and is labeled "extrapolated".
    """
    check_run_sizes(runs)
    eps_primes = [float(eps_prime) for eps_prime in eps_primes]
    for eps_prime in eps_primes:
        check_epsilon_prime(eps_prime)
    thresholds = prepared.thresholds(params.epsilon)
    cuts = prepared.pass_cuts(params)
    tail = binomial_tail_le if prepared.comparison == "<=" else binomial_tail_ge
    label = "stated" if prepared.protocol == "hypergraph" else "extrapolated"
    points = []
    for eps_prime, point_seed in zip(eps_primes, run_seeds(seed, len(eps_primes))):
        state = iid_deviated_prover(prepared.ideal, eps_prime, eta).state
        counts = prepared.pass_counts(state, params, run_seeds(point_seed, runs))
        accepted = int(np.count_nonzero(prepared.groups_pass(counts, cuts).all(axis=1)))
        ppass = prepared.group_ppass(state)
        predicted = 1.0
        for p, threshold in zip(ppass, thresholds):
            # a rate one rounding past [0, 1] is a rate at its end, not NaN
            predicted *= tail(params.k, min(max(p, 0.0), 1.0), threshold)
        points.append(
            SweepPoint(
                eps_prime=eps_prime,
                runs=runs,
                accepted=accepted,
                acceptance_rate=accepted / runs,
                mc_sigma=binomial_sigma(predicted, runs),
                per_group_ppass=ppass,
                predicted_acceptance=predicted,
                bound=acceptance_bound(
                    len(thresholds), params.k, float(params.epsilon), eps_prime
                ),
                bound_label=label,
                bound_valid=eps_prime <= float(params.epsilon),
            )
        )
    return points
