"""Shared fixtures and independent dense-matrix oracles.

The oracle helpers here deliberately avoid the package's own mask-based
Pauli machinery: everything is built from literal 2x2 matrices and np.kron,
so agreement between the two paths is a real check.
"""
import numpy as np
import pytest
from hypothesis import settings

# Property tests draw their examples from a fixed derandomized stream, so the
# suite runs the same cases every time and leaves no example database behind.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
SINGLE = {"I": I2, "X": X2, "Y": Y2, "Z": Z2, "0": P0, "1": P1}


def kron_chain(*mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def dense_from_axes(axes: str, coeff: float = 1.0) -> np.ndarray:
    """Oracle dense matrix of a Pauli (or projector) letter string."""
    return coeff * kron_chain(*(SINGLE[a] for a in axes))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def trace_distance(rho, sigma) -> float:
    """Oracle trace distance: half the summed |eigenvalues| of the dense rho - sigma."""

    def density(state) -> np.ndarray:
        return np.outer(state.data, state.data.conj()) if state.is_pure else state.data

    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(density(rho) - density(sigma)))))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
