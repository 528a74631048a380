"""Dense linear algebra for the distinguishing advantage of a query circuit.

The advantage is the trace distance between two ensemble-averaged outputs,
so this module holds the checked density matrix, the trace distance, the
unitarity check and the two unitary builders (the DFT and a Haar-random
unitary). Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "DensityMatrix",
    "checked_unitary",
    "trace_distance",
    "dft_matrix",
    "random_unitary",
]

_ATOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A square, finite, Hermitian, PSD, unit-trace complex matrix (each within 1e-10)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise DimensionError(f"density matrix must be square and non-empty, "
                                 f"got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ParameterError("density matrix has a non-finite entry")
        if not np.abs(m - m.conj().T).max() <= _ATOL:
            raise ParameterError("density matrix is not Hermitian within 1e-10")
        if not (abs(np.trace(m).real - 1.0) <= _ATOL and abs(np.trace(m).imag) <= _ATOL):
            raise ParameterError(f"density matrix trace {np.trace(m)!r} is not 1")
        if not np.linalg.eigvalsh((m + m.conj().T) / 2).min() >= -_ATOL:
            raise ParameterError("density matrix has an eigenvalue below -1e-10")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


def checked_unitary(matrix, what: str) -> np.ndarray:
    """A complex copy of ``matrix``, checked to be square, finite and unitary within 1e-10.

    ``what`` names the matrix in the error message.
    """
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ParameterError(f"{what} has a non-finite entry")
    if not np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() <= _ATOL:
        raise ParameterError(f"{what} is not unitary within 1e-10")
    return m


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of the Hermitian difference of two density matrices."""
    a, b = rho.entries, sigma.entries
    if a.shape != b.shape:
        raise DimensionError(f"trace distance needs equal shapes, got {a.shape} vs {b.shape}")
    diff = a - b
    diff = (diff + diff.conj().T) / 2
    return float(np.abs(np.linalg.eigvalsh(diff)).sum() / 2)


def dft_matrix(d: int) -> np.ndarray:
    """The d-dimensional discrete Fourier transform; column 0 is uniform."""
    d = int(d)
    if d < 1:
        raise ParameterError(f"DFT dimension must be >= 1, got {d!r}")
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diagonal(r) / np.abs(np.diagonal(r)))
