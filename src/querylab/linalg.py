"""Dense linear algebra over small multi-register complex state spaces.

States are flat complex vectors with an ordered tuple of register dimensions;
the flat index runs in C order over the registers (first register is the most
significant axis). Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "StateVector",
    "DensityMatrix",
    "checked_unitary",
    "partial_trace",
    "trace_distance",
    "dft_matrix",
    "random_unitary",
]

_ATOL = 1e-10


def _as_dims(register_dims) -> tuple:
    try:
        dims = tuple(int(d) for d in register_dims)
    except TypeError:
        dims = (int(register_dims),)
    if not dims or any(d < 1 for d in dims):
        raise DimensionError(f"register dimensions must be positive, got {register_dims!r}")
    return dims


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class StateVector:
    """A unit-norm (within 1e-10) complex vector over an ordered product of registers."""

    amplitudes: np.ndarray
    register_dims: tuple

    def __post_init__(self):
        dims = _as_dims(self.register_dims)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise DimensionError(
                f"amplitude length {amps.size} does not match register dims {dims}"
            )
        if abs(np.linalg.norm(amps) - 1.0) > _ATOL:
            raise ParameterError(f"state vector has norm {np.linalg.norm(amps)!r}")
        object.__setattr__(self, "amplitudes", _frozen(amps))
        object.__setattr__(self, "register_dims", dims)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()),
                             self.register_dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over an ordered product of registers."""

    entries: np.ndarray
    register_dims: tuple

    def __post_init__(self):
        dims = _as_dims(self.register_dims)
        m = np.array(self.entries, dtype=complex)
        n = math.prod(dims)
        if m.shape != (n, n):
            raise DimensionError(f"entries shape {m.shape} does not match dims {dims}")
        if np.abs(m - m.conj().T).max() > _ATOL:
            raise ParameterError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(m).real - 1.0) > _ATOL or abs(np.trace(m).imag) > _ATOL:
            raise ParameterError(f"density matrix trace {np.trace(m)!r} is not 1")
        if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -_ATOL:
            raise ParameterError("density matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "entries", _frozen(m))
        object.__setattr__(self, "register_dims", dims)


def checked_unitary(matrix, what: str) -> np.ndarray:
    """A complex copy of ``matrix``, checked to be square and unitary within 1e-10.

    ``what`` names the matrix in the error message.
    """
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {m.shape}")
    if np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() > _ATOL:
        raise ParameterError(f"{what} is not unitary within 1e-10")
    return m


def partial_trace(rho: DensityMatrix, register: int) -> DensityMatrix:
    """Trace out the register at index ``register``."""
    dims = rho.register_dims
    r = int(register)
    if not 0 <= r < len(dims):
        raise DimensionError(f"register index {register!r} out of range for dims {dims}")
    if len(dims) == 1:
        raise DimensionError("cannot trace out every register")
    # contract the dropped axis with its primed partner
    t = np.trace(rho.entries.reshape(dims + dims), axis1=r, axis2=r + len(dims))
    kept_dims = dims[:r] + dims[r + 1:]
    n = math.prod(kept_dims)
    return DensityMatrix(t.reshape(n, n), kept_dims)


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
