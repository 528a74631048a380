"""Circuit generators for the separation experiments.

Two families matter:

- the amplification probe family: a trace-probe preparation (Fourier in,
  query, Fourier out, flag-flip on index 0) advanced by Grover-style
  iterates, which consumes inverse queries through the reflection about the
  initial state;
- matched forward-only circuits at equal (d, aux, n): the all-forward twin of
  the probe circuit and seeded random interleavings, providing the ceiling
  that the inverse-using family is compared against.

The probe pieces are built here once, for these circuits. The production
probes of ``amplitude`` never build them: they run the exact two-level
reduction of the probe preparation, which the tests check against the dense
matrix made from these pieces.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .linalg import dft_matrix, random_unitary
from .query_sim import FORWARD, INVERSE, FixedGate, InverseQuery, QueryCircuit

__all__ = [
    "flag_flip_matrix",
    "probe_pieces",
    "grover_iterate_circuit",
    "matched_forward_circuit",
    "random_interleaved_circuit",
]


def flag_flip_matrix(d: int) -> np.ndarray:
    """Permutation swapping the two flag values on query-register index 0.

    The flag register is 2-dimensional, so the matrix is 2d x 2d.
    """
    z = np.eye(2 * d)
    z[[0, 1]] = z[[1, 0]]
    return z


def probe_pieces(t: np.ndarray) -> tuple:
    """(Fourier in, Fourier out, flag flip) of a probe built on the unitary ``t``.

    Fourier in is ``t`` on the query register and the identity on the flag,
    Fourier out its adjoint; the flag flip acts on query index 0. The probe
    preparation is then flip @ out @ oracle @ in.
    """
    eye2 = np.eye(2)
    return np.kron(t, eye2), np.kron(t.conj().T, eye2), flag_flip_matrix(t.shape[0])


def grover_iterate_circuit(d: int, n: int) -> QueryCircuit:
    """The inverse-using demonstration family at query budget n.

    Builds the probe preparation X (one forward query), then as many full
    iterates X*S0*Xdag*S_good (two queries each, one inverse) as the budget
    allows; an even budget ends after the inverse half of the last iterate.
    Adjacent fixed gates are fused, so the step list stays short.
    """
    n = int(n)
    if n < 1:
        raise ParameterError(f"query budget must be >= 1, got {n!r}")
    ti, tdi, z = probe_pieces(dft_matrix(d))
    s_good = np.kron(np.eye(d), np.diag([1.0, -1.0]))
    s_zero = np.eye(2 * d)
    s_zero[0, 0] = -1.0
    steps = [FixedGate(ti), FORWARD, FixedGate(z @ tdi)]
    used = 1
    while used < n:
        if used + 2 <= n:
            steps += [
                FixedGate(ti @ z @ s_good),
                INVERSE,
                FixedGate(ti @ s_zero @ tdi),
                FORWARD,
                FixedGate(z @ tdi),
            ]
            used += 2
        else:
            steps += [FixedGate(ti @ z @ s_good), INVERSE, FixedGate(tdi)]
            used += 1
    return QueryCircuit(d, 2, tuple(steps))


def matched_forward_circuit(d: int, n: int) -> QueryCircuit:
    """The all-forward twin: same gate skeleton, every inverse query forward."""
    base = grover_iterate_circuit(d, n)
    steps = tuple(FORWARD if isinstance(s, InverseQuery) else s for s in base.steps)
    return QueryCircuit(d, 2, steps)


def random_interleaved_circuit(d: int, aux: int, pattern: str, rng) -> QueryCircuit:
    """Haar-random fixed gates around the given query pattern ('+'/'-')."""
    steps = [FixedGate(random_unitary(d * aux, rng))]
    for ch in pattern:
        if ch == "+":
            steps.append(FORWARD)
        elif ch == "-":
            steps.append(INVERSE)
        else:
            raise ParameterError(f"pattern characters must be '+' or '-', got {ch!r}")
        steps.append(FixedGate(random_unitary(d * aux, rng)))
    return QueryCircuit(d, aux, tuple(steps))
