"""Bias-eps ensembles of diagonal oracles and their normalized-trace statistics.

An oracle here is a diagonal unitary on a d-dimensional register: entry k is
the order-q root of unity exp(2j*pi*e_k/q), every exponent e_k drawn i.i.d.
from the bias-eps window distribution; bias 0 is the uniform ensemble, every
entry uniform over the order-q roots. Its ramp-twisted twin multiplies entry
k by exp(2j*pi*k*turns/d).

Callers read a draw only through its normalized traces, so no draw is
stored: ``draw_trace`` counts the exponents as they are drawn, and
``draw_traces`` also sums the twisted trace as the draw streams. The oracle
objects these are checked against live in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .phases import (
    _SAMPLE_BLOCK,
    _check_order,
    _exponent_blocks,
    phase_mean,
    pmf_vector,
)

__all__ = [
    "GAP_DIMENSION_FACTOR",
    "gap_dimension",
    "draw_trace",
    "draw_traces",
    "concentration_check",
    "trace_gap_check",
]

# Dimension factor calibrated so that at d = GAP_DIMENSION_FACTOR / eps^2 both
# trace-gap events hold with probability >= 0.99 across the test grid.
GAP_DIMENSION_FACTOR = 800


@lru_cache(maxsize=64)
def _roots(q: int) -> np.ndarray:
    # the order-q roots of unity; entry k is exp(2j*pi*k/q)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    roots.flags.writeable = False
    return roots


def _histogram_trace(counts: np.ndarray, d: int) -> complex:
    # the normalized trace of a d-entry diagonal with these exponent counts
    return complex(counts @ _roots(counts.size) / d)


def _unit_phases(steps: np.ndarray, d: int) -> np.ndarray:
    # exp(2j*pi*r/d) for integer steps r, each reduced mod d before scaling
    return np.exp(2j * np.pi * (steps % d) / d)


def _check_dimension(d: int) -> int:
    d = int(d)
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d!r}")
    return d


def gap_dimension(eps: float) -> int:
    """Smallest register dimension with the calibrated trace-gap guarantee."""
    if not 0 < eps <= 1:
        raise ParameterError(f"bias must lie in (0, 1] for a gap dimension, got {eps!r}")
    return math.ceil(GAP_DIMENSION_FACTOR / eps**2)


def draw_trace(eps: float, d: int, q: int, rng: np.random.Generator) -> complex:
    """Normalized trace of one bias-``eps`` draw, from its exponent histogram alone.

    The d exponents are counted block by block (``phases._exponent_blocks``),
    each while it is in cache, and never stored; the trace is
    ``counts @ roots / d``.
    """
    d = _check_dimension(d)
    q = _check_order(q)
    counts = np.zeros(q, dtype=np.int64)
    for kb in _exponent_blocks(eps, q, rng, d):
        counts += np.bincount(kb, minlength=q)
    return _histogram_trace(counts, d)


def draw_traces(eps: float, d: int, q: int, turns: int, rng: np.random.Generator) -> tuple:
    """Plain and ramp-twisted normalized traces of one bias-``eps`` draw, in one pass.

    Returns ``(plain, twisted)``. ``plain`` equals ``draw_trace(eps, d, q,
    rng)`` bit for bit, and ``rng`` ends in the same state. ``twisted`` is
    sum_k roots[e_k] w^(k*turns) / d with w = exp(2j*pi/d): the normalized
    trace of the draw composed with ``turns`` ramp turns. It depends on the
    order of the entries, yet the draw is never stored.

    With k = a*B + b and B = isqrt(d - 1) + 1 the twisted sum is
    sum_a w^(a*B*turns) sum_b roots[e_(aB+b)] w^(b*turns): about 2*sqrt(d)
    exp calls, every ramp phase reduced mod d in integers before it is
    scaled. The sampler hands over whole rows of that grid, many at a time.
    Each block is counted for the plain trace, then gathered into a reused
    buffer and reduced to its row sums by one small matvec; the partial last
    row, if any, is the end of the last block. The twisted trace agrees with
    a long-double entry sum to about 1e-17 at d = 320,000.
    """
    d = _check_dimension(d)
    q = _check_order(q)
    turns = int(turns) % d
    width = math.isqrt(d - 1) + 1
    full, tail = divmod(d, width)
    cols = _unit_phases(np.arange(width) * turns, d)
    rows = _unit_phases(np.arange(full + (tail > 0)) * (width * turns % d), d)
    roots = _roots(q)
    per_block = max(1, _SAMPLE_BLOCK // width)
    counts = np.zeros(q, dtype=np.int64)
    buf = np.empty(min(per_block, full) * width, dtype=complex)
    sums = np.empty(rows.size, dtype=complex)
    lo = 0
    for kb in _exponent_blocks(eps, q, rng, d, per_block * width):
        counts += np.bincount(kb, minlength=q)
        n = min(per_block, full - lo)
        block = buf[:n * width]
        # mode="clip" keeps np.take unbuffered; exponents already lie in [0, q)
        np.take(roots, kb[:n * width], out=block, mode="clip")
        sums[lo:lo + n] = block.reshape(n, width) @ cols
        lo += n
    if tail:
        sums[full] = roots[kb[n * width:]] @ cols[:tail]
    return _histogram_trace(counts, d), complex(sums @ rows) / d


def _ntr_samples(eps: float, d: int, q: int, trials: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Normalized traces of ``trials`` independent bias-``eps`` draws.

    The trace depends only on the exponent histogram, so one multinomial per
    trial replaces ``d`` categorical draws. The distribution is identical to
    drawing entry by entry.
    """
    d = _check_dimension(d)
    pmf = pmf_vector(eps, q)
    counts = rng.multinomial(d, pmf / pmf.sum(), size=trials)
    return counts @ _roots(int(q)) / d


def concentration_check(eps: float, d: int, q: int, t: float, trials: int,
                        rng: np.random.Generator) -> float:
    """Empirical tail: fraction of draws with |ntr - E[ntr]| >= t."""
    t = float(t)
    trials = int(trials)
    if trials < 100:
        raise ParameterError(f"need at least 100 trials for a tail estimate, got {trials}")
    if t < 0:
        raise ParameterError(f"deviation must be nonnegative, got {t!r}")
    samples = _ntr_samples(eps, d, q, trials, rng)
    return float(np.mean(np.abs(samples - phase_mean(eps, q)) >= t))


def trace_gap_check(eps: float, d: int, q: int, trials: int,
                    rng: np.random.Generator) -> tuple:
    """Frequencies of the two separating events over paired unbiased/biased draws.

    Returns ``(fraction with |ntr(unbiased)| < 0.1*eps,
    fraction with |ntr(biased)| >= 0.2*eps)``. Both sit at or above 0.99 once
    ``d >= gap_dimension(eps)``; smaller d returns the raw (possibly poor)
    frequencies so the dimension requirement can be demonstrated.
    """
    if not 0 < eps <= 1:
        raise ParameterError(f"bias must lie in (0, 1], got {eps!r}")
    trials = int(trials)
    if trials < 1:
        raise ParameterError("need at least one trial")
    s0 = _ntr_samples(0.0, d, q, trials, rng)
    s1 = _ntr_samples(eps, d, q, trials, rng)
    frac0 = float(np.mean(np.abs(s0) < 0.1 * eps))
    frac1 = float(np.mean(np.abs(s1) >= 0.2 * eps))
    return frac0, frac1
