"""Diagonal-oracle ensembles and their normalized-trace statistics.

An oracle here is a diagonal unitary on a d-dimensional register, stored as a
vector of order-q phase exponents (never as a dense matrix) plus an optional
deterministic phase ramp whose k-th entry is exp(2j*pi*k*ramp_turns/d). A
draw takes every diagonal entry i.i.d. from the bias-eps window
distribution; bias 0 is the uniform ensemble, every entry uniform over the
order-q roots.

Draws carry no ramp; a ramped oracle is a draw composed with
``DiagonalOracle.compose_ramp``. A caller that reads only a draw's plain
trace takes it from ``draw_trace``, which counts the exponents as they are
drawn and stores none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ParameterError
from .phases import _check_order, phase_mean, pmf_vector, sample_exponents, sample_histogram

__all__ = [
    "DiagonalOracle",
    "GAP_DIMENSION_FACTOR",
    "gap_dimension",
    "draw",
    "draw_trace",
    "normalized_trace",
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


# Entries per block of the blocked histogram and the factored ramp trace.
_TRACE_BLOCK = 1 << 15


def _histogram(exponents: np.ndarray, q: int) -> np.ndarray:
    # bincount block by block: one call over the whole array would copy it
    # into a d-length temporary
    counts = np.zeros(q, dtype=np.int64)
    for lo in range(0, exponents.size, _TRACE_BLOCK):
        counts += np.bincount(exponents[lo:lo + _TRACE_BLOCK], minlength=q)
    return counts


def _histogram_trace(counts: np.ndarray, d: int) -> complex:
    # the normalized trace of a d-entry diagonal with these exponent counts
    return complex(counts @ _roots(counts.size) / d)


def _unit_phases(steps: np.ndarray, d: int) -> np.ndarray:
    # exp(2j*pi*r/d) for integer steps r, each reduced mod d before scaling
    return np.exp(2j * np.pi * (steps % d) / d)


def _ramp_trace(exponents: np.ndarray, q: int, turns: int) -> complex:
    # sum_k roots[e_k] w^(k*turns), w = exp(2j*pi/d). With k = a*B + b and
    # B = ceil(sqrt(d)) it is sum_a w^(a*B*turns) sum_b roots[e_(aB+b)] w^(b*turns):
    # about 2*sqrt(d) exp calls, and the inner sums gather one row block at a
    # time into a reused buffer and take one small matvec per block
    d = exponents.size
    width = math.isqrt(d - 1) + 1
    full, tail = divmod(d, width)
    cols = _unit_phases(np.arange(width) * turns, d)
    rows = _unit_phases(np.arange(full + (tail > 0)) * (width * turns % d), d)
    roots = _roots(q)
    per_block = max(1, _TRACE_BLOCK // width)
    buf = np.empty(min(per_block, full) * width, dtype=complex)
    sums = np.empty(rows.size, dtype=complex)
    for lo in range(0, full, per_block):
        hi = min(lo + per_block, full)
        block = buf[:(hi - lo) * width]
        # mode="clip" keeps np.take unbuffered; exponents already lie in [0, q)
        np.take(roots, exponents[lo * width:hi * width], out=block, mode="clip")
        sums[lo:hi] = block.reshape(hi - lo, width) @ cols
    if tail:
        sums[full] = roots[exponents[full * width:]] @ cols[:tail]
    return complex(sums @ rows)


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


@dataclass(frozen=True, eq=False)
class DiagonalOracle:
    """A diagonal unitary: order-q phase exponents plus an optional ramp.

    Equality is identity: a field-wise ``==`` would compare the exponent
    arrays entry by entry, which has no single truth value.
    """

    exponents: np.ndarray
    order: int
    dimension: int
    ramp_turns: int = 0

    def __post_init__(self):
        q = _check_order(self.order)
        d = _check_dimension(self.dimension)
        # a private copy: freezing it must not freeze the caller's array
        # (draw and compose_ramp share their frozen arrays through _shared)
        e = np.array(self.exponents, dtype=np.int64)
        if e.shape != (d,):
            raise DimensionError(f"exponent vector shape {e.shape} does not match d={d}")
        if e.min() < 0 or e.max() >= q:
            e %= q
        e.flags.writeable = False
        object.__setattr__(self, "exponents", e)
        object.__setattr__(self, "order", q)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "ramp_turns", int(self.ramp_turns) % d)

    @classmethod
    def _shared(cls, exponents: np.ndarray, order: int, dimension: int,
                ramp_turns: int = 0) -> "DiagonalOracle":
        # an oracle on a frozen int64 exponent array already reduced mod
        # ``order``: a draw's or another oracle's. It is shared, not copied.
        oracle = object.__new__(cls)
        for name, value in (("exponents", exponents), ("order", order),
                            ("dimension", dimension), ("ramp_turns", ramp_turns % dimension)):
            object.__setattr__(oracle, name, value)
        return oracle

    def compose_ramp(self, turns: int) -> "DiagonalOracle":
        """Multiply by ``turns`` additional ramp turns (negative to undo).

        The result shares this oracle's exponent array.
        """
        return DiagonalOracle._shared(self.exponents, self.order, self.dimension,
                                      self.ramp_turns + int(turns))


def draw(eps: float, d: int, q: int, rng: np.random.Generator) -> DiagonalOracle:
    """Sample one bias-``eps`` oracle; deterministic under a fixed generator state."""
    d = _check_dimension(d)
    e = sample_exponents(eps, q, rng, size=d)
    e.flags.writeable = False
    return DiagonalOracle._shared(e, int(q), d)


def normalized_trace(oracle: DiagonalOracle) -> complex:
    """Trace of the diagonal divided by the dimension; modulus at most 1.

    Without a ramp the trace depends only on the exponent histogram, so it is
    ``bincount(exponents, minlength=q) @ roots / d``: one integer pass over the
    d entries and a length-q dot product, no per-entry complex arithmetic.
    With a ramp the sum factors over a sqrt(d) x sqrt(d) index grid, with
    every ramp phase reduced mod d in integers before it is scaled; it agrees
    with a long-double entry sum to about 1e-17 at d = 320,000.
    """
    if oracle.ramp_turns:
        return _ramp_trace(oracle.exponents, oracle.order, oracle.ramp_turns) / oracle.dimension
    return _histogram_trace(_histogram(oracle.exponents, oracle.order), oracle.dimension)


def draw_trace(eps: float, d: int, q: int, rng: np.random.Generator) -> complex:
    """Normalized trace of one bias-``eps`` draw, from its exponent histogram alone.

    Equal bit for bit to ``normalized_trace(draw(eps, d, q, rng))``, and
    leaves ``rng`` in the same state, but the d exponents are counted block
    by block as they are drawn and never stored.
    """
    d = _check_dimension(d)
    return _histogram_trace(sample_histogram(eps, q, rng, d), d)


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
