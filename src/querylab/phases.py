"""Biased distributions over cyclic phases.

The noise model used throughout the package perturbs a uniform distribution
over the order-``q`` roots of unity toward a window of exponents centered on
zero: with ``M = q // 4``, the window is ``{-M, ..., M}`` taken mod ``q``, and
a bias ``eps`` in ``[0, 1]`` moves probability mass from the complement onto
the window. ``eps = 0`` is exactly uniform; ``eps = 1`` is uniform on the
window alone.

All distribution functions work with integer exponents ``k`` in
``{0, ..., q-1}``; the corresponding phase value is ``exp(2j*pi*k/q)``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParameterError

__all__ = [
    "pmf_vector",
    "phase_mean",
    "phase_moment",
    "moment_table",
    "sample_histogram",
    "window_halfwidth",
]


def _check_bias(eps: float) -> float:
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ParameterError(f"bias must lie in [0, 1], got {eps!r}")
    return eps


def _check_order(q: int) -> int:
    q = int(q)
    if q < 2:
        raise ParameterError(f"phase order must be >= 2, got {q!r}")
    return q


def window_halfwidth(q: int) -> int:
    """Half-width M of the favored exponent window for order ``q``."""
    return _check_order(q) // 4


def pmf_vector(eps: float, q: int) -> np.ndarray:
    """Full pmf over exponents ``0..q-1`` as a float array."""
    eps = _check_bias(eps)
    q = _check_order(q)
    M = window_halfwidth(q)
    out = np.full(q, (1.0 - eps) / q)
    hi = (1.0 + eps * (q / (2 * M + 1) - 1.0)) / q
    out[: M + 1] = hi
    if M > 0:
        out[q - M :] = hi
    return out


def phase_mean(eps: float, q: int) -> float:
    """Mean of the phase value, E[exp(2j*pi*k/q)].

    Real for every (eps, q) because the window is symmetric; equals
    ``eps * sin((2M+1)*pi/q) / ((2M+1)*sin(pi/q))`` with ``M = q // 4``,
    which tends to ``2*eps/pi`` for large ``q``.
    """
    return phase_moment(eps, q, 1)


def phase_moment(eps: float, q: int, m: int | np.ndarray) -> float | np.ndarray:
    """Power moments E[exp(2j*pi*k*m/q)] of the bias-``eps`` distribution.

    ``m`` is an integer (the moment is a float) or an integer array (an
    array of moments). Exactly 1 where ``m`` is a multiple of ``q``;
    otherwise the uniform part cancels and the value is ``eps`` times the
    normalized Dirichlet kernel ``sin((2M+1)*pi*r/q) / ((2M+1)*sin(pi*r/q))``
    with ``r = m mod q``, so every off-lattice moment is linear in the bias.
    The window is symmetric, so all moments are real.
    """
    eps = _check_bias(eps)
    q = _check_order(q)
    r = np.asarray(m, dtype=np.int64) % q
    width = 2 * window_halfwidth(q) + 1
    with np.errstate(invalid="ignore"):  # 0/0 where r = 0, replaced by 1
        kernel = np.sin(width * np.pi * r / q) / (width * np.sin(np.pi * r / q))
    out = np.where(r == 0, 1.0, eps * kernel)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=64)
def moment_table(eps: float, q: int, max_power: int) -> np.ndarray:
    """Read-only power moments for the integer powers ``-max_power..max_power``.

    Index ``i`` holds the moment of power ``i - max_power``. The
    averaged-output engine evaluates products of per-coordinate moments over
    large index grids; this table makes each evaluation an array lookup.
    Cached per argument triple, so callers share one table.
    """
    max_power = int(max_power)
    if max_power < 0:
        raise ParameterError(f"max_power must be >= 0, got {max_power!r}")
    table = phase_moment(eps, q, np.arange(-max_power, max_power + 1))
    table.flags.writeable = False
    return table


# Default uniforms per block of the sampler; a block's scratch arrays are
# reused, so a draw allocates nothing d-length.
_SAMPLE_BLOCK = 1 << 15


@lru_cache(maxsize=64)
def _guide_table(eps: float, q: int) -> tuple:
    # CDF with its last entry pinned to 1, a power-of-two bucket count B >= 4q,
    # guide[j] = the inverse-CDF answer at the left edge j/B of bucket j, and
    # whether one step from the guide always suffices: the CDF entry after
    # guide[j] reaches the bucket's right edge (j+1)/B in every bucket
    cdf = np.cumsum(pmf_vector(eps, q))
    cdf[-1] = 1.0
    buckets = 1 << (4 * q - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(buckets) / buckets, side="right").astype(np.int64)
    next_cdf = cdf[np.minimum(guide + 1, q - 1)]
    one_step = bool(np.all(next_cdf >= np.arange(1, buckets + 1) / buckets))
    cdf.flags.writeable = False
    guide.flags.writeable = False
    return cdf, guide, buckets, one_step


def _exponent_blocks(eps: float, q: int, rng: np.random.Generator, size: int,
                     block: int = _SAMPLE_BLOCK):
    """Yield a ``size``-entry bias-``eps`` exponent draw, ``block`` entries at a time.

    The one sampler loop: ``sample_histogram`` and ``ensembles.draw_traces``
    consume it. Each exponent comes from its own uniform by inverse CDF, so
    two generators seeded identically produce identical exponent streams for
    any two biases that share a pmf (in particular, a draw at ``eps = 0``
    matches plain uniform sampling draw-for-draw). The blocks consume the
    generator's stream exactly as one ``rng.random(size)`` call would, so
    the exponents, and the generator state after the last block, are the
    same for every ``block``.

    The inverse CDF is an exact guide table (Chen & Asau's indexed search): a
    uniform ``u`` starts at ``guide[floor(u*B)]`` and steps up while
    ``u >= cdf[k]``. The bucket count B is a power of two, so ``u*B`` and
    the bucket edges ``j/B`` are exact; ``j/B <= u`` makes each guide entry a
    lower bound on the answer, and stepping stops at the first CDF value
    above ``u``. Each exponent is therefore ``searchsorted(cdf, u, "right")``
    for every ``u``, including ``u`` exactly on a CDF value. Each block
    takes the step ``k += u >= cdf[k]``. That one step suffices when every
    pmf entry exceeds 1/B, as at any bias below 3/4; otherwise flat or
    nearly flat CDF runs need more, and the entries that stepped keep
    stepping while ``u >= cdf[k]``.

    Every yielded block but the last holds ``block`` entries. It is a view
    of one reused buffer that the next block overwrites, so a consumer must
    read it before resuming the loop.
    """
    cdf, guide, buckets, one_step = _guide_table(_check_bias(eps), _check_order(q))
    n = min(size, block)
    # the 8-byte block buffers are rows of one allocation: freeing it raises
    # glibc's mmap and trim thresholds above its size, so the next draw
    # reuses the memory; three separate buffers would be trimmed and faulted
    # in again on every draw (about 180 minor faults each)
    rows = np.empty((3, n))
    u, scratch, step = rows[0], rows[1], np.empty(n, bool)
    # the bucket indices and the CDF values are never live at once, so they
    # share one row
    bucket = scratch.view(np.intp)
    k = rows[2].view(np.int64)
    for lo in range(0, size, block):
        m = min(block, size - lo)
        kb = k[:m]
        rng.random(out=u[:m])
        # u*B is exact, and the cast floors it as u*B >= 0
        np.multiply(u[:m], buckets, out=bucket[:m], casting="unsafe")
        np.take(guide, bucket[:m], out=kb, mode="clip")
        np.take(cdf, kb, out=scratch[:m], mode="clip")
        np.greater_equal(u[:m], scratch[:m], out=step[:m])
        kb += step[:m]
        if not one_step:
            moving = np.flatnonzero(step[:m])
            while moving.size:
                moving = moving[u[moving] >= cdf[kb[moving]]]
                kb[moving] += 1
        yield kb


def sample_histogram(eps: float, q: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Exponent counts of a ``size``-entry bias-``eps`` draw, without storing the draw.

    Each block of the sampler (``_exponent_blocks``) is counted while it is
    in cache, and nothing ``size``-length is allocated.
    """
    q = _check_order(q)
    counts = np.zeros(q, dtype=np.int64)
    for kb in _exponent_blocks(eps, q, rng, size):
        counts += np.bincount(kb, minlength=q)
    return counts
