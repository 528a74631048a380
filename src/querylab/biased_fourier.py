"""Lemma quantities of near-orthonormal frames from biased phase distributions.

The frame column for index k is ``sum_g sqrt(pmf(g)) * w^{gk} |g>`` with
``w = exp(2j*pi/q)``: a Fourier column reweighted by the square root of the
bias-``eps`` pmf. At bias 0 these are exactly the DFT columns; for small bias
they stay close to orthonormal, and orthonormalizing them yields a unitary
that maps frame column k onto basis states ``{|0>, ..., |k>}`` only, with the
retained weight on ``|k>`` controlled by the bias.

The frame's Gram matrix ``G[j, k] = phase_moment(eps, q, k - j)`` is the real
symmetric circulant Toeplitz matrix of phase moments. Its first row, the
powers 0..q-1, is one array call of ``phase_moment``. Every quantity the
lemma sweep checks is read from that moment row in O(q^2) time: the retained
weights from the Levinson-Durbin recursion, the singular values from one FFT
(Gray, "Toeplitz and Circulant Matrices: A Review", 2006). The q x q frame
itself is never built here; the tests build it densely, with its QR and SVD,
as the reference these values are checked against.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, QuerylabError
from .phases import phase_moment, pmf_vector

__all__ = [
    "prediction_errors",
    "frame_summary",
]


def _check_args(q: int, eps: float) -> tuple:
    q = int(q)
    if q < 2:
        raise ParameterError(f"order must be >= 2, got {q!r}")
    eps = float(eps)
    if not 0.0 <= eps < 1.0:
        raise ParameterError(f"bias must lie in [0, 1) for a full-rank frame, got {eps!r}")
    return q, eps


def _moment_row(q: int, eps: float) -> np.ndarray:
    # r[m] = phase_moment(eps, q, m) for m = 0..q-1: the Gram matrix's first row
    row = phase_moment(eps, q, np.arange(q))
    if row[0] != 1.0:
        raise QuerylabError("frame columns lost unit norm; moment construction is broken")
    return row


def prediction_errors(q: int, eps: float) -> np.ndarray:
    """Squared retained weights ``alphas**2`` of the frame, without building it.

    The QR factor R of the frame is the Cholesky factor of its Gram matrix,
    so ``alphas[k]**2 = R[k, k]**2`` is the error of predicting column k from
    columns 0..k-1: the order-k prediction error ``E_k`` of the
    Levinson-Durbin recursion on the moment row (Levinson 1947, Durbin 1960).
    O(q^2) real operations. A Gram matrix that is not numerically positive
    definite (some ``E_k`` outside (0, 1]) raises.
    """
    q, eps = _check_args(q, eps)
    row = _moment_row(q, eps)
    moments = row.tolist()  # scalar steps in Python floats, not numpy scalars
    flipped = row[::-1].copy()  # flipped[q-k : q-1] = r[k-1], ..., r[1]
    coeffs = np.zeros(q)  # order-k predictor of column k from columns k-1, ..., 0
    errors = np.empty(q)
    errors[0] = err = moments[0]
    for k in range(1, q):
        head = coeffs[: k - 1]
        reflection = (moments[k] - float(head @ flipped[q - k : q - 1])) / err
        head -= reflection * head[::-1]  # the product is a new array, so no aliasing
        coeffs[k - 1] = reflection
        errors[k] = err = err * (1.0 - reflection * reflection)
    if not ((errors > 0.0) & (errors <= 1.0)).all():
        raise QuerylabError("frame Gram matrix is not positive definite; the frame is degenerate")
    return errors


def frame_summary(q: int, eps: float) -> dict:
    """One sweep row: retained-weight floor, singular values, worst overlap.

    Read from the moment row in O(q^2) time and O(q) memory. Columns have
    unit norm, so column k's overlap with the span of its predecessors is
    ``1 - E_k``. The Gram matrix is circulant, so its eigenvalues, the squared
    singular values, are the FFT of the moment row: ``q * pmf`` in permuted
    order. ``singular_gap`` is the largest distance between the singular
    values and their closed form ``sqrt(q * pmf)``, compared in sorted order.
    """
    q, eps = _check_args(q, eps)
    errors = prediction_errors(q, eps)
    spectrum = np.sqrt(np.sort(np.fft.fft(_moment_row(q, eps)).real))
    target = np.sort(np.sqrt(q * pmf_vector(eps, q)))
    return {
        "q": q,
        "eps": eps,
        "min_alpha_sq": float(errors.min()),
        "sigma_min": float(spectrum[0]),
        "sigma_max": float(spectrum[-1]),
        "singular_gap": float(np.abs(spectrum - target).max()),
        "max_overlap": float((1.0 - errors).max()),
    }
