"""Near-orthonormal frames from biased phase distributions.

The frame column for index k is ``sum_g sqrt(pmf(g)) * w^{gk} |g>`` with
``w = exp(2j*pi/q)``: a Fourier column reweighted by the square root of the
bias-``eps`` pmf. At bias 0 these are exactly the DFT columns; for small bias
they stay close to orthonormal, and orthonormalizing them yields a unitary
that maps frame column k onto basis states ``{|0>, ..., |k>}`` only, with the
retained weight on ``|k>`` controlled by the bias.

The frame's Gram matrix ``G[j, k] = phase_moment(eps, q, k - j)`` is the real
symmetric circulant Toeplitz matrix of phase moments. The lemma sweep reads
every quantity it checks from that moment row in O(q^2) time: the retained
weights from the Levinson-Durbin recursion, the singular values from one FFT
(Gray, "Toeplitz and Circulant Matrices: A Review", 2006). The dense frame and
its rounding unitary remain for ``query_sim.biased_ft_rotate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, QuerylabError
from .linalg import gram_schmidt
from .phases import moment_table, pmf_vector

__all__ = [
    "BiasedBasis",
    "build_biased_frame",
    "frame_matrix",
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


def frame_matrix(q: int, eps: float) -> np.ndarray:
    """The q x q matrix whose k-th column is the bias-weighted Fourier column."""
    q, eps = _check_args(q, eps)
    g = np.arange(q)
    return np.sqrt(pmf_vector(eps, q))[:, None] * np.exp(2j * np.pi * np.outer(g, g) / q)


@dataclass(frozen=True)
class BiasedBasis:
    """A biased frame together with its orthonormalizing unitary.

    ``transform`` rows are the conjugated orthonormalized columns, so
    ``coeffs = transform @ frame`` is upper triangular with a real positive
    diagonal; ``alphas[k]`` is the weight retained on ``|k>`` when the
    transform is applied to frame column k.
    """

    order: int
    bias: float
    frame: np.ndarray
    transform: np.ndarray
    coeffs: np.ndarray

    @property
    def alphas(self) -> np.ndarray:
        return self.coeffs.diagonal().real.copy()


def build_biased_frame(q: int, eps: float) -> BiasedBasis:
    """Construct the frame and its rounding unitary; degenerate frames raise."""
    q, eps = _check_args(q, eps)
    frame = frame_matrix(q, eps)
    norms = np.linalg.norm(frame, axis=0)
    if np.abs(norms - 1.0).max() > 1e-12:
        raise QuerylabError("frame columns lost unit norm; pmf construction is broken")
    transform = gram_schmidt(frame).conj().T
    if np.abs(transform @ transform.conj().T - np.eye(q)).max() > 1e-10:
        raise QuerylabError("orthonormalization failed to produce a unitary within 1e-10")
    coeffs = transform @ frame
    for a in (frame, transform, coeffs):
        a.flags.writeable = False
    return BiasedBasis(order=q, bias=eps, frame=frame, transform=transform, coeffs=coeffs)


def _moment_row(q: int, eps: float) -> np.ndarray:
    # r[m] = phase_moment(eps, q, m) for m = 0..q-1: the Gram matrix's first row
    row = moment_table(eps, q, q - 1)[q - 1 :]
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
