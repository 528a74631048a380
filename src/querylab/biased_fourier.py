"""Near-orthonormal frames from biased phase distributions.

The frame column for index k is ``sum_g sqrt(pmf(g)) * w^{gk} |g>`` with
``w = exp(2j*pi/q)``: a Fourier column reweighted by the square root of the
bias-``eps`` pmf. At bias 0 these are exactly the DFT columns; for small bias
they stay close to orthonormal, and orthonormalizing them yields a unitary
that maps frame column k onto basis states ``{|0>, ..., |k>}`` only, with the
retained weight on ``|k>`` controlled by the bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, QuerylabError
from .linalg import gram_schmidt
from .phases import pmf_vector, window_halfwidth

__all__ = [
    "BiasedBasis",
    "build_biased_frame",
    "frame_matrix",
    "singular_spectrum",
    "overlap_bound_check",
    "moment_power_sum",
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
    cols = gram_schmidt(frame)
    transform = np.stack(cols, axis=1).conj().T
    if np.abs(transform @ transform.conj().T - np.eye(q)).max() > 1e-10:
        raise QuerylabError("orthonormalization failed to produce a unitary within 1e-10")
    coeffs = transform @ frame
    for a in (frame, transform, coeffs):
        a.flags.writeable = False
    return BiasedBasis(order=q, bias=eps, frame=frame, transform=transform, coeffs=coeffs)


def singular_spectrum(q: int, eps: float) -> np.ndarray:
    """All singular values of the frame matrix, descending."""
    return np.linalg.svd(frame_matrix(q, eps), compute_uv=False)


def overlap_bound_check(q: int, eps: float, k: int) -> float:
    """Mass of frame column k inside the span of the previous orthonormal columns.

    Computed as <f_k| P_{k-1} |f_k> with P_{k-1} the projector onto the first
    k orthonormalized columns, and cross-checked against 1 - |residual|^2.
    """
    q, eps = _check_args(q, eps)
    k = int(k)
    if not 1 <= k < q:
        raise ParameterError(f"column index must lie in [1, {q}), got {k!r}")
    basis = build_biased_frame(q, eps)
    f_k = basis.frame[:, k]
    prev = basis.transform.conj().T[:, :k]  # orthonormal columns 0..k-1
    proj_mass = float(np.linalg.norm(prev.conj().T @ f_k) ** 2)
    residual = f_k - prev @ (prev.conj().T @ f_k)
    alt = 1.0 - float(np.linalg.norm(residual) ** 2)
    if abs(proj_mass - alt) > 1e-10:
        raise QuerylabError("projector and residual computations of the overlap disagree")
    return proj_mass


def moment_power_sum(eps: float, q: int) -> float:
    """Sum over nonzero powers of the squared moment magnitude.

    Equals ``eps^2 * (q/(2M+1) - 1)`` with ``M = q // 4``; the closed form is
    returned and the caller can verify it against direct summation of
    ``|phase_moment|^2``.
    """
    q, eps = _check_args(q, eps)
    M = window_halfwidth(q)
    return eps**2 * (q / (2 * M + 1) - 1.0)


def frame_summary(q: int, eps: float) -> dict:
    """One sweep row: retained-weight floor, singular values, worst overlap.

    The frame's one SVD gives the singular window and ``singular_gap``, the
    largest distance between the singular values and their closed form
    ``sqrt(q * pmf)``, compared in sorted order.
    """
    # the SVD runs first, so its workspace is freed before the basis is built
    spectrum = singular_spectrum(q, eps)
    basis = build_biased_frame(q, eps)
    target = np.sqrt(q * pmf_vector(eps, q))
    # column k's overlap with the span of its predecessors is the squared
    # mass of its strictly-upper coefficients
    upper = np.triu(np.abs(basis.coeffs) ** 2, 1)
    return {
        "q": q,
        "eps": eps,
        "min_alpha_sq": float((basis.alphas**2).min()),
        "sigma_min": float(spectrum[-1]),
        "sigma_max": float(spectrum[0]),
        "singular_gap": float(np.abs(np.sort(spectrum) - np.sort(target)).max()),
        "max_overlap": float(upper.sum(axis=0).max()),
    }
