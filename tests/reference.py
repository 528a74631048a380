"""Dense references that the package's fast paths are checked against.

None of this runs on a production path. The package computes each quantity
below in a reduced form: the probes as exact two-level rotations, the lemma
quantities from the Toeplitz moment Gram, the ensemble average from
difference-coded moment weights. The tests compare those against the dense
matrices and frames here:

- ``DensePreparation`` and ``dense_probe_matrix``: the explicit 2d x 2d
  probe unitaries that ``amplitude.PairedPreparation`` reduces (the trace
  probe, which ``distinguish_by_estimation`` builds, and the pair probe,
  which ``distinguish_by_amplification`` builds), and the collapsed flagged
  state that ``first_register_zero`` measures;
- ``gram_schmidt``, ``frame_matrix`` and ``build_biased_frame``: the q x q
  biased Fourier frame and its orthonormalization;
- ``biased_ft_rotate``: a forward-only purification re-expressed in the
  frame's rounded label basis;
- ``moment_gram``: the dense K x K moment matrix of a purified state;
- ``density``: one state's averaged output at one bias, read from the
  batch-in, list-per-state form of ``query_sim.average_density``;
- ``phase_pmf``: the bias distribution, one exponent at a time;
- ``DiagonalOracle``, ``draw`` and ``normalized_trace``: a stored oracle
  draw, every exponent a binary search of its own uniform in the CDF (the
  contract of ``phases._exponent_blocks``), and its normalized trace, which
  ``ensembles.draw_trace`` and ``ensembles.draw_traces`` compute from the
  streamed draw without storing it;
- ``ramp`` and ``oracle_values``: an oracle's complex diagonal, entry by
  entry, which ``ensembles.draw_traces`` sums in factored form;
- ``mle_loglik`` and ``mle_theta``: the amplitude-estimation likelihood
  and fit with every log term computed afresh, where ``amplitude``
  caches the terms of the coarse grid and of each fine grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from querylab import query_sim
from querylab.amplitude import PreparationOracle
from querylab.biased_fourier import _check_args
from querylab.ensembles import _check_dimension, _roots
from querylab.errors import DegeneracyError, DimensionError, ParameterError, QuerylabError
from querylab.families import probe_pieces
from querylab.linalg import (
    DensityMatrix,
    checked_unitary,
    dft_matrix,
    trace_distance,
)
from querylab.phases import _check_bias, _check_order, _guide_table, moment_table, pmf_vector
from querylab.query_sim import PurifiedState, average_density

# ---------------------------------------------------------------- phases


def phase_pmf(eps: float, q: int, k: int) -> float:
    """Probability of exponent ``k`` under the bias-``eps`` distribution."""
    eps = _check_bias(eps)
    q = _check_order(q)
    k = int(k)
    if not 0 <= k < q:
        raise ParameterError(f"exponent must lie in [0, {q}), got {k!r}")
    M = q // 4
    if k <= M or k >= q - M:
        return (1.0 + eps * (q / (2 * M + 1) - 1.0)) / q
    return (1.0 - eps) / q


# ---------------------------------------------------------------- oracles


@dataclass(frozen=True, eq=False)
class DiagonalOracle:
    """A stored diagonal unitary: order-q phase exponents plus an optional ramp.

    Entry k is exp(2j*pi*e_k/q) * exp(2j*pi*k*ramp_turns/d). The exponents
    are a frozen int64 copy reduced mod q, and the ramp turns are reduced
    mod d. Equality is identity: a field-wise ``==`` would compare the
    exponent arrays entry by entry, which has no single truth value.
    """

    exponents: np.ndarray
    order: int
    dimension: int
    ramp_turns: int = 0

    def __post_init__(self):
        q = _check_order(self.order)
        d = _check_dimension(self.dimension)
        e = np.array(self.exponents, dtype=np.int64) % q
        if e.shape != (d,):
            raise DimensionError(f"exponent vector shape {e.shape} does not match d={d}")
        e.flags.writeable = False
        object.__setattr__(self, "exponents", e)
        object.__setattr__(self, "order", q)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "ramp_turns", int(self.ramp_turns) % d)

    def compose_ramp(self, turns: int) -> "DiagonalOracle":
        """Multiply by ``turns`` additional ramp turns (negative to undo)."""
        return DiagonalOracle(self.exponents, self.order, self.dimension,
                              self.ramp_turns + int(turns))


def draw(eps: float, d: int, q: int, rng) -> DiagonalOracle:
    """One bias-``eps`` oracle: ``searchsorted(cdf, rng.random(d), "right")``."""
    d = _check_dimension(d)
    cdf = _guide_table(_check_bias(eps), _check_order(q))[0]
    return DiagonalOracle(np.searchsorted(cdf, rng.random(d), side="right"), q, d)


def normalized_trace(oracle: DiagonalOracle) -> complex:
    """Trace of the diagonal divided by d.

    Without a ramp it is ``bincount(exponents) @ roots / d``, the expression
    the package evaluates on its streamed counts; with one it is the plain
    sum of ``oracle_values``.
    """
    d = oracle.dimension
    if oracle.ramp_turns:
        return complex(oracle_values(oracle).sum() / d)
    return complex(np.bincount(oracle.exponents, minlength=oracle.order) @ _roots(oracle.order) / d)


def ramp(d: int, turns: int) -> np.ndarray:
    """Entry k is exp(2j*pi*k*turns/d), with k*turns reduced mod d in integers."""
    return np.exp(2j * np.pi * ((np.arange(d) * turns) % d) / d)


def oracle_values(oracle: DiagonalOracle) -> np.ndarray:
    """The complex diagonal: window phases composed with the ramp."""
    v = _roots(oracle.order)[oracle.exponents]
    if oracle.ramp_turns:
        v = v * ramp(oracle.dimension, oracle.ramp_turns)
    return v


# ---------------------------------------------------------------- estimation


def mle_loglik(counts, grid: np.ndarray) -> np.ndarray:
    """Joint log-likelihood of per-level (m, shots, hits) counts, every term afresh."""
    total = np.zeros_like(grid)
    for m, shots, hits in counts:
        p = np.sin((2 * m + 1) * grid) ** 2
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        total += hits * np.log(p) + (shots - hits) * np.log1p(-p)
    return total


def mle_theta(counts, eps: float) -> float:
    """Maximum-likelihood angle, both scans computing every log term afresh."""
    step = 0.25 * eps
    coarse = np.arange(0.0, math.pi / 2 + step, step)
    coarse[-1] = math.pi / 2
    best = coarse[int(np.argmax(mle_loglik(counts, coarse)))]
    lo = max(0.0, best - 2 * step)
    hi = min(math.pi / 2, best + 2 * step)
    fine = np.linspace(lo, hi, 801)
    return float(fine[int(np.argmax(mle_loglik(counts, fine)))])


# ---------------------------------------------------------------- frames


def gram_schmidt(columns: np.ndarray) -> np.ndarray:
    """Orthonormalize the ordered, linearly independent columns of a matrix.

    Column k of the result lies in the span of the first k input columns and
    has a real, positive overlap with input column k. A residual below 1e-8
    raises a degeneracy error.
    """
    a = np.array(columns, dtype=complex)
    dim, k = a.shape
    if k > dim:
        raise DegeneracyError(f"{k} vectors in dimension {dim} cannot be independent")
    qmat, r = np.linalg.qr(a, mode="reduced")
    diag = np.diagonal(r).copy()
    if np.abs(diag).min() < 1e-8:
        raise DegeneracyError(
            f"residual norm {np.abs(diag).min():.3e} below 1e-8; family is numerically degenerate"
        )
    phase = diag / np.abs(diag)
    return qmat * phase.conj()  # makes <out_k, in_k> = |r_kk| > 0


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


# ---------------------------------------------------------------- probes


class DensePreparation(PreparationOracle):
    """Preparation given by an explicit unitary and a flagged-index mask."""

    def __init__(self, matrix: np.ndarray, good_mask: np.ndarray, register_dims=None):
        m = checked_unitary(matrix, "preparation matrix")
        mask = np.array(good_mask, dtype=bool)
        if mask.shape != (m.shape[0],):
            raise DimensionError("flag mask length must match the matrix dimension")
        super().__init__()
        self._matrix = m
        self._adjoint = m.conj().T
        self._mask = mask
        self._sign = np.where(mask, -1.0, 1.0)
        self._dims = tuple(register_dims) if register_dims is not None else (m.shape[0],)

    def state(self, m: int) -> np.ndarray:
        """X|0> advanced by m Grover iterates, by dense evolution; uncounted."""
        v = self._matrix[:, 0].copy()
        for _ in range(m):
            v = self._adjoint @ (self._sign * v)
            v[0] = -v[0]
            v = self._matrix @ v
        return v

    def _flag_probability(self, m):
        return float(np.sum(np.abs(self.state(m)[self._mask]) ** 2))

    def collapse(self, m: int) -> np.ndarray:
        """Normalized flagged component after m iterates, reshaped to the register dims."""
        state = self.state(m)
        w = np.zeros_like(state)
        w[self._mask] = state[self._mask]
        n = np.linalg.norm(w)
        if n < 1e-12:
            raise DegeneracyError("state has no flagged component to collapse onto")
        return (w / n).reshape(self._dims)


def uniform_ramp_unitary(d: int) -> np.ndarray:
    """Unitary sending |0> to the uniform state and |1> to its ramped twin.

    Column 1 is the uniform superposition with phases e^{2 pi i k / d}, which
    is exactly orthogonal to column 0; the remaining columns complete the
    basis by Gram-Schmidt applied to standard basis vectors.
    """
    d = int(d)
    if d < 2:
        raise ParameterError(f"dimension must be >= 2, got {d}")
    cols = np.zeros((d, d), dtype=complex)
    cols[:, 0] = 1.0 / math.sqrt(d)
    cols[:, 1] = np.exp(2j * math.pi * np.arange(d) / d) / math.sqrt(d)
    cols[2:, 2:] = np.eye(d - 2)
    return gram_schmidt(cols)


def dense_probe_matrix(oracle: DiagonalOracle, variant: str) -> np.ndarray:
    """The 2d x 2d probe unitary flip @ out @ oracle @ in.

    The trace probe flags query index 0 after the DFT; the paired probe
    flags indices 0 and 1 after the ramp unitary.
    """
    d = oracle.dimension
    if variant == "trace":
        ti, tdi, z = probe_pieces(dft_matrix(d))
    else:
        ti, tdi, _ = probe_pieces(uniform_ramp_unitary(d))
        z = np.eye(2 * d)
        z[:4] = z[[1, 0, 3, 2]]  # the flag flip on query indices 0 and 1
    diag = np.repeat(oracle_values(oracle), 2)
    return z @ (tdi @ (diag[:, None] * ti))


# ------------------------------------------------------------ purifications


def moment_gram(p: PurifiedState, eps: float, q: int) -> tuple:
    """(the K x d keys, K x K moment matrix) of a purified state of few keys."""
    everything = slice(None)
    span = int(p.keys.max() - p.keys.min())
    weights_for = query_sim._moment_weights(p.keys, span, p.key_count ** 2, p.key_count ** 2)
    return p.keys, weights_for(moment_table(float(eps), int(q), span))(everything, everything)


@dataclass(frozen=True)
class RotatedPurification:
    """Purification re-expressed in the orthonormalized (rounded) label basis."""

    d: int
    aux_dim: int
    bias: float
    order: int
    retained: dict = field(repr=False)
    error_mass: dict = field(repr=False)
    rotated: dict = field(repr=False)

    def density(self) -> DensityMatrix:
        dim = self.d * self.aux_dim
        rho = np.zeros((dim, dim), dtype=complex)
        for w in self.rotated.values():
            rho += np.outer(w, w.conj())
        rho = (rho + rho.conj().T) / 2
        return DensityMatrix(rho)


def density(p: PurifiedState, eps: float, q: int) -> DensityMatrix:
    """The averaged output of the first state of ``p`` at bias ``eps``."""
    return average_density(p, [eps], q)[0][0]


def biased_ft_rotate(p: PurifiedState, eps: float, q: int) -> RotatedPurification:
    """Re-express a forward-only purification (the first state of ``p``) in the rounded label basis.

    Each histogram key keeps amplitude ``prod_i alpha[e_i]`` on its own label
    and leaks the rest onto lexicographically lower labels; the new labels
    are orthonormal, so tracing them out reproduces the moment-weighted
    average, which is cross-checked here to 1e-9.
    """
    if not p.forward_only:
        raise ParameterError("label rounding is defined for forward-only purifications")
    q = int(q)
    if (p.keys >= q).any():
        e = tuple(p.keys[(p.keys >= q).any(axis=1).argmax()].tolist())
        raise ParameterError(f"histogram key {e} has an exponent >= q={q}")
    basis = build_biased_frame(q, eps)
    c = basis.coeffs
    alphas = basis.alphas
    retained, error_mass = {}, {}
    rotated = {}
    dim = p.d * p.aux_dim
    for e, v in zip(map(tuple, p.keys.tolist()), p.vectors[0]):
        amp = float(np.prod(alphas[list(e)]))
        retained[e] = amp
        error_mass[e] = 1.0 - amp * amp
        for label in itertools.product(*(range(x + 1) for x in e)):
            coef = 1.0 + 0.0j
            for li, ei in zip(label, e):
                coef *= c[li, ei]
            if coef == 0.0:
                continue
            slot = rotated.get(label)
            if slot is None:
                slot = np.zeros(dim, dtype=complex)
                rotated[label] = slot
            slot += coef * v
    out = RotatedPurification(p.d, p.aux_dim, float(eps), q, retained, error_mass, rotated)
    direct = density(p, eps, q)
    if trace_distance(out.density(), direct) > 1e-9:
        raise QuerylabError("rotated purification does not reproduce the moment average")
    return out
