"""Amplitude estimation and amplification over black-box state preparations.

A preparation oracle X prepares a|good> + sqrt(1-a^2)|bad> from |0> and
exposes exactly one counted operation, flag_probability(m): one run of X|0>
followed by m Grover iterates X*S0*Xdag*S_good, measured on the flag. That
probability is sin^2((2m+1)*asin a), and it is all that estimation and
amplification read; ``_flag_after`` is its one copy, for the probes and the
likelihood alike. Each run adds 1 + m forward and m inverse applications
of X to the oracle's counters, the only record of queries; the two
reflections are fixed gates and are free. Any subclass of PreparationOracle
that implements the one hook can be driven. The diagonal-oracle probes are
one class, PairedPreparation: the exact O(1)-per-iterate two-level
reduction, at every dimension, of a dense 2d x 2d probe unitary that only
the tests build. The distinguishers take the oracle's normalized traces as
numbers and build that probe themselves, so nothing here reads a draw.

No controlled application of X exists anywhere on this surface.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegeneracyError, ParameterError

__all__ = [
    "PreparationOracle",
    "PairedPreparation",
    "DistinguishOutcome",
    "naive_estimate",
    "amplitude_estimate",
    "estimate_budget",
    "amplitude_amplify",
    "distinguish_by_estimation",
    "distinguish_by_amplification",
    "ESTIMATE_SHOTS",
    "ESTIMATE_REPEATS",
    "ESTIMATE_CHAIN_CONSTANT",
    "ESTIMATE_BUDGET_CONSTANT",
    "AMPLIFY_GROWTH",
    "AMPLIFY_DEFAULT_CAP",
]

# Estimation schedule. Shots per chain level, independent repetitions the
# median is taken over, and the chain-length constant: the deepest level runs
# ceil(ESTIMATE_CHAIN_CONSTANT / eps) iterates.
ESTIMATE_SHOTS = 32
ESTIMATE_REPEATS = 5
ESTIMATE_CHAIN_CONSTANT = 0.9

# Worst case of estimate_budget(eps) * eps over eps in (0, 1); the total
# query count of amplitude_estimate never exceeds ESTIMATE_BUDGET_CONSTANT/eps.
ESTIMATE_BUDGET_CONSTANT = 1300

# Growth factor of the iterate-depth bound between rounds. Slower growth
# wastes rounds (each costs a preparation) before the depth reaches 1/a;
# faster growth overshoots past the first useful depth window. With 1.5 the
# query count was measured to scale linearly in 1/a across a in [0.05, 0.4]
# (log-log slope 1.03 over 600 seeds per a; tests/test_amplitude.py requires
# 0.85-1.15). That is a measurement, not a proof: the expected O(1/a) bound
# of Boyer, Brassard, Hoyer and Tapp (quant-ph/9605034) is proven only for
# growth 1 < lambda < 4/3.
AMPLIFY_GROWTH = 1.5

# Most oracle calls one amplitude_amplify run may spend.
AMPLIFY_DEFAULT_CAP = 10**6


def _flag_after(theta, m):
    """Flag probability after m Grover iterates at flagged angle theta (or an array of angles)."""
    return np.sin((2 * m + 1) * theta) ** 2


class PreparationOracle(ABC):
    """Black-box preparation with query counters.

    Subclasses implement the one uncounted hook; flag_probability advances
    the counters and is the only oracle call the algorithms make.
    """

    def __init__(self):
        self.forward_queries = 0
        self.inverse_queries = 0

    @abstractmethod
    def _flag_probability(self, m: int) -> float:
        """Flag probability of X|0> advanced by m >= 0 Grover iterates."""

    def flag_probability(self, m: int) -> float:
        """One run of X|0> and m Grover iterates, measured on the flag.

        Costs 1 + m forward and m inverse queries.
        """
        m = int(m)
        if m < 0:
            raise ParameterError(f"iterate count must be >= 0, got {m}")
        self.forward_queries += 1 + m
        self.inverse_queries += m
        return float(self._flag_probability(m))

    def sample_flag(self, shots: int, rng, iterations: int = 0) -> int:
        """Flag hits over `shots` runs of X|0> and `iterations` iterates.

        The dynamics are deterministic, so a single run fixes the outcome
        probability; the counters advance for every repetition.
        """
        shots = int(shots)
        if shots < 1:
            raise ParameterError(f"shot count must be >= 1, got {shots}")
        p = min(1.0, max(0.0, self.flag_probability(iterations)))
        self.forward_queries += (shots - 1) * (1 + iterations)
        self.inverse_queries += (shots - 1) * iterations
        return int(rng.binomial(shots, p))


class PairedPreparation(PreparationOracle):
    """Exact two-level preparation whose flagged part is alpha|0,1> + beta|1,1>.

    Grover iterates of any preparation rotate X|0> by twice the flagged angle
    (Brassard, Hoyer, Mosca and Tapp, quant-ph/0005055), so the flag
    probability after m iterates is ``_flag_after`` at asin of the flagged
    norm ``hypot(|alpha|, |beta|)``, O(1) at any dimension. A norm that is
    not finite, or above 1 beyond rounding, is rejected.

    The register is (d, 2), the second factor holding the flag. Both probes
    use it: the trace probe with beta = 0, and the pair probe, where the
    first register of the flagged state carries which of the two trace
    functionals dominates (see ``distinguish_by_amplification``).
    """

    def __init__(self, alpha: complex, beta: complex):
        self.alpha = complex(alpha)
        self.beta = complex(beta)
        norm = math.hypot(abs(self.alpha), abs(self.beta))
        if not norm <= 1.0 + 1e-12:
            raise ParameterError(f"flagged amplitude must lie in [0, 1], got {norm}")
        super().__init__()
        self._norm = norm
        self._theta = math.asin(min(1.0, norm))

    def _flag_probability(self, m):
        return _flag_after(self._theta, m)

    def first_register_zero(self) -> float:
        """Probability |alpha|^2 / (|alpha|^2 + |beta|^2) that the flagged state's first register is 0."""
        if self._norm < 1e-300:
            raise DegeneracyError("flagged component vanishes; its first register is undefined")
        return (abs(self.alpha) / self._norm) ** 2


def naive_estimate(oracle: PreparationOracle, shots: int, rng) -> float:
    """Square root of the flag frequency over `shots` preparations.

    Forward queries only; the sampling error of the underlying frequency is
    O(1/sqrt(shots)).
    """
    hits = oracle.sample_flag(shots, rng, iterations=0)
    return math.sqrt(max(0.0, hits / int(shots)))


def _estimation_chain(eps: float) -> list:
    """Iterate depths of one estimation repeat: ceil(chain constant / eps), halved down to 0."""
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"target error must lie in (0, 1), got {eps}")
    chain = []
    m = max(1, math.ceil(ESTIMATE_CHAIN_CONSTANT / eps))
    while m > 0:
        chain.append(m)
        m //= 2
    chain.append(0)
    return chain


def _log_terms(m: int, grid: np.ndarray) -> tuple:
    """log p and log(1 - p) on the angle grid, p the flag probability after m iterates."""
    p = np.clip(_flag_after(grid, m), 1e-12, 1.0 - 1e-12)
    return np.log(p), np.log1p(-p)


def _loglik(counts, terms) -> np.ndarray:
    """Joint log-likelihood of per-level (m, shots, hits) counts over a grid."""
    total = np.zeros_like(terms[0][0])
    for (_, shots, hits), (log_p, log_q) in zip(counts, terms):
        total += hits * log_p + (shots - hits) * log_q
    return total


@lru_cache(maxsize=16)
def _coarse_terms(eps: float, levels: tuple) -> tuple:
    """The coarse angle grid and each level's read-only log terms on it.

    Every fit at one target error scans the same grid over the same chain,
    so these are built once per (eps, chain).
    """
    step = 0.25 * eps
    coarse = np.arange(0.0, math.pi / 2 + step, step)
    coarse[-1] = math.pi / 2
    terms = tuple(_log_terms(m, coarse) for m in levels)
    for a in (coarse, *(t for pair in terms for t in pair)):
        a.flags.writeable = False
    return coarse, terms


@lru_cache(maxsize=32)
def _fine_terms(eps: float, levels: tuple, winner: int) -> tuple:
    """The fine angle grid around coarse point ``winner`` and each level's read-only log terms.

    Fits share few coarse winners (23 distinct ones over the 320 fits of
    the endtoend-large-d config), so these too are built once per (eps,
    chain, winner). One entry at a ten-level chain holds 21 arrays of 801
    floats, about 135 KB.
    """
    step = 0.25 * eps
    best = _coarse_terms(eps, levels)[0][winner]
    lo = max(0.0, best - 2 * step)
    hi = min(math.pi / 2, best + 2 * step)
    fine = np.linspace(lo, hi, 801)
    terms = tuple(_log_terms(m, fine) for m in levels)
    for a in (fine, *(t for pair in terms for t in pair)):
        a.flags.writeable = False
    return fine, terms


def _mle_theta(counts, eps: float) -> float:
    """Maximum-likelihood angle from per-level hit counts.

    Coarse scan at a fraction of the deepest level's oscillation period, then
    a fine scan around the winner.
    """
    levels = tuple(m for m, _, _ in counts)
    _, terms = _coarse_terms(eps, levels)
    fine, fine_terms = _fine_terms(eps, levels, int(np.argmax(_loglik(counts, terms))))
    return float(fine[int(np.argmax(_loglik(counts, fine_terms)))])


def amplitude_estimate(oracle: PreparationOracle, eps: float, rng) -> float:
    """Estimate the flagged amplitude to within eps, with failure rate <= 1%.

    Runs a halving chain of iterate depths, fits the angle by maximum
    likelihood over all levels jointly, and returns the median of
    ESTIMATE_REPEATS independent fits. Total queries are schedule-determined
    and bounded by ESTIMATE_BUDGET_CONSTANT / eps; see estimate_budget for the
    exact count. Consumes both forward and inverse queries. A zero-amplitude
    oracle can never produce a flag hit, so the fit returns exactly 0 there.
    """
    chain = _estimation_chain(eps)
    fits = []
    for _ in range(ESTIMATE_REPEATS):
        counts = [(m, ESTIMATE_SHOTS, oracle.sample_flag(ESTIMATE_SHOTS, rng, iterations=m))
                  for m in chain]
        fits.append(math.sin(_mle_theta(counts, float(eps))))
    return float(np.median(fits))


def estimate_budget(eps: float) -> int:
    """Exact total query count of amplitude_estimate at this target error."""
    chain = _estimation_chain(eps)
    return ESTIMATE_REPEATS * ESTIMATE_SHOTS * sum(1 + 2 * m for m in chain)


def amplitude_amplify(oracle: PreparationOracle, rng) -> bool:
    """Measure the flag of an unknown-amplitude preparation until it is hit.

    Classic exponential schedule: each round draws an iterate depth uniformly
    below a bound that grows by AMPLIFY_GROWTH, measures the flag, and stops
    on a hit, when the register holds the flagged component. Expected queries
    were measured, not proven, to be O(1/a) at this growth (see
    AMPLIFY_GROWTH). A round that would push the run past AMPLIFY_DEFAULT_CAP
    oracle calls is not started; the run then ends as a documented failure,
    which is the guaranteed outcome at zero amplitude. Returns whether the
    flag was hit; the oracle's counters hold what the run spent.
    """
    start = oracle.forward_queries + oracle.inverse_queries
    scale = 1.0
    while True:
        bound = max(1, math.ceil(scale))
        m = int(rng.integers(0, bound))
        used = oracle.forward_queries + oracle.inverse_queries - start
        if used + 1 + 2 * m > AMPLIFY_DEFAULT_CAP:
            return False
        if rng.random() < oracle.flag_probability(m):
            return True
        scale *= AMPLIFY_GROWTH


@dataclass(frozen=True)
class DistinguishOutcome:
    """Decision plus the evidence and cost that produced it."""

    label: int
    estimate: float | None
    forward_queries: int
    inverse_queries: int


def distinguish_by_estimation(trace: complex, eps: float, rng,
                              method: str = "estimation") -> DistinguishOutcome:
    """Label an oracle 0 (unbiased) or 1 (biased) from its normalized trace ``trace``.

    The trace probe (Fourier in, one forward query, Fourier out, flag flip
    on index 0) has flagged component ntr(U)|0,1>, so it is the exact
    two-level rotation ``PairedPreparation(trace, 0)`` and reads nothing of
    the oracle but its trace.
    Estimates |ntr| to within 0.05*eps, then decides 0 exactly when the
    estimate falls below 0.15*eps. The method names are the trials CSV's:
    "estimation" is the iterate-based estimator (forward and inverse queries,
    Theta(1/eps) total); "naive" is ceil(50/eps^2) forward-only preparations.
    """
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"bias parameter must lie in (0, 1), got {eps}")
    probe = PairedPreparation(trace, 0.0)
    if method == "estimation":
        a_hat = amplitude_estimate(probe, 0.05 * eps, rng)
    elif method == "naive":
        a_hat = naive_estimate(probe, math.ceil(50.0 / eps**2), rng)
    else:
        raise ParameterError(f"unknown estimation method {method!r}")
    label = 0 if a_hat < 0.15 * eps else 1
    return DistinguishOutcome(label, a_hat, probe.forward_queries, probe.inverse_queries)


def distinguish_by_amplification(alpha: complex, beta: complex, rng) -> DistinguishOutcome:
    """Label 1 or 2 according to which trace functional the oracle excites.

    ``alpha`` and ``beta`` are the flagged amplitudes of the pair probe: the
    ramp unitary in, one query, its adjoint out, and a flag flip on query
    indices 0 and 1, on a register of dimension d >= 2. Its flagged component
    is alpha|0,1> + beta|1,1>, with alpha the normalized trace of the oracle U
    and beta that of the ramp-conjugated oracle (U composed with -1 ramp
    turns), so the probe is the exact two-level rotation
    ``PairedPreparation(alpha, beta)`` and reads nothing of U but these two
    traces. For a plain draw they are its plain trace and its trace at -1
    turns; for a ramped draw (+1 turn), its trace at +1 turn and its plain
    trace.

    Amplifies the probe's flagged state, then measures its first register:
    outcome 0 labels the plain oracle, anything else the ramped one. If
    amplification exhausts its cap (vanishing flagged amplitude), the label
    is a fair coin. The schedule needs no bias parameter, and the
    measurement probability comes from the two flagged amplitudes, so no
    state vector is built.
    """
    probe = PairedPreparation(alpha, beta)
    if not amplitude_amplify(probe, rng):
        label = int(rng.integers(1, 3))
    else:
        label = 1 if rng.random() < probe.first_register_zero() else 2
    return DistinguishOutcome(label, None, probe.forward_queries, probe.inverse_queries)
