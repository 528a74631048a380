"""Seeded parameter sweeps: lemma checks, separation curves, end-to-end runs.

Every sweep derives one child seed per grid cell from the master seed and the
cell's position, so rows are reproducible in isolation and the assembled
output is byte-identical for a fixed config. ``_map_cells`` runs every unit of
work (a grid cell or one labeled trial) of every command, ``circuit-run``'s
one circuit included, in order at one OpenBLAS thread, which keeps the bytes
independent of the BLAS thread count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .amplitude import (
    distinguish_by_amplification,
    distinguish_by_estimation,
    estimate_budget,
)
from .biased_fourier import frame_summary
from .blas import one_blas_thread
from .config import ExperimentConfig
from .ensembles import (
    concentration_check,
    draw_trace,
    draw_traces,
    trace_gap_check,
)
from .errors import ParameterError
from .families import (
    grover_iterate_circuit,
    matched_forward_circuit,
    random_interleaved_circuit,
)
from .linalg import DensityMatrix, trace_distance
from .phases import phase_mean
from .query_sim import average_density, run_purified

__all__ = [
    "ResultRow",
    "wilson_interval",
    "cell_seed",
    "lemma_rows",
    "purification_scaling_rows",
    "advantage_profile",
    "separation_rows",
    "endtoend_rows",
    "concentration_rows",
    "BUDGET_RATIO_BIASES",
]

# Confidence multiplier for Wilson intervals: two-sided 99%.
_WILSON_Z = 2.5758293035489


@dataclass(frozen=True)
class ResultRow:
    """One measurement: what was measured, the bound it faces, and the seed."""

    kind: str
    params: tuple
    measured: float
    bound: float | None
    passed: bool
    seed: int


def _row(kind: str, params: tuple, measured, seed: int, bound=None, check=None) -> ResultRow:
    """A ResultRow whose pass flag is ``check(measured, bound)``.

    A row without a check (a reported value, not a tested one) passes.
    """
    measured = float(measured)
    passed = True if check is None else bool(check(measured, bound))
    return ResultRow(kind, params, measured, bound, passed, seed)


def _within(tol: float):
    """Check that passes when the measured value is within ``tol`` of the bound."""
    return lambda measured, target: abs(measured - target) <= tol


def wilson_interval(hits: int, trials: int) -> tuple:
    """Two-sided 99% Wilson score interval for a binomial rate."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    z = _WILSON_Z
    p = hits / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def cell_seed(master: int, index: int) -> int:
    """Derived 64-bit seed for one grid cell."""
    return int(np.random.SeedSequence((int(master), int(index))).generate_state(1, dtype=np.uint64)[0])


def _map_cells(fn, args_list, jobs: int):
    """Evaluate units in order at one OpenBLAS thread.

    ``jobs`` is not read; the benchmark's tracer wraps this three-argument form.
    """
    with one_blas_thread():
        return [fn(*args) for args in args_list]


# --------------------------------------------------------------- lemma suite


def lemma_rows(q_grid, eps_grid, master_seed: int = 0) -> list:
    """Spectral-window, basis-quality, overlap, and mean-window checks.

    One row per (check, q, eps). The two mean rows additionally pin the
    large-q limit of the full-bias phase mean against 2/pi.
    """
    grid = [(q, eps) for q in q_grid for eps in eps_grid]
    cells = [(cell_seed(master_seed, index), q, eps) for index, (q, eps) in enumerate(grid)]

    def run(seed, q, eps):
        summary = frame_summary(q, eps)
        lo = math.sqrt(1.0 - eps) - 1e-10
        hi = math.sqrt(1.0 + 2.0 * eps) + 1e-10
        sharp = 1.0 - 2.0 * eps**2 / (1.0 - eps) - 1e-9
        # same numeric slack as the sharp bound; exact at eps=0 up to rounding
        coarse = 1.0 - 4.0 * eps**2 - 1e-9
        cap = 2.0 * eps**2 / (1.0 - eps) + 1e-10
        return [
            _row("singular_low", (q, eps), summary["sigma_min"], seed, lo, operator.ge),
            _row("singular_high", (q, eps), summary["sigma_max"], seed, hi, operator.le),
            _row("singular_match", (q, eps), summary["singular_gap"], seed, 1e-10, operator.le),
            _row("alpha_min_sharp", (q, eps), summary["min_alpha_sq"], seed, sharp, operator.ge),
            _row("alpha_min_coarse", (q, eps), summary["min_alpha_sq"], seed, coarse, operator.ge),
            _row("overlap_max", (q, eps), summary["max_overlap"], seed, cap, operator.le),
        ]

    rows = [row for cell_rows in _map_cells(run, cells, 1) for row in cell_rows]
    for q in q_grid:
        if q >= 100:
            rows.append(_row("mean_window", (q,), phase_mean(1.0, q),
                             cell_seed(master_seed, 10_000 + q), 0.5,
                             lambda mean, low: low < mean < 1.0))
    limit_gap = abs(phase_mean(1.0, 10**6) - 2.0 / math.pi)
    rows.append(_row("mean_limit", (10**6,), limit_gap, cell_seed(master_seed, 10_001),
                     1e-5, operator.le))
    return rows


def _scaling_pair(eps: float, flavor: str) -> float:
    """Trace distance between the two purifications of one worked pair.

    Both states live on a two-level system tensored with a three-level
    reference. The "shared" flavor attaches the same reference defect to both
    branches (distance eps^2/2); the "swapped" flavor exchanges the defect
    coefficients on one branch (distance eps*sqrt(1-eps^2)).
    """
    alpha = math.sqrt(1.0 - eps**2)
    a = np.zeros(3, dtype=complex)
    b = np.zeros(3, dtype=complex)
    if flavor == "shared":
        a[0], a[2] = alpha, eps
        b[1], b[2] = alpha, eps
        ref = (np.eye(3)[0], np.eye(3)[1])
    elif flavor == "swapped":
        a[0], a[2] = alpha, eps
        b[0], b[2] = eps, alpha
        ref = (np.eye(3)[0], np.eye(3)[2])
    else:
        raise ParameterError(f"unknown pair flavor {flavor!r}")

    def reduced(first, second):
        # the two-level marginal of (|0>|first> + |1>|second>)/sqrt(2) is M M^dagger
        m = np.stack([first, second]) / math.sqrt(2)
        return DensityMatrix(m @ m.conj().T)

    return float(trace_distance(reduced(a, b), reduced(*ref)))


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs); ys are floored at 1e-300.

    The closed form in Python floats, every sum by ``math.fsum``: its bits
    follow neither the BLAS kernel nor numpy's SIMD level, as a LAPACK fit's do.
    """
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-300)) for y in ys]
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    dx = [x - mx for x in lx]
    return math.fsum(a * (y - my) for a, y in zip(dx, ly)) / math.fsum(a * a for a in dx)


def purification_scaling_rows(eps_grid=(1e-1, 1e-2, 1e-3), master_seed: int = 0) -> list:
    """Distance-vs-eps slopes of the two worked purification pairs.

    The shared-defect pair decays quadratically, the swapped pair linearly;
    the closed forms are asserted alongside the fitted slopes.
    """
    rows = []
    for flavor, closed, slope_target in (
        ("shared", lambda e: e**2 / 2, 2.0),
        ("swapped", lambda e: e * math.sqrt(1 - e**2), 1.0),
    ):
        dists = []
        for i, eps in enumerate(eps_grid):
            d = _scaling_pair(eps, flavor)
            dists.append(d)
            rows.append(_row(f"pair_{flavor}", (eps,), d, cell_seed(master_seed, i),
                             closed(eps), _within(1e-12)))
        slope = _loglog_slope(eps_grid, dists)
        rows.append(_row(f"pair_{flavor}_slope", tuple(eps_grid), slope,
                         cell_seed(master_seed, 99), slope_target, _within(0.05)))
    return rows


# ---------------------------------------------------------------- separation


def advantage_profile(circuits, eps_list, q: int, cap: int) -> list:
    """(histogram key count, advantage at each bias) of each circuit, in order.

    The advantage at bias eps is the trace distance between the bias-0 and
    bias-eps averaged outputs (exactly 0.0 at eps = 0); the implied success
    probability of the best single-shot distinguisher is
    ``1/2 + advantage/2``. The histogram decomposition does not depend on
    the bias, so each circuit is purified once (at most ``cap`` keys). The
    circuits are grouped by skeleton, and each group runs `_BATCH` circuits
    at a time through one key array (`run_purified`; members it splits off
    run again), averaged together at each distinct bias of 0 and ``eps_list``
    in one `average_density` call; results go back to their input positions.
    """
    biases = list(dict.fromkeys([0.0, *eps_list]))
    at = [biases.index(eps) for eps in eps_list]
    groups = {}
    for i, circuit in enumerate(circuits):
        groups.setdefault(circuit.skeleton, []).append(i)
    out = [None] * len(circuits)
    for indices in groups.values():
        while indices:
            batch = run_purified([circuits[i] for i in indices[:_BATCH]], key_cap=cap)
            done, indices = indices[:len(batch.vectors)], indices[len(batch.vectors):]
            for i, rhos in zip(done, average_density(batch, biases, q)):
                out[i] = (batch.key_count, [trace_distance(rhos[0], rhos[j]) for j in at])
    return out


# Circuits `advantage_profile` purifies and averages at a time, a memory bound:
# whole separation-deep cells as one batch raised the peak RSS from 46 to 54 MB.
_BATCH = 5

# Inverse-demonstration block: probe family dimension and query budget, per
# the documented experiment layout.
_INVERSE_D = 4
_INVERSE_N = 8


def separation_rows(cfg: ExperimentConfig) -> list:
    """Forward-ceiling cells plus the inverse-family block.

    Forward rows carry the quadratic ceiling 4*n*eps^2 as their bound. The
    inverse and matched-family rows report measured advantages and ratio
    without a bound: the ceiling only constrains forward-only circuits, and
    the comparison thresholds live in the acceptance suite.

    Each forward cell draws its circuits from its own seed and is one unit
    of work; the inverse block is the last.
    """
    q = cfg.q[0]
    eps_list = list(cfg.eps)
    positive = [e for e in eps_list if e > 0]
    forward_cells = [(d, n) for d in cfg.d for n in cfg.n]
    seeds = [cell_seed(cfg.seed, index) for index in range(len(forward_cells))]
    units = []
    for (d, n), seed in zip(forward_cells, seeds):
        rng = np.random.default_rng(seed)
        units.append(([random_interleaved_circuit(d, 2, "+" * n, rng)
                       for _ in range(cfg.trials)], eps_list, q, cfg.cap))
    # Inverse block: the iterate family against its matched forward family.
    n_inv = min(_INVERSE_N, q)
    matched_seed = cell_seed(cfg.seed, 40_000)
    if positive:
        rng = np.random.default_rng(matched_seed)
        inverse_block = [grover_iterate_circuit(_INVERSE_D, n_inv),
                         matched_forward_circuit(_INVERSE_D, n_inv)]
        inverse_block += [random_interleaved_circuit(_INVERSE_D, 2, "+" * n_inv, rng)
                          for _ in range(cfg.trials)]
        units.append((inverse_block, positive, q, cfg.cap))
    profiles = _map_cells(advantage_profile, units, 1)

    rows = []
    best_by_eps = {eps: 0.0 for eps in eps_list}
    for (d, n), seed, cell in zip(forward_cells, seeds, profiles):
        for j, eps in enumerate(eps_list):
            cell_max = max(adv[j] for _, adv in cell)
            best_by_eps[eps] = max(best_by_eps[eps], cell_max)
            rows.append(_row("forward_adv", (d, q, n, eps), cell_max, seed,
                             4.0 * n * eps**2 + 1e-9, operator.le))

    if len(positive) >= 2:
        slope = _loglog_slope(positive, [best_by_eps[e] for e in positive])
        rows.append(_row("forward_slope", (q, tuple(positive)), slope,
                         cell_seed(cfg.seed, 20_000)))

    if not positive:
        return rows

    inv_adv, *matched_profiles = (adv for _, adv in profiles[-1])
    for eps, adv in zip(positive, inv_adv):
        rows.append(_row("inverse_adv", (_INVERSE_D, q, n_inv, eps), adv,
                         cell_seed(cfg.seed, 30_000)))
    if len(positive) >= 2:
        slope = _loglog_slope(positive, inv_adv)
        rows.append(_row("inverse_slope", (_INVERSE_D, q, n_inv, tuple(positive)), slope,
                         cell_seed(cfg.seed, 30_001)))

    for j, eps in enumerate(positive):
        best = max(adv[j] for adv in matched_profiles)
        rows.append(_row("matched_adv", (_INVERSE_D, q, n_inv, eps), best, matched_seed,
                         4.0 * n_inv * eps**2 + 1e-9, operator.le))
        ratio = inv_adv[j] / best if best > 0 else math.inf
        rows.append(_row("inverse_ratio", (_INVERSE_D, q, n_inv, eps), ratio, matched_seed))
    return rows


# ----------------------------------------------------------------- endtoend

# Synthetic bias points for the budget-ratio rows: small enough that the
# naive 1/eps^2 sampling cost dwarfs the iterate-based budget tenfold. Pure
# counter arithmetic; nothing is simulated at these biases.
BUDGET_RATIO_BIASES = (5e-6, 1e-6)

_SLOPE_GRID = (0.1, 0.05, 0.02, 0.01)

# Bound and check of each distinguisher's mean inverse-query row: the
# estimation distinguisher must use inverse queries, the naive one none.
_MEAN_INVERSE_CHECKS = {
    "estimation": (0.0, operator.gt),
    "amplification": (None, None),
    "naive": (0.0, operator.eq),
}


def _distinguisher_trial(method: str, eps: float, d: int, q: int, seed: int):
    """One labeled instance -> (truth, outcome).

    A trial reads its drawn oracle only through normalized traces, so none
    stores the draw. Estimation and naive trials read the plain trace, from
    the exponent histogram alone. Amplification trials also read a trace
    twisted by a ramp, which depends on the order of the entries;
    ``draw_traces`` sums it block by block as the draw streams.
    """
    rng = np.random.default_rng(seed)
    if method in ("estimation", "naive"):
        truth = int(rng.integers(0, 2))
        trace = draw_trace(eps if truth else 0.0, d, q, rng)
        out = distinguish_by_estimation(trace, eps, rng, method=method)
    else:
        truth = int(rng.integers(1, 3))
        # the pair probe of a plain draw reads (plain, twisted at -1 turns);
        # that of a ramped draw (+1 turn) reads (twisted at +1 turn, plain)
        plain, twisted = draw_traces(eps, d, q, -1 if truth == 1 else 1, rng)
        alpha, beta = (plain, twisted) if truth == 1 else (twisted, plain)
        out = distinguish_by_amplification(alpha, beta, rng)
    return truth, out


def endtoend_rows(cfg: ExperimentConfig) -> tuple:
    """Success rates with Wilson intervals, query accounting, budget ratios.

    Returns (summary_rows, trial_records); each trial record is
    (method, trial, truth, label, estimate, forward, inverse, seed).
    """
    eps, d, q = cfg.eps[0], cfg.d[0], cfg.q[0]
    methods = ("estimation", "amplification", "naive")
    rows = []
    trial_records = []
    for mi, method in enumerate(methods):
        seeds = [cell_seed(cfg.seed, mi * cfg.trials + t) for t in range(cfg.trials)]
        outcomes = _map_cells(_distinguisher_trial,
                              [(method, eps, d, q, s) for s in seeds], 1)
        hits = 0
        fwd_total = 0
        inv_total = 0
        for t, ((truth, out), seed) in enumerate(zip(outcomes, seeds)):
            hits += out.label == truth
            fwd_total += out.forward_queries
            inv_total += out.inverse_queries
            est = "" if out.estimate is None else repr(out.estimate)
            trial_records.append((method, t, truth, out.label, est,
                                  out.forward_queries, out.inverse_queries, seed))
        rate = hits / cfg.trials
        lo, hi = wilson_interval(hits, cfg.trials)
        base_seed = cell_seed(cfg.seed, mi * cfg.trials)
        params = (eps, d, q, cfg.trials)
        inverse_bound, inverse_check = _MEAN_INVERSE_CHECKS[method]
        rows += [
            _row(f"{method}_success", params, rate, base_seed, 0.85, operator.ge),
            _row(f"{method}_wilson_low", params, lo, base_seed),
            _row(f"{method}_wilson_high", params, hi, base_seed),
            _row(f"{method}_mean_forward", params, fwd_total / cfg.trials, base_seed),
            _row(f"{method}_mean_inverse", params, inv_total / cfg.trials, base_seed,
                 inverse_bound, inverse_check),
        ]
        if method == "estimation":
            rows.append(_row("estimation_budget_match", (eps,),
                             (fwd_total + inv_total) / cfg.trials, base_seed,
                             float(estimate_budget(0.05 * eps)), operator.eq))

    # Schedule-determined query scaling: the estimation distinguisher's total
    # is Theta(1/eps) and the naive baseline's Theta(1/eps^2).
    ae_totals = [estimate_budget(0.05 * e) for e in _SLOPE_GRID]
    nv_totals = [math.ceil(50.0 / e**2) for e in _SLOPE_GRID]
    inverse_eps = [1.0 / e for e in _SLOPE_GRID]
    ae_slope = _loglog_slope(inverse_eps, ae_totals)
    nv_slope = _loglog_slope(inverse_eps, nv_totals)
    rows.append(_row("estimation_query_slope", _SLOPE_GRID, ae_slope,
                     cell_seed(cfg.seed, 50_000), 1.0, _within(0.1)))
    rows.append(_row("naive_query_slope", _SLOPE_GRID, nv_slope,
                     cell_seed(cfg.seed, 50_001), 2.0, _within(0.1)))

    rows.append(_row("budget_ratio", (eps,), (1.0 / eps**2) / estimate_budget(0.05 * eps),
                     cell_seed(cfg.seed, 50_002)))
    for i, eps_syn in enumerate(BUDGET_RATIO_BIASES):
        rows.append(_row("budget_ratio", (eps_syn,),
                         (1.0 / eps_syn**2) / estimate_budget(0.05 * eps_syn),
                         cell_seed(cfg.seed, 50_003 + i), 10.0, operator.ge))
    return rows, trial_records


# ------------------------------------------------------------- concentration

_TAIL_MULTIPLIERS = (0.3, 0.5)


def concentration_rows(cfg: ExperimentConfig) -> list:
    """Hoeffding-tail rows and the two calibrated trace-gap rows.

    d entries pair with eps entries positionally (a single d broadcasts).
    Tail rows pass when the measured fraction stays within Wilson slack of
    the 4*exp(-d*t^2/8) bound; gap rows pass at 0.99 minus Wilson margin.
    """
    pairs = list(zip(cfg.eps, cfg.d)) if len(cfg.d) > 1 else [(e, cfg.d[0]) for e in cfg.eps]
    q = cfg.q[0]
    trials = cfg.trials
    margin = _WILSON_Z * math.sqrt(0.99 * 0.01 / trials)

    # Each check is its own unit with its own derived seed, so rows are
    # reproducible individually.
    units = []
    for i, (eps, d) in enumerate(pairs):
        for j, (kind, bias) in enumerate((("uniform", 0.0), ("biased", eps))):
            for k, mult in enumerate(_TAIL_MULTIPLIERS):
                units.append(("tail", 10 * i + 2 * j + k, bias, kind, eps, d, mult * eps))
        units.append(("gap", 10 * i + 8, None, None, eps, d, None))
        # the (eps/2, eps) window needs the mean factor above 1/2, which
        # only holds for large phase order; same domain as the lemma row
        if q >= 100:
            units.append(("mean", 10 * i + 9, None, None, eps, d, None))

    def run(unit):
        what, salt, bias, kind, eps, d, t = unit
        seed = cell_seed(cfg.seed, salt)
        rng = np.random.default_rng(seed)
        if what == "tail":
            frac = concentration_check(bias, d, q, t, trials, rng)
            bound = 4.0 * math.exp(-d * t**2 / 8.0)
            slack = _WILSON_Z * math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
            return [_row(f"tail_{kind}", (q, eps, d, t), frac, seed, bound + slack, operator.le)]
        if what == "gap":
            low_frac, high_frac = trace_gap_check(eps, d, q, trials, rng)
            return [_row("gap_unbiased_small", (q, eps, d), low_frac, seed, 0.99 - margin,
                         operator.ge),
                    _row("gap_biased_large", (q, eps, d), high_frac, seed, 0.99 - margin,
                         operator.ge)]
        samples = [abs(draw_trace(eps, d, q, rng)) for _ in range(min(trials, 200))]
        return [_row("gap_mean_window", (q, eps, d), np.mean(samples), seed, eps,
                     lambda mean, top: top / 2 < mean < top)]

    return [row for unit_rows in _map_cells(run, [(u,) for u in units], 1)
            for row in unit_rows]
