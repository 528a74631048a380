"""Acceptance gate: one test per release criterion, each printing a verdict.

Each criterion records a ``criterion N: PASS/FAIL`` line that the terminal
summary hook in conftest prints after the run, alongside the measured values
and the thresholds they face. Criteria assert the stated tolerances directly;
nothing here is loosened to make a run green.
"""

import time

import numpy as np
import pytest

from conftest import record_verdict

from querylab import experiments
from querylab.config import ExperimentConfig, default_config
from querylab.ensembles import gap_dimension
from querylab.families import random_interleaved_circuit
from querylab.query_sim import brute_force_average, run_purified
from reference import density

pytestmark = pytest.mark.acceptance


def _verdict(number, ok, detail):
    record_verdict(number, ok, detail)
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_lemma_suite():
    t0 = time.time()
    rows = experiments.lemma_rows((8, 64, 257, 1024), (0.0, 0.1, 0.25, 0.45), 0)
    elapsed = time.time() - t0
    failed = [r for r in rows if not r.passed]
    windows = [r for r in rows if r.kind == "mean_window"]
    limit = next(r for r in rows if r.kind == "mean_limit")
    detail = (f"{len(rows)} rows, {len(failed)} failed; "
              f"mean windows at q>=100: {[round(r.measured, 4) for r in windows]}; "
              f"large-q limit gap {limit.measured:.2e} (tol 1e-5); {elapsed:.1f}s")
    _verdict(1, not failed and elapsed < 120, detail)


def test_criterion_2_average_matches_brute_force():
    t0 = time.time()
    worst = 0.0
    runs = 0
    rng = np.random.default_rng(20)
    for q, d, n in ((2, 2, 2), (3, 2, 3), (4, 2, 2), (2, 3, 2)):
        for pattern_kind in ("forward", "mixed"):
            for _ in range(50):
                if pattern_kind == "forward":
                    pattern = "+" * n
                else:
                    marks = rng.integers(0, 2, size=n)
                    pattern = "".join("+-"[m] for m in marks)
                    if "-" not in pattern:
                        pattern = pattern[:-1] + "-"
                circuit = random_interleaved_circuit(d, 2, pattern, rng)
                for eps in (0.0, 0.3):
                    fast = density(run_purified([circuit]), eps, q)
                    slow = brute_force_average(circuit, eps, q)
                    worst = max(worst, float(np.abs(fast.entries - slow.entries).max()))
                    runs += 1
    elapsed = time.time() - t0
    detail = f"{runs} comparisons, worst entry gap {worst:.2e} (tol 1e-10); {elapsed:.1f}s"
    _verdict(2, worst <= 1e-10 and elapsed < 120, detail)


def test_criterion_3_forward_ceiling_and_slope():
    t0 = time.time()
    cfg = ExperimentConfig("separation", eps=(0.05, 0.1, 0.2), d=(2, 3, 4), q=(8,),
                           n=(1, 2, 3, 4, 5, 6, 7, 8), trials=9, seed=0, cap=10**6)
    rows = experiments.separation_rows(cfg)
    fwd = [r for r in rows if r.kind == "forward_adv"]
    circuits = len(cfg.d) * len(cfg.n) * cfg.trials
    violations = [r for r in fwd if not r.passed]
    slope = next(r for r in rows if r.kind == "forward_slope").measured
    elapsed = time.time() - t0
    ok = not violations and circuits >= 200 and abs(slope - 2.0) <= 0.15 and elapsed < 300
    detail = (f"{circuits} circuits, {len(violations)} ceiling violations; "
              f"max-advantage slope {slope:.3f} (target 2.0 +/- 0.15); {elapsed:.1f}s")
    _verdict(3, ok, detail)


def test_criterion_4_inverse_escape(golden_check):
    t0 = time.time()
    cfg = default_config("separation")
    rows = experiments.separation_rows(cfg)
    inverse = {r.params[-1]: r.measured for r in rows if r.kind == "inverse_adv"}
    ratio = next(r.measured for r in rows
                 if r.kind == "inverse_ratio" and r.params[-1] == 0.1)
    slope = next(r.measured for r in rows if r.kind == "inverse_slope")
    golden_check("inverse_escape_profile",
                 {"advantages": inverse, "ratio_at_0.1": ratio, "slope": slope},
                 atol=1e-12)
    elapsed = time.time() - t0
    ok = ratio >= 3.0 and slope <= 1.3 and elapsed < 180
    detail = (f"advantage ratio at eps=0.1: {ratio:.4f} (needs >= 3.0); "
              f"eps-slope {slope:.3f} (needs <= 1.3); "
              f"golden profile sealed and matched; {elapsed:.1f}s")
    _verdict(4, ok, detail)


def test_criterion_5_purification_pair_slopes():
    t0 = time.time()
    rows = experiments.purification_scaling_rows()
    slopes = {r.kind: r.measured for r in rows if r.kind.endswith("_slope")}
    ok = (all(r.passed for r in rows)
          and abs(slopes["pair_shared_slope"] - 2.0) <= 0.05
          and abs(slopes["pair_swapped_slope"] - 1.0) <= 0.05)
    detail = (f"shared-defect slope {slopes['pair_shared_slope']:.4f} (2.00 +/- 0.05), "
              f"swapped slope {slopes['pair_swapped_slope']:.4f} (1.00 +/- 0.05); "
              f"{time.time() - t0:.1f}s")
    _verdict(5, ok, detail)


def test_criterion_6_endtoend_distinguishers():
    t0 = time.time()
    cfg = default_config("endtoend")
    assert cfg.eps == (0.05,) and cfg.d == (gap_dimension(0.05),) and cfg.trials == 400
    rows, _ = experiments.endtoend_rows(cfg)
    by_kind = {r.kind: r for r in rows}
    rates = {m: by_kind[f"{m}_success"].measured
             for m in ("estimation", "amplification", "naive")}
    bounded_fail = [r for r in rows if r.bound is not None and not r.passed]
    elapsed = time.time() - t0
    ok = not bounded_fail and elapsed < 600
    detail = (f"success rates {rates} (each needs >= 0.85); "
              f"estimation mean inverse {by_kind['estimation_mean_inverse'].measured:.0f} (> 0), "
              f"naive inverse {by_kind['naive_mean_inverse'].measured:.0f} (= 0); "
              f"query slopes {by_kind['estimation_query_slope'].measured:.3f} (1.0 +/- 0.1) / "
              f"{by_kind['naive_query_slope'].measured:.3f} (2.0 +/- 0.1); {elapsed:.1f}s")
    _verdict(6, ok, detail)


def test_criterion_7_concentration_tables():
    t0 = time.time()
    cfg = default_config("concentration")
    assert cfg.d == (gap_dimension(0.1),) and cfg.trials == 1000
    rows = experiments.concentration_rows(cfg)
    failed = [r.kind for r in rows if not r.passed]
    tails = {f"{r.kind}@t={r.params[3]}": r.measured for r in rows
             if r.kind.startswith("tail_")}
    elapsed = time.time() - t0
    detail = (f"{len(rows)} rows at d={cfg.d[0]}, failures {failed or 'none'}; "
              f"tail fractions {tails}; {elapsed:.1f}s")
    _verdict(7, not failed and elapsed < 60, detail)
