"""Parse querylab CSVs and compare them with a committed reference.

Exact fields must match exactly. Floats must agree within a relative 1e-9,
with an absolute floor of 1e-12 for rows that measure a rounding residual
(``singular_match`` and ``overlap_max`` at eps 0 sit near 1e-13 and 1e-26,
and change by up to 1e-2 relative between BLAS thread counts).
"""

from __future__ import annotations

import csv
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12

ROW_EXACT = ("kind", "params", "seed", "passed")
ROW_CLOSE = ("measured", "bound")
TRIAL_EXACT = ("method", "trial", "truth", "label", "forward", "inverse", "seed")
TRIAL_CLOSE = ("estimate",)


def parse(text: str) -> list:
    """Data rows of a querylab CSV as dicts; '#' header lines are skipped."""
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(body))


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    if not a or not b:
        return False
    return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _label(row: dict) -> str:
    if "method" in row:
        return f"{row['method']} trial {row['trial']}"
    return f"{row['kind']} {row['params']}"


def compare(ref_text: str, got_text: str, exact=ROW_EXACT, close=ROW_CLOSE) -> tuple:
    """Check ``got_text`` against ``ref_text``.

    Returns ``(problems, changed)``: ``problems`` lists rows that break the
    rules above (the check fails if it is non-empty); ``changed`` names rows
    whose bytes differ from the reference but which are within tolerance.
    """
    ref, got = parse(ref_text), parse(got_text)
    if len(ref) != len(got):
        return [f"{len(got)} rows, reference has {len(ref)}"], []
    problems, changed = [], []
    for r, g in zip(ref, got):
        bad = [f for f in exact if r[f] != g[f]]
        bad += [f for f in close if not _close(r[f], g[f])]
        if bad:
            diffs = ", ".join(f"{f} {g[f]!r} vs {r[f]!r}" for f in bad)
            problems.append(f"{_label(r)}: {diffs}")
        elif r != g:
            changed.append(_label(r))
    return problems, changed


def compare_trials(ref_text: str, got_text: str) -> tuple:
    return compare(ref_text, got_text, TRIAL_EXACT, TRIAL_CLOSE)


def shape_problems(ref_text: str, got_text: str, keys=("kind", "params")) -> list:
    """At a seed without reference values: the rows' ``keys`` must match in order."""
    want = [tuple(r[k] for k in keys) for r in parse(ref_text)]
    have = [tuple(r[k] for k in keys) for r in parse(got_text)]
    if want == have:
        return []
    if len(want) != len(have):
        return [f"{len(have)} rows, reference has {len(want)}"]
    return [f"row {i}: {h} vs {w}" for i, (w, h) in enumerate(zip(want, have)) if w != h]
