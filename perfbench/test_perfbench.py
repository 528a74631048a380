"""Self-tests of the benchmark: span arithmetic, the output comparator, the wrappers.

Run from the root of a checkout with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import outputs  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def span(sid, name, start, end, parent=None, thread="MainThread", cell=None, **attrs):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "thread": thread, "cell": cell, "attrs": attrs}


# A pool span on the main thread with two cells on two worker threads; the
# cells nest two levels deep. Children on another thread than their parent
# do not reduce the parent's self time.
TWO_THREADS = [
    span(1, "experiments._map_cells", 0.0, 10.0, workers=2),
    span(2, "experiments.cell", 1.0, 9.0, parent=1, thread="w0", cell=1),
    span(3, "phases.sample_exponents", 2.0, 5.0, parent=2, thread="w0", cell=1),
    span(4, "ensembles.normalized_trace.plain", 5.0, 6.0, parent=2, thread="w0", cell=1,
         entries=100),
    span(5, "experiments.cell", 1.5, 4.0, parent=1, thread="w1", cell=2),
    span(6, "ensembles.draw", 2.0, 3.5, parent=5, thread="w1", cell=2, entries=100),
    span(7, "phases.sample_exponents", 2.5, 3.0, parent=6, thread="w1", cell=2),
]


def test_self_times_nested_two_threads():
    own = tracer.self_times(TWO_THREADS)
    expected = {1: 10.0, 2: 4.0, 3: 3.0, 4: 1.0, 5: 1.0, 6: 1.0, 7: 0.5}
    assert own == pytest.approx(expected)


def test_layer_shares_leave_out_pool_waiting():
    shares = tracer.layer_shares(TWO_THREADS)
    # 10.5 s of work: phases 3.5, ensembles 2.0, cells 5.0
    assert shares["phases"] == pytest.approx(3.5 / 10.5)
    assert shares["ensembles"] == pytest.approx(2.0 / 10.5)
    assert shares["experiments"] == pytest.approx(5.0 / 10.5)


def test_span_metrics_on_synthetic_spans():
    m = tracer.span_metrics(TWO_THREADS)
    assert m["experiments.worker_busy_frac"][0] == pytest.approx((8.0 + 2.5) / (10.0 * 2))
    assert m["experiments.cell_count"][0] == 2
    assert m["experiments.cell_ms.max"][0] == pytest.approx(8000.0)
    assert m["trace.span_self_s"][0] == pytest.approx(10.5)
    assert m["phases.sample_exponents.self_frac"][0] == pytest.approx(3.5 / 10.5)
    assert m["phases.sample_exponents.calls"][0] == 2
    assert m["ensembles.entries_per_s"][0] == pytest.approx(200 / 5.5)
    assert tracer.slowest_cell(TWO_THREADS) == (1, pytest.approx(8000.0), 0, 100)


def _csv(rows) -> str:
    buf = io.StringIO()
    buf.write("# querylab 0.1.0\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("kind", "params", "measured", "bound", "passed", "seed"))
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


REF_ROWS = [
    ("singular_low", "(8, 0.1)", repr(0.9486832980505138), repr(0.9486832979505138), 1, 17),
    ("singular_match", "(8, 0.1)", repr(5.8e-14), repr(1e-10), 1, 17),
    ("forward_slope", "(16, (0.02, 0.2))", repr(1.9999123), "", 1, 99),
]


def _edit(row_index, field, value):
    rows = [list(r) for r in REF_ROWS]
    rows[row_index][field] = value
    return _csv(rows)


@pytest.mark.parametrize("got", [
    _edit(0, 4, 0),                                   # pass flag flipped
    _edit(0, 5, 18),                                  # seed changed
    _edit(0, 2, repr(0.9486832980505138 * (1 + 1e-6))),  # 1e-6 relative change
    _edit(2, 1, "(16, (0.02, 0.1))"),                 # params changed
    _csv(REF_ROWS[:2]),                               # row missing
])
def test_comparator_rejects(got):
    problems, _ = outputs.compare(_csv(REF_ROWS), got)
    assert problems


def test_comparator_accepts_rounding_and_names_the_row():
    got = _edit(0, 2, repr(0.9486832980505138 * (1 + 1e-13)))
    problems, changed = outputs.compare(_csv(REF_ROWS), got)
    assert problems == []
    assert changed == ["singular_low (8, 0.1)"]
    assert outputs.compare(_csv(REF_ROWS), _csv(REF_ROWS)) == ([], [])


def test_trial_comparator_is_exact_on_labels_and_queries():
    head = "method,trial,truth,label,estimate,forward,inverse,seed\n"
    ref = head + "estimation,0,1,1,0.0512,2304,2240,5\n"
    assert outputs.compare_trials(ref, ref) == ([], [])
    assert outputs.compare_trials(ref, ref.replace(",1,1,", ",1,0,"))[0]
    assert outputs.compare_trials(ref, ref.replace("2240", "2241"))[0]
    assert outputs.compare_trials(ref, ref.replace("0.0512", "0.0513"))[0]


TINY = {
    "separation": "[experiment]\nkind = separation\n[grid]\nd = 3\nn = 1, 2\ntrials = 2\n",
    "endtoend": "[experiment]\nkind = endtoend\n[grid]\nd = 5000\ntrials = 3\n",
    "verify-lemmas": "[experiment]\nkind = verify-lemmas\n[grid]\nq = 8, 64\neps = 0.0, 0.25\n",
}


@pytest.mark.parametrize("command", sorted(TINY))
def test_wrappers_leave_results_and_csv_bytes_unchanged(command, tmp_path):
    import querylab.biased_fourier as bf
    import querylab.cli as cli

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY[command])

    def run(tag):
        out = tmp_path / f"{tag}.csv"
        code = cli.main([command, "--config", str(cfg), "--seed", "7", "--jobs", "2",
                         "--out", str(out)])
        trials = tmp_path / f"{tag}_trials.csv"
        return code, out.read_bytes(), trials.read_bytes() if trials.exists() else None

    plain = run("plain")
    summary = bf.frame_summary(8, 0.25)
    t = tracer.Tracer()
    saved = tracer.install(t)
    try:
        assert hasattr(cli.main, "__wrapped__")
        assert bf.frame_summary(8, 0.25) == summary
        traced = run("traced")
    finally:
        tracer.uninstall(saved)
    assert traced == plain
    assert not hasattr(cli.main, "__wrapped__")
    names = {s["name"] for s in t.spans}
    assert {"cli.main", "config.load_config", "experiments._map_cells",
            "experiments.cell"} <= names
    cells = [s for s in t.spans if s["name"] == "experiments.cell"]
    assert cells and all(s["cell"] is not None for s in cells)


def test_idle_layers_record_no_calls_on_tiny_runs(tmp_path):
    import querylab.cli as cli

    for w in WORKLOADS.values():
        cfg = tmp_path / f"{w.command}.cfg"
        cfg.write_text(TINY[w.command])
        t = tracer.Tracer()
        saved = tracer.install(t)
        try:
            cli.main([w.command, "--config", str(cfg), "--jobs", "2",
                      "--out", str(tmp_path / f"{w.command}.csv")])
        finally:
            tracer.uninstall(saved)
        calls = tracer.layer_calls(t.spans)
        assert all(calls.get(layer, 0) == 0 for layer in w.idle), (w.name, dict(calls))


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_EXTRAS = {"experiments.serial_wall_s", "experiments.parallel_speedup", "setup.import_s",
              "trace.overhead_s", "amplitude.forward_queries", "amplitude.inverse_queries"}


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert set(e2e) == {"wall_s", "units_per_s", "cpu_s", "peak_rss_mb", "setup_s",
                        "success_rate"}
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"] <= 0.25
    layer = {m["name"]: m for m in spec["per_layer"]}
    produced = tracer.span_metrics([])
    assert set(layer) == set(produced) | RUN_EXTRAS
    for name, (_, unit) in produced.items():
        assert layer[name]["unit"] == unit, name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
