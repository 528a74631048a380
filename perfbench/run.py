"""querylab benchmark: timed, output-checked runs of three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record    # rewrite the reference

A closed loop with one client: one ``python -m querylab`` child at a time,
each on a generated config with ``--jobs 2``. With ``--trace 0`` the children
run untraced, as often as ``--seconds`` allows, and the end-to-end metrics
are medians over them. With ``--trace 1`` one untraced run, one serial run
(``--jobs 1``, one BLAS thread) and one traced run give the per-layer
metrics. Every run's CSV is checked (see ``outputs.py``). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import outputs
import tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE_DIR = BENCH / "reference"
REFERENCE_SEED = 0
JOBS = 2
SETUP_PROBES = 5
# Children still running this long after the start are killed, so that one
# invocation ends within 180 s.
DEADLINE_S = 170

# Thread and output settings the children must not inherit.
STRIPPED_ENV = ("QUERYLAB_JOBS", "QUERYLAB_OUT", "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONPATH")


@dataclass
class Run:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    csv: str | None
    trials: str | None
    log: str

    def describe(self) -> str:
        return (f"{self.label}: wall {self.wall_s:.3f} s, cpu {self.cpu_s:.3f} s, "
                f"peak rss {self.rss_mb:.1f} MB, exit {self.code}")


def child_env(tmp: Path, blas_threads: int | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def _read(path: Path) -> str | None:
    return path.read_text(encoding="utf-8") if path.exists() else None


@dataclass
class Bench:
    """One benchmark invocation: the workload, its seed and config, where children write."""

    w: Workload
    seed: int
    cfg: Path
    tmp: Path
    deadline: float  # perf_counter() time by which every child must have ended

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def run_querylab(self, label, jobs, env, spans=None) -> Run:
        """One querylab child; wall, CPU and peak RSS are its own."""
        out = self.tmp / f"{label}.csv"
        trials = self.tmp / f"{label}_trials.csv"
        for stale in (out, trials):
            stale.unlink(missing_ok=True)
        args = [self.w.command, "--config", str(self.cfg), "--seed", str(self.seed),
                "--jobs", str(jobs), "--out", str(out)]
        if spans is None:
            argv = [sys.executable, "-m", "querylab"] + args
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans)] + args
        log = self.tmp / f"{label}.log"
        with open(log, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, env=env, cwd=self.tmp, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(self.timeout(), child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        return Run(label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   child.returncode, _read(out), _read(trials), log.read_text(encoding="utf-8"))

    def probe(self, args, env) -> tuple:
        """Run probe.py; returns (wall seconds, parsed JSON output)."""
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(BENCH / "probe.py")] + args, env=env,
                              cwd=self.tmp, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=self.timeout(), check=True)
        return time.perf_counter() - start, json.loads(done.stdout)

    def machine_facts(self, env) -> dict:
        """Machine and thread facts; the probe also fills the bytecode caches."""
        _, found = self.probe(["facts"], env)
        if Path(found.pop("querylab_file")).resolve().parent != ROOT / "src" / "querylab":
            raise SystemExit("querylab was not imported from this checkout's src/")
        model = platform.machine()
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), model)
        except OSError:
            pass
        return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                "cpu_model": model, **found}

    def setup_times(self, env) -> list:
        """(wall, import_s, load_config_s) of each set-up probe."""
        times = []
        for _ in range(SETUP_PROBES):
            wall, parts = self.probe(["setup", str(self.cfg)], env)
            times.append((wall, parts["import_s"], parts["load_config_s"]))
        return times

    def check(self, run: Run, like: Run | None = None, exact: bool = True) -> list:
        """Problems with one run's output; an empty list means it passed.

        ``like`` is an earlier run of this invocation: with ``exact`` its
        bytes must be repeated, otherwise its values within the comparator's
        tolerance.
        """
        if run.csv is None or (self.w.command == "endtoend" and run.trials is None):
            return [f"{run.label}: no CSV (exit {run.code}): {run.log.strip()[-300:]}"]
        expected_code = 1 if any(r["passed"] == "0" for r in outputs.parse(run.csv)) else 0
        problems = []
        if run.code != expected_code:
            problems.append(f"exit code {run.code}, expected {expected_code}")
        if like is not None and exact and (run.csv, run.trials) != (like.csv, like.trials):
            problems.append(f"bytes differ from {like.label}")
        if like is not None and not exact:
            problems += outputs.compare(like.csv, run.csv)[0]
            if run.trials is not None:
                problems += outputs.compare_trials(like.trials, run.trials)[0]
        ref_csv, ref_trials = reference(self.w)
        if self.seed == REFERENCE_SEED:
            problems += outputs.compare(ref_csv, run.csv)[0]
            if ref_trials is not None:
                problems += outputs.compare_trials(ref_trials, run.trials)[0]
        else:
            problems += outputs.shape_problems(ref_csv, run.csv)
            if ref_trials is not None:
                problems += outputs.shape_problems(ref_trials, run.trials, ("method", "trial"))
        return [f"{run.label}: {p}" for p in problems]


def reference(w) -> tuple:
    csv_text = (REFERENCE_DIR / f"{w.name}.csv").read_text(encoding="utf-8")
    trials = REFERENCE_DIR / f"{w.name}_trials.csv"
    return csv_text, (trials.read_text(encoding="utf-8") if trials.exists() else None)


def report_reference(w, run: Run) -> None:
    """Say whether the bytes equal the reference, and name changed rows."""
    ref_csv, ref_trials = reference(w)
    if (run.csv, run.trials) == (ref_csv, ref_trials):
        print(f"reference (seed {REFERENCE_SEED}): bytes equal")
        return
    changed = outputs.compare(ref_csv, run.csv)[1]
    if ref_trials is not None and run.trials is not None:
        changed += outputs.compare_trials(ref_trials, run.trials)[1]
    print(f"reference (seed {REFERENCE_SEED}): bytes differ; {len(changed)} rows changed "
          f"within tolerance" + (": " + "; ".join(changed) if changed else ""))


# ----------------------------------------------------------------- metrics


def end_to_end(b: Bench, seconds: float, facts: dict) -> tuple:
    start = time.perf_counter()
    env = child_env(b.tmp)
    setup = b.setup_times(env)
    runs, problems, failed = [], [], 0
    while True:
        run = b.run_querylab(f"run{len(runs)}", JOBS, env)
        found = b.check(run, runs[0] if runs else None)
        problems += found
        failed += bool(found)
        runs.append(run)
        wall = statistics.median(r.wall_s for r in runs)
        if time.perf_counter() - start + wall > seconds:
            break
    if runs[0].csv is not None and b.seed == REFERENCE_SEED:
        report_reference(b.w, runs[0])
    for r in runs:
        print(r.describe())
    units = b.w.units(outputs.parse(runs[0].csv or ""), outputs.parse(runs[0].trials or ""))
    print(f"units: {units} {b.w.unit} per run, {len(runs)} runs, "
          f"{len(setup)} set-up probes, blas threads {facts['blas_threads']}")
    metrics = {
        "wall_s": (wall, "s"),
        "units_per_s": (units / wall, "1/s"),
        "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
        "setup_s": (statistics.median(t[0] for t in setup), "s"),
        "success_rate": ((len(runs) - failed) / len(runs), "frac"),
    }
    return metrics, len(runs), failed, problems


def per_layer(b: Bench, facts: dict) -> tuple:
    env = child_env(b.tmp)
    serial_env = child_env(b.tmp, blas_threads=1)
    facts["blas_threads_serial"] = b.machine_facts(serial_env)["blas_threads"]
    setup = b.setup_times(env)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{b.w.name}-seed{b.seed}.spans.jsonl"
    spans_path.unlink(missing_ok=True)

    parallel = b.run_querylab("parallel", JOBS, env)
    serial = b.run_querylab("serial", 1, serial_env)
    traced = b.run_querylab("traced", JOBS, env, spans=spans_path)
    checks = [b.check(parallel), b.check(serial, parallel, exact=False),
              b.check(traced, parallel)]
    problems = [p for found in checks for p in found]
    if parallel.csv is not None and b.seed == REFERENCE_SEED:
        report_reference(b.w, parallel)
    for r in (parallel, serial, traced):
        print(r.describe())

    spans = tracer.load(spans_path) if spans_path.exists() else []
    metrics = tracer.span_metrics(spans)
    metrics["experiments.serial_wall_s"] = (serial.wall_s, "s")
    metrics["experiments.parallel_speedup"] = (serial.wall_s / parallel.wall_s, "x")
    metrics["setup.import_s"] = (statistics.median(t[1] for t in setup), "s")
    metrics["trace.overhead_s"] = (traced.wall_s - parallel.wall_s, "s")
    trial_rows = outputs.parse(parallel.trials or "")
    metrics["amplitude.forward_queries"] = (sum(int(r["forward"]) for r in trial_rows), "count")
    metrics["amplitude.inverse_queries"] = (sum(int(r["inverse"]) for r in trial_rows), "count")
    report_design(b.w, spans, spans_path)
    return metrics, len(checks), sum(bool(found) for found in checks), problems


def report_design(w, spans, spans_path) -> None:
    """Print whether the trace confirms the workload's design; not part of `correct`."""
    calls = tracer.layer_calls(spans)
    shares = tracer.layer_shares(spans)
    busy = [f"{layer} ({calls[layer]} calls)" for layer in w.idle if calls.get(layer, 0)]
    print(f"design: idle layers {', '.join(w.idle)}: "
          + (f"NOT idle: {', '.join(busy)}" if busy else "0 calls"))
    print("design: share of span self time by layer: " + ", ".join(
        f"{layer} {shares.get(layer, 0.0):.3f}" for layer in tracer.LAYERS))
    share = sum(shares.get(layer, 0.0) for layer in w.focus)
    verdict = "holds" if share >= w.focus_share else "does NOT hold"
    print(f"design: {' + '.join(w.focus)} share {share:.3f} "
          f"(predicted >= {w.focus_share}): {verdict}")
    top = sorted(tracer.self_by_name(spans).items(), key=lambda kv: -kv[1])[:8]
    print("design: largest self times: " + ", ".join(f"{n} {t:.3f} s" for n, t in top))
    slow = tracer.slowest_cell(spans)
    if slow is not None:
        print(f"slowest cell: #{slow[0]}, {slow[1]:.1f} ms, {slow[2]} histogram keys, "
              f"{slow[3]} oracle entries; spans in {spans_path.relative_to(ROOT)}")


# -------------------------------------------------------------------- main


def record(b: Bench) -> int:
    """Rewrite the committed reference from one run at the reference seed."""
    run = b.run_querylab("record", JOBS, child_env(b.tmp))
    if run.csv is None or run.code not in (0, 1):
        print(f"record failed (exit {run.code}): {run.log}", file=sys.stderr)
        return 1
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{b.w.name}.csv").write_text(run.csv, encoding="utf-8")
    if run.trials is not None:
        (REFERENCE_DIR / f"{b.w.name}_trials.csv").write_text(run.trials, encoding="utf-8")
    print(f"recorded {b.w.name} at seed {b.seed}: exit {run.code}, {run.wall_s:.2f} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite the reference CSVs from a run at seed {REFERENCE_SEED}")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "querylab" / "__init__.py").is_file():
        print(f"error: no querylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        seed = REFERENCE_SEED if args.record else args.seed
        b = Bench(w, seed, tmp / "workload.cfg", tmp, time.perf_counter() + DEADLINE_S)
        b.cfg.write_text(w.config_text(), encoding="utf-8")
        if args.record:
            return record(b)
        facts = b.machine_facts(child_env(tmp))
        facts.update(workload=w.name, seed=seed, jobs=JOBS, trace=args.trace,
                     seconds=args.seconds)
        if args.trace:
            metrics, attempted, failed, problems = per_layer(b, facts)
        else:
            metrics, attempted, failed, problems = end_to_end(b, args.seconds, facts)
        print("facts: " + json.dumps(facts))
        for p in problems:
            print(f"CHECK FAILED: {p}")
        for name, (value, unit) in metrics.items():
            print(f"{name}: {value} {unit}")
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
