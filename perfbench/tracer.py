"""In-process tracing of querylab from outside its source tree.

``install`` replaces every public function of the querylab modules, at every
name a caller looks it up by (``querylab.experiments.draw``,
``querylab.ensembles.sample_exponents``, ``querylab.biased_fourier.gram_schmidt``
...), with a wrapper that records a span and returns the original's result
unchanged. The cell pool ``experiments._map_cells`` is wrapped too, so each
cell gets a span and an id that the spans inside it carry. Spans stay in
memory and are written out as JSON lines when the traced run ends.

Run as a script, it executes one ``querylab`` command under tracing::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.jsonl endtoend --config F --out O
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict

MODULES = ("phases", "ensembles", "amplitude", "biased_fourier", "linalg",
           "query_sim", "families", "experiments", "config", "cli")

# Layers are the modules; config and cli count as one layer.
LAYERS = ("phases", "ensembles", "amplitude", "biased_fourier", "linalg",
          "query_sim", "families", "experiments", "config_cli")

CELL = "experiments.cell"
POOL = "experiments._map_cells"


def _pool_workers(args, kwargs, out):
    # mirrors experiments._map_cells: a pool only for jobs > 1 and > 1 cell
    _, args_list, jobs = args
    return {"workers": min(jobs, len(args_list)) if jobs > 1 and len(args_list) > 1 else 1}


# Counts recorded at the span boundary, so ratios are taken where the work is.
ATTRS = {
    "ensembles.draw": lambda args, kwargs, out: {"entries": out.dimension},
    "ensembles.normalized_trace": lambda args, kwargs, out: {"entries": args[0].dimension},
    "query_sim.run_purified": lambda args, kwargs, out: {"keys": out.key_count},
    "query_sim.average_density":
        lambda args, kwargs, out: {"weights": args[0].key_count ** 2 * args[0].d},
    POOL: _pool_workers,
}

# The plain and the ramped trace take different code paths.
NAMERS = {
    "ensembles.normalized_trace":
        lambda args: "ensembles.normalized_trace." + ("ramp" if args[0].ramp_turns else "plain"),
}


class Tracer:
    """Records spans: name, start, end, parent, thread and cell id."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._cells = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else getattr(self._local, "remote_parent", None)
        stack.append(span_id)
        out = None
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "thread": threading.current_thread().name,
                "cell": getattr(self._local, "cell", None),
                "attrs": attrs(args, kwargs, out) if attrs and out is not None else {},
            })

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)
        namer = NAMERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(namer(args) if namer else name, fn, args, kwargs, attrs)

        return traced

    def wrap_pool(self, map_cells):
        """Wrap the cell pool so each cell is a span with its own cell id."""

        def cell_for(fn, pool_span):
            def cell(*args):
                local = self._local
                saved = (getattr(local, "cell", None), getattr(local, "remote_parent", None))
                local.cell, local.remote_parent = next(self._cells), pool_span
                try:
                    return self.call(CELL, fn, args, {})
                finally:
                    local.cell, local.remote_parent = saved
            return cell

        @functools.wraps(map_cells)
        def traced_map_cells(fn, args_list, jobs):
            return map_cells(cell_for(fn, self._stack()[-1]), args_list, jobs)

        return self.wrap(POOL, traced_map_cells)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> list:
    """Wrap querylab's public functions at every binding; returns what to restore."""
    mods = {m: importlib.import_module(f"querylab.{m}") for m in MODULES}
    wrappers = {}
    for m, mod in mods.items():
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[fn] = tracer.wrap(f"{m}.{name}", fn)
    pool = mods["experiments"]._map_cells
    wrappers[pool] = tracer.wrap_pool(pool)
    saved = []
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    return saved


def uninstall(saved: list) -> None:
    for mod, attr, value in saved:
        setattr(mod, attr, value)


# ------------------------------------------------------------------ analysis


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children on the same thread cover.

    A child on another thread (a pool cell under the pool span) runs
    concurrently with its parent, so it does not reduce the parent's self time.
    """
    by_id = {s["id"]: s for s in spans}
    covered = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            covered[parent["id"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return "config_cli" if layer in ("config", "cli") else layer


def _is_pool_wait(span) -> bool:
    # with a real pool the calling thread only waits for the workers
    return span["name"] == POOL and span["attrs"].get("workers", 1) > 1


def layer_calls(spans) -> dict:
    calls = defaultdict(int)
    for s in spans:
        calls[layer_of(s["name"])] += 1
    return calls


def self_by_name(spans) -> dict:
    """Span name -> summed self time, pool waiting left out."""
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        if not _is_pool_wait(s):
            out[s["name"]] += own[s["id"]]
    return out


def layer_shares(spans) -> dict:
    """Layer -> share of all span self time, pool waiting excluded."""
    per_layer = defaultdict(float)
    for name, seconds in self_by_name(spans).items():
        per_layer[layer_of(name)] += seconds
    total = sum(per_layer.values())
    return {layer: (per_layer[layer] / total if total else 0.0) for layer in per_layer}


def _rank(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


# Functions that run on every workload: their self time in seconds.
SELF_S = ("cli.rows_to_csv", "config.load_config")
# Functions that run on some workloads only: their share of the span self
# time, so that a layer that never runs reads 0 as a fraction, not as a time.
SELF_FRAC = (
    "cli.trials_to_csv",
    "phases.sample_exponents", "ensembles.draw",
    "ensembles.normalized_trace.plain", "ensembles.normalized_trace.ramp",
    "amplitude.trace_probe", "amplitude.pair_probe", "amplitude.amplitude_estimate",
    "amplitude.naive_estimate", "amplitude.amplitude_amplify",
    "biased_fourier.frame_summary", "biased_fourier.singular_spectrum",
    "biased_fourier.build_biased_frame", "biased_fourier.frame_matrix", "linalg.gram_schmidt",
    "query_sim.run_purified", "query_sim.average_density", "linalg.trace_distance",
    "families.random_interleaved_circuit", "families.grover_iterate_circuit",
)
CALLS = (
    "phases.sample_exponents", "ensembles.normalized_trace.plain",
    "ensembles.normalized_trace.ramp", "biased_fourier.singular_spectrum",
    "biased_fourier.frame_matrix", "query_sim.run_purified", "query_sim.average_density",
    "experiments.advantage_profile",
)


def span_metrics(spans) -> dict:
    """Per-layer metrics that come from spans: name -> (value, unit)."""
    self_s = self_by_name(spans)
    total = sum(self_s.values())
    calls = defaultdict(int)
    counts = defaultdict(int)
    for s in spans:
        calls[s["name"]] += 1
        for key, value in s["attrs"].items():
            counts[key] += value

    out = {}
    cells = sorted(s["end"] - s["start"] for s in spans if s["name"] == CELL)
    pools = [s for s in spans if s["name"] == POOL]
    capacity = sum((s["end"] - s["start"]) * s["attrs"]["workers"] for s in pools)
    out["experiments.worker_busy_frac"] = (sum(cells) / capacity if capacity else 0.0, "frac")
    out["experiments.cell_count"] = (len(cells), "count")
    for label, p in (("p50", 0.5), ("p90", 0.9), ("max", 1.0)):
        out[f"experiments.cell_ms.{label}"] = (1e3 * _rank(cells, p) if cells else 0.0, "ms")
    out["trace.span_self_s"] = (total, "s")
    for name in SELF_S:
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in SELF_FRAC:
        out[f"{name}.self_frac"] = (self_s[name] / total if total else 0.0, "frac")
    for name in CALLS:
        out[f"{name}.calls"] = (calls[name], "count")

    ensemble_time = sum(self_s[n] for n in (
        "phases.sample_exponents", "ensembles.draw",
        "ensembles.normalized_trace.plain", "ensembles.normalized_trace.ramp"))
    # oracle entries drawn plus entries traced
    out["ensembles.entries_per_s"] = (
        counts["entries"] / ensemble_time if ensemble_time else 0.0, "1/s")
    out["query_sim.keys_total"] = (counts["keys"], "count")
    out["query_sim.average_density.weights_computed"] = (counts["weights"], "count")
    return out


def slowest_cell(spans):
    """(cell id, milliseconds, histogram keys, oracle entries) of the longest cell."""
    cells = [s for s in spans if s["name"] == CELL]
    if not cells:
        return None
    worst = max(cells, key=lambda s: s["end"] - s["start"])
    inside = [s for s in spans if s["cell"] == worst["cell"]]
    keys = sum(s["attrs"].get("keys", 0) for s in inside)
    entries = sum(s["attrs"].get("entries", 0) for s in inside)
    return worst["cell"], 1e3 * (worst["end"] - worst["start"]), keys, entries


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import querylab.cli

    tracer = Tracer()
    install(tracer)
    try:
        return querylab.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
