"""Command-line front end: seeded sweeps written as deterministic CSV.

Output is byte-identical for a fixed config and seed: the header echoes the
config (never the worker count or output path), floats are serialized with
repr, and rows are assembled in grid order regardless of scheduling.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import replace

from . import __version__
from .config import KINDS, ExperimentConfig, config_to_text, default_config, load_config
from .errors import ConfigError, QuerylabError
from .experiments import (
    _map_cells,
    advantage_profile,
    concentration_rows,
    endtoend_rows,
    lemma_rows,
    separation_rows,
)
from .query_sim import circuit_from_text

__all__ = [
    "main",
    "rows_to_csv",
    "trials_to_csv",
    "cmd_circuit_run",
]

ROW_COLUMNS = ("kind", "params", "measured", "bound", "passed", "seed")
TRIAL_COLUMNS = ("method", "trial", "truth", "label", "estimate", "forward", "inverse", "seed")

# circuit-run reads a separation config, but not these keys: the circuit file
# fixes d and q, and an exact run draws nothing and repeats nothing.
_CIRCUIT_RUN_UNREAD = ("seed", "d", "q", "n", "trials")


def _to_csv(comment_lines, columns, records) -> str:
    """A '#'-prefixed comment block, the column row, then one line per record."""
    buf = io.StringIO()
    buf.write("".join(f"# {ln}\n" if ln else "#\n" for ln in comment_lines))
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows(records)
    return buf.getvalue()


def _row_fields(r) -> list:
    """A result row's CSV fields, in `ROW_COLUMNS` order."""
    return [r.kind, repr(r.params), repr(float(r.measured)),
            "" if r.bound is None else repr(float(r.bound)), int(r.passed), r.seed]


def rows_to_csv(rows, comment_lines) -> str:
    """Serialize result rows under a '#'-prefixed comment header."""
    return _to_csv(comment_lines, ROW_COLUMNS, (_row_fields(r) for r in rows))


def trials_to_csv(records, comment_lines) -> str:
    """Serialize per-trial distinguisher records."""
    return _to_csv(comment_lines, TRIAL_COLUMNS, records)


def cmd_circuit_run(path: str, eps_list, cap: int):
    """Run one circuit file exactly and report its bias-advantage profile.

    Returns plain tuples (kind, params, measured) since nothing here is
    random or bounded. The circuit is one `_map_cells` unit, so it runs at one
    OpenBLAS thread like every sweep unit.
    """
    with open(path, "r", encoding="utf-8") as fh:
        circuit, q = circuit_from_text(fh.read())
    [[(keys, advantages)]] = _map_cells(advantage_profile, [([circuit], eps_list, q, cap)], 1)
    rows = [
        ("circuit_dims", (circuit.d, circuit.aux_dim, q), float(len(circuit.steps))),
        ("circuit_forward_queries", (q,), float(circuit.forward_count)),
        ("circuit_inverse_queries", (q,), float(circuit.inverse_count)),
        ("circuit_keys", (q,), float(keys)),
    ]
    rows += [("circuit_adv", (q, eps), adv) for eps, adv in zip(eps_list, advantages)]
    return rows


def _add_common_flags(p: argparse.ArgumentParser, kind: str) -> None:
    p.add_argument("--config", help="key=value config file; defaults are per-command")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    if default_config(kind).cap is not None:
        p.add_argument("--cap", type=int, help="histogram key cap override")


def _resolve_out(args) -> list:
    """Every path the command writes, the --out CSV first; [None] for stdout.

    An endtoend run also writes its trials to ``<stem>_trials<ext or .csv>``.
    Called before any work starts, so an empty path, a directory or a path in
    a missing directory is an error at once rather than after the sweep.
    """
    if args.out is None:
        return [None]
    paths = [args.out]
    if args.command == "endtoend":
        stem, ext = os.path.splitext(args.out)
        paths.append(f"{stem}_trials{ext or '.csv'}")
    for out in paths:
        if not out or os.path.isdir(out):
            raise ConfigError(f"output path {out!r} is empty or a directory")
        directory = os.path.dirname(out) or os.curdir
        if not os.path.isdir(directory):
            raise ConfigError(f"output directory {directory!r} does not exist")
    return paths


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _resolve_config(args, kind: str, unread: tuple = ()) -> ExperimentConfig:
    """The --config file (or the default config of ``kind``), with --seed and --cap applied."""
    cfg = load_config(args.config, unread) if args.config else default_config(kind)
    if cfg.kind != kind:
        raise ConfigError(f"{args.command} reads a {kind!r} config, got kind {cfg.kind!r}")
    flags = {key: getattr(args, key, None) for key in ("seed", "cap")}
    return replace(cfg, **{key: value for key, value in flags.items() if value is not None})


def _run_experiment(args) -> int:
    kind = args.command
    cfg = _resolve_config(args, kind)
    jobs = args.jobs
    if jobs < 1:
        raise ConfigError(f"worker count must be >= 1, got {jobs}")
    paths = _resolve_out(args)

    runners = {
        "verify-lemmas": lambda: (lemma_rows(cfg.q, cfg.eps, cfg.seed), None),
        "separation": lambda: (separation_rows(cfg), None),
        "endtoend": lambda: endtoend_rows(cfg),
        "concentration": lambda: (concentration_rows(cfg, jobs), None),
    }
    rows, records = runners[kind]()

    comments = [f"querylab {__version__}"] + config_to_text(cfg).rstrip("\n").split("\n")
    _emit(rows_to_csv(rows, comments), paths[0])
    if len(paths) > 1:
        _emit(trials_to_csv(records, comments), paths[1])

    failed = [r for r in rows if not r.passed]
    dest = paths[0] or "stdout"
    print(f"{kind}: {len(rows)} rows, {len(failed)} failed -> {dest}", file=sys.stderr)
    for r in failed:
        row_kind, params, measured, bound = _row_fields(r)[:4]
        print(f"  failed {row_kind} {params}: measured {measured}, bound {bound}", file=sys.stderr)
    return 0 if not failed else 1


def _run_circuit(args) -> int:
    cfg = _resolve_config(args, "separation", _CIRCUIT_RUN_UNREAD)
    paths = _resolve_out(args)
    rows = cmd_circuit_run(args.file, cfg.eps, cfg.cap)
    comments = [f"querylab {__version__}", f"circuit = {args.file}"]
    records = ([kind, repr(params), repr(measured)] for kind, params, measured in rows)
    _emit(_to_csv(comments, ("kind", "params", "measured"), records), paths[0])
    return 0


def _usable_cores() -> int:
    """The CPUs this process may run on (``os.cpu_count()`` also counts those it may not)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="querylab",
        description="Deterministic sweeps over biased-phase oracle ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "verify-lemmas": "check spectral and phase-moment properties over a grid",
        "separation": "forward-ceiling and inverse-family advantage sweep",
        "endtoend": "distinguisher success rates and query accounting",
        "concentration": "trace concentration tails at the calibrated dimension",
    }
    for kind in KINDS:
        sweep = sub.add_parser(kind, help=helps[kind])
        _add_common_flags(sweep, kind)
        sweep.add_argument("--seed", type=int, help="master seed override")
        sweep.add_argument("--jobs", type=int, default=_usable_cores(),
                           help="worker threads of concentration; the other sweeps "
                                "run in order and ignore it (default: usable cores)")
    circ = sub.add_parser("circuit-run", help="run one circuit file and report advantages")
    circ.add_argument("file", help="circuit in the text line format")
    _add_common_flags(circ, "separation")

    args = parser.parse_args(argv)
    try:
        if args.command == "circuit-run":
            return _run_circuit(args)
        return _run_experiment(args)
    except (QuerylabError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2

