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
from .config import KINDS, ExperimentConfig, check_cap, config_to_text, default_config, load_config
from .errors import ConfigError, QuerylabError
from .experiments import (
    _map_cells,
    advantage_profile,
    concentration_rows,
    endtoend_rows,
    lemma_rows,
    separation_rows,
)
from .query_sim import DEFAULT_KEY_CAP, circuit_from_text

__all__ = [
    "main",
    "rows_to_csv",
    "trials_to_csv",
    "cmd_circuit_run",
]

ROW_COLUMNS = ("kind", "params", "measured", "bound", "passed", "seed")
TRIAL_COLUMNS = ("method", "trial", "truth", "label", "estimate", "forward", "inverse", "seed")

# Bias points reported by circuit-run when no config supplies a grid.
_CIRCUIT_RUN_EPS = (0.05, 0.1, 0.2)

# Config keys circuit-run has no use for: the circuit file fixes d and q, and
# an exact run draws nothing and repeats nothing.
_CIRCUIT_RUN_UNREAD = ("seed", "d", "q", "n", "trials")


def _config_comments(cfg: ExperimentConfig) -> list:
    echo = replace(cfg, out=None)
    return [f"querylab {__version__}"] + config_to_text(echo).rstrip("\n").split("\n")


def _to_csv(comment_lines, columns, records) -> str:
    """A '#'-prefixed comment block, the column row, then one line per record."""
    buf = io.StringIO()
    buf.write("".join(f"# {ln}\n" if ln else "#\n" for ln in comment_lines))
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows(records)
    return buf.getvalue()


def rows_to_csv(rows, comment_lines) -> str:
    """Serialize result rows under a '#'-prefixed comment header."""
    return _to_csv(comment_lines, ROW_COLUMNS, (
        [r.kind, repr(r.params), repr(float(r.measured)),
         "" if r.bound is None else repr(float(r.bound)), int(r.passed), r.seed]
        for r in rows))


def trials_to_csv(records, comment_lines) -> str:
    """Serialize per-trial distinguisher records."""
    return _to_csv(comment_lines, TRIAL_COLUMNS, records)


def cmd_circuit_run(path: str, eps_list=_CIRCUIT_RUN_EPS, cap: int = DEFAULT_KEY_CAP):
    """Run one circuit file exactly and report its bias-advantage profile.

    Returns plain tuples (kind, params, measured) since nothing here is
    random or bounded. The circuit is one unit of work of the cell pool, so
    it runs at one OpenBLAS thread like every sweep unit.
    """
    with open(path, "r", encoding="utf-8") as fh:
        circuit, q = circuit_from_text(fh.read())
    [(keys, advantages)] = _map_cells(advantage_profile, [(circuit, eps_list, q, cap)], 1)
    rows = [
        ("circuit_dims", (circuit.d, circuit.aux_dim, q), float(len(circuit.steps))),
        ("circuit_forward_queries", (q,), float(circuit.forward_count)),
        ("circuit_inverse_queries", (q,), float(circuit.inverse_count)),
        ("circuit_keys", (q,), float(keys)),
    ]
    rows += [("circuit_adv", (q, eps), adv) for eps, adv in zip(eps_list, advantages)]
    return rows


def _add_common_flags(p: argparse.ArgumentParser, cap: bool) -> None:
    p.add_argument("--config", help="key=value config file; defaults are per-command")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    if cap:  # only separation and circuit-run read the histogram key cap
        p.add_argument("--cap", type=int, help="histogram key cap override")


def _resolve_out(flag_value, cfg_out):
    """The output path, or None for stdout.

    Called before any work starts, so a path in a missing directory is an
    error at once rather than after the sweep.
    """
    out = flag_value if flag_value is not None else cfg_out
    if out is None:
        return None
    directory = os.path.dirname(out) or os.curdir
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory!r} does not exist")
    return out


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _run_experiment(args) -> int:
    kind = args.command
    cfg = load_config(args.config) if args.config else default_config(kind)
    if cfg.kind != kind:
        raise ConfigError(f"config is for kind {cfg.kind!r} but the command is {kind!r}")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "cap", None) is not None:
        cfg = replace(cfg, cap=args.cap)
    jobs = args.jobs
    if jobs < 1:
        raise ConfigError(f"worker count must be >= 1, got {jobs}")
    out_path = _resolve_out(args.out, cfg.out)

    runners = {
        "verify-lemmas": lambda: (lemma_rows(cfg.q, cfg.eps, cfg.seed, jobs), None),
        "separation": lambda: (separation_rows(cfg, jobs), None),
        "endtoend": lambda: endtoend_rows(cfg, jobs),
        "concentration": lambda: (concentration_rows(cfg, jobs), None),
    }
    rows, records = runners[kind]()

    comments = _config_comments(cfg)
    _emit(rows_to_csv(rows, comments), out_path)
    if records is not None and out_path is not None:
        stem, ext = os.path.splitext(out_path)
        _emit(trials_to_csv(records, comments), f"{stem}_trials{ext or '.csv'}")

    failures = sum(not r.passed for r in rows)
    dest = out_path or "stdout"
    print(f"{kind}: {len(rows)} rows, {failures} failed -> {dest}", file=sys.stderr)
    return 0 if failures == 0 else 1


def _run_circuit(args) -> int:
    eps_list, cap, cfg_out = _CIRCUIT_RUN_EPS, DEFAULT_KEY_CAP, None
    if args.config:
        cfg = load_config(args.config, _CIRCUIT_RUN_UNREAD)
        eps_list, cap, cfg_out = cfg.eps, cfg.cap, cfg.out
    if args.cap is not None:
        cap = args.cap
    check_cap(cap)
    out_path = _resolve_out(args.out, cfg_out)
    rows = cmd_circuit_run(args.file, eps_list, cap)
    comments = [f"querylab {__version__}", f"circuit = {args.file}"]
    records = ([kind, repr(params), repr(measured)] for kind, params, measured in rows)
    _emit(_to_csv(comments, ("kind", "params", "measured"), records), out_path)
    return 0


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
        _add_common_flags(sweep, cap=kind == "separation")
        sweep.add_argument("--seed", type=int, help="master seed override")
        sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                           help="worker threads (default: all cores)")
    circ = sub.add_parser("circuit-run", help="run one circuit file and report advantages")
    circ.add_argument("file", help="circuit in the text line format")
    _add_common_flags(circ, cap=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "circuit-run":
            return _run_circuit(args)
        return _run_experiment(args)
    except (QuerylabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
