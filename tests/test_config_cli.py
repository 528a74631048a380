"""Config parsing, sweep assembly, and the CLI surface."""

import ast
import csv
import importlib
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import querylab
from querylab import blas, cli, experiments, query_sim
from querylab.blas import one_blas_thread
from querylab.config import (
    _DEFAULTS,
    _KEYS,
    _LISTS,
    KINDS,
    ExperimentConfig,
    config_to_text,
    default_config,
    parse_config,
)
from querylab.errors import ConfigError, ParameterError
from querylab.families import (
    grover_iterate_circuit,
    matched_forward_circuit,
    random_interleaved_circuit,
)
from querylab.linalg import trace_distance
from querylab.query_sim import circuit_from_text, circuit_to_text, run_purified
from reference import density


# ------------------------------------------------------------------- config


@pytest.mark.parametrize("kind", KINDS)
def test_default_configs_are_valid_and_round_trip(kind):
    cfg = default_config(kind)
    assert cfg.kind == kind
    assert parse_config(config_to_text(cfg)) == cfg


def test_round_trip_preserves_awkward_floats():
    cfg = ExperimentConfig(
        "separation",
        eps=(0.1, 0.30000000000000004, 1e-05, 0.0),
        d=(3,), q=(8,), n=(1, 2), trials=7, seed=12345, cap=99,
    )
    text = config_to_text(cfg)
    again = parse_config(text)
    assert again == cfg
    assert config_to_text(again) == text


def test_parse_reports_line_numbers():
    text = "[experiment]\nkind = separation\nnot-a-pair\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == 3

    with pytest.raises(ConfigError) as err:
        parse_config("[experiment]\nkind = separation\n[grid]\neps = 0.1, oops\n")
    assert err.value.line == 4


@pytest.mark.parametrize("line,message", [
    ("eps = 1.5", "eps values must lie in [0, 1)"),
    ("d = 0", "d values must be >= 1"),
    ("n = 2, 0", "n values must be >= 1"),
    ("q = 1", "q values must be >= 2"),
    ("trials = 0", "trials must be >= 1"),
    ("cap = 0", "key cap must be >= 1"),
    ("seed = -5", "seed must be >= 0"),
])
def test_parse_range_errors_name_the_line(line, message):
    key = line.split()[0]
    section = "experiment" if key in ("cap", "seed") else "grid"
    other = "cap = 10" if key == "seed" else "seed = 1"
    text = f"[experiment]\nkind = separation\n{other}\n\n[{section}]\n# a comment\n{line}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == 7
    assert str(err.value).startswith(f"line 7: {message}")


def test_parse_rejects_duplicates_and_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nkind = separation\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nkind = separation\nflavor = mint\n")
    with pytest.raises(ConfigError):
        parse_config("[mystery]\nkind = separation\n")
    # the output path is not part of a config: --out names it
    with pytest.raises(ConfigError) as err:
        parse_config("[experiment]\nkind = separation\n\n[output]\npath = r.csv\n")
    assert str(err.value) == "line 4: unknown section 'output'"


@pytest.mark.parametrize("field,value", [
    ("eps", (1.0,)),
    ("eps", (-0.1,)),
    ("q", (1,)),
    ("n", (0,)),
    ("trials", 0),
    ("cap", 0),
    ("seed", -5),
    ("eps", (0.1, 0.1)),
    ("d", (3, 3)),
    ("n", (1, 1)),
    # (kind, values): a repeated grid cell of another kind
    ("eps", ("verify-lemmas", {"eps": (0.1, 0.1), "q": (8,)})),
    ("q", ("verify-lemmas", {"eps": (0.1,), "q": (8, 8)})),
    ("eps", ("concentration", {"eps": (0.1, 0.1), "d": (1000,), "trials": 100})),
    ("eps", ("concentration", {"eps": (0.1, 0.2, 0.1), "d": (1000, 2000, 1000)})),
])
def test_config_validation_rejects_bad_values(field, value):
    base = dict(eps=(0.1,), d=(3,), q=(8,), n=(1,), trials=1, seed=0, cap=10)
    kind, values = (value if isinstance(value, tuple) and isinstance(value[-1], dict)
                    else ("separation", {**base, field: value}))
    # the error names the key at fault, which the CLI turns into its line
    with pytest.raises(ConfigError) as err:
        replace(default_config(kind), **values)
    assert err.value.key == field


def test_config_accepts_a_repeated_eps_at_another_d():
    # concentration's cells are (eps, d) pairs
    cfg = replace(default_config("concentration"), eps=(0.1, 0.1), d=(1000, 2000))
    assert list(zip(cfg.eps, cfg.d)) == [(0.1, 1000), (0.1, 2000)]


@pytest.mark.parametrize("key,section", [
    (key, section) for key, (own, _) in _KEYS.items()
    for section in ("experiment", "grid", "output") if section != own])
def test_every_key_is_rejected_outside_its_section(key, section):
    # [output] is no section of the format, so its header line is the fault
    text = f"[experiment]\nkind = separation\n\n[{section}]\n{key} = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    line, message = ((4, "unknown section 'output'") if section == "output"
                     else (5, f"unknown key {key!r} in [{section}]"))
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


@pytest.mark.parametrize("kind,key", [
    *(("verify-lemmas", key) for key in ("d", "n", "trials", "cap")),
    *((kind, key) for kind in ("endtoend", "concentration") for key in ("n", "cap"))])
def test_every_key_a_kind_does_not_read_is_rejected(tmp_path, capsys, kind, key):
    # 0 is out of range for each of these keys too: the unread key is named first
    text = f"[experiment]\nkind = {kind}\n\n[{_KEYS[key][0]}]\n{key} = 0\n"
    out = tmp_path / "r.csv"
    assert cli.main([kind, "--config", _write_config(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: line 5: key {key!r} is set but {kind} does not read it\n")
    assert not out.exists() and not (tmp_path / "r_trials.csv").exists()
    with pytest.raises(ConfigError) as err:
        replace(default_config(kind), **{key: (1,) if key in _LISTS else 1})
    assert err.value.key == key


@pytest.mark.parametrize("kind", KINDS)
def test_config_built_in_code_needs_every_key_its_kind_reads(kind):
    for key in _DEFAULTS[kind]:
        with pytest.raises(ConfigError) as err:
            replace(default_config(kind), **{key: None})
        assert str(err.value) == f"key {key!r} is not set but {kind} reads it"
        assert err.value.key == key


def test_parse_reports_the_earliest_of_several_faults():
    text = "[experiment]\nkind = separation\n\n[grid]\ntrials = many\neps = 0.1, oops\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == "line 5: trials must be an integer, got 'many'"


def test_config_requires_kind():
    with pytest.raises(ConfigError):
        parse_config("[grid]\neps = 0.1\n")


# -------------------------------------------------------------- experiments


def test_wilson_interval_brackets_the_rate():
    lo, hi = experiments.wilson_interval(90, 100)
    assert lo < 0.9 < hi
    assert 0.0 <= lo and hi <= 1.0
    assert experiments.wilson_interval(0, 50)[0] == 0.0
    assert experiments.wilson_interval(50, 50)[1] == 1.0
    # tighter with more data
    lo2, hi2 = experiments.wilson_interval(900, 1000)
    assert hi2 - lo2 < hi - lo
    with pytest.raises(ParameterError):
        experiments.wilson_interval(0, 0)


def test_cell_seeds_are_stable_and_distinct():
    a = experiments.cell_seed(7, 3)
    assert a == experiments.cell_seed(7, 3)
    seeds = {experiments.cell_seed(7, i) for i in range(200)}
    assert len(seeds) == 200
    assert experiments.cell_seed(8, 3) != a


def test_lemma_rows_pass_on_small_grid():
    rows = experiments.lemma_rows((8, 64), (0.0, 0.1, 0.25), master_seed=1)
    # six checks per (q, eps) cell plus the single large-q limit row
    assert len(rows) == 6 * 6 + 1
    assert all(r.passed for r in rows)
    kinds = {r.kind for r in rows}
    assert "singular_match" in kinds and "mean_limit" in kinds
    assert "mean_window" not in kinds  # both q below the window threshold


def test_lemma_cell_builds_no_dense_frame(monkeypatch):
    # a lemma cell reads everything from the moment row: no SVD of a q x q
    # frame, no QR to orthonormalize it
    calls = {"svd": 0, "qr": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    rows = experiments.lemma_rows((8, 64), (0.1,))
    assert calls == {"svd": 0, "qr": 0}
    assert len(rows) == 2 * 6 + 1 and all(r.passed for r in rows)  # plus mean_limit


def test_lemma_cells_run_in_order_without_a_pool(tmp_path):
    # --jobs is accepted and ignored: the cells run in grid order
    cfg = _write_config(tmp_path, "[experiment]\nkind = verify-lemmas\n\n"
                                  "[grid]\neps = 0.0, 0.1\nq = 8, 64\n")
    out = tmp_path / "lemmas.csv"
    assert cli.main(["verify-lemmas", "--jobs", "4", "--config", cfg, "--out", str(out)]) == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    params = [ast.literal_eval(row["params"]) for row in csv.DictReader(body)]
    assert params[::6][:4] == [(8, 0.0), (8, 0.1), (64, 0.0), (64, 0.1)]


def test_endtoend_trials_run_in_order_without_a_pool(tmp_path):
    # --jobs is accepted and ignored: the trials run in method, then trial order
    cfg = _write_config(tmp_path, "[experiment]\nkind = endtoend\n\n"
                                  "[grid]\neps = 0.2\nd = 2000\nq = 8\ntrials = 3\n")
    out = tmp_path / "endtoend.csv"
    assert cli.main(["endtoend", "--jobs", "4", "--config", cfg, "--out", str(out)]) == 0
    body = [ln for ln in (tmp_path / "endtoend_trials.csv").read_text().splitlines()
            if not ln.startswith("#")]
    order = [(row["method"], int(row["trial"])) for row in csv.DictReader(body)]
    assert order == [(m, t) for m in ("estimation", "amplification", "naive") for t in range(3)]


def test_lemma_rows_mean_window_only_for_large_q():
    rows = experiments.lemma_rows((257,), (0.1,), master_seed=1)
    window = [r for r in rows if r.kind == "mean_window"]
    assert len(window) == 1
    assert 0.5 < window[0].measured < 1.0


def test_purification_scaling_rows_hit_closed_forms():
    rows = experiments.purification_scaling_rows()
    assert all(r.passed for r in rows)
    slopes = {r.kind: r.measured for r in rows if r.kind.endswith("_slope")}
    assert abs(slopes["pair_shared_slope"] - 2.0) <= 0.05
    assert abs(slopes["pair_swapped_slope"] - 1.0) <= 0.05


def test_separation_requires_n_at_most_q():
    with pytest.raises(ConfigError, match="need n <= q") as err:
        ExperimentConfig("separation", eps=(0.1,), d=(2,), q=(4,), n=(5,),
                         trials=2, seed=0, cap=10**5)
    assert err.value.key == "n"


def test_cli_rejects_a_repeated_separation_eps(tmp_path, capsys):
    # a repeated bias would write its rows twice and fit the eps-slopes
    # through equal points; circuit-run reads the same config kind
    cfg = _write_config(tmp_path, "[experiment]\nkind = separation\n\n[grid]\neps = 0.1, 0.1\n")
    path = tmp_path / "c.txt"
    path.write_text(circuit_to_text(grover_iterate_circuit(2, 1), 4))
    out = tmp_path / "r.csv"
    for argv in (["separation"], ["circuit-run", str(path)]):
        assert cli.main([*argv, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: line 5: separation needs distinct eps values, got (0.1, 0.1)\n")
        assert not out.exists()


@pytest.mark.parametrize("kind,grid,message", [
    ("verify-lemmas", "eps = 0.1, 0.1\nq = 8\n",
     "line 5: verify-lemmas needs distinct eps values, got (0.1, 0.1)"),
    ("separation", "d = 3, 3\nn = 1, 1\n",
     "line 5: separation needs distinct d values, got (3, 3)"),
    ("concentration", "eps = 0.1, 0.1\nd = 1000\ntrials = 100\n",
     "line 5: concentration needs distinct (eps, d) pairs, got eps (0.1, 0.1) and d (1000,)"),
])
def test_cli_rejects_a_repeated_grid_cell(tmp_path, capsys, kind, grid, message):
    # each would otherwise exit 0 and write the rows of the repeated cell twice
    cfg = _write_config(tmp_path, f"[experiment]\nkind = {kind}\n\n[grid]\n{grid}")
    out = tmp_path / "r.csv"
    assert cli.main([kind, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_separation_rows_structure_and_bounds():
    cfg = ExperimentConfig("separation", eps=(0.0, 0.1, 0.2), d=(2, 3), q=(8,),
                           n=(1, 2), trials=4, seed=9, cap=10**5)
    rows = experiments.separation_rows(cfg)
    fwd = [r for r in rows if r.kind == "forward_adv"]
    assert len(fwd) == 2 * 2 * 3  # d x n x eps
    for r in fwd:
        d, q, n, eps = r.params
        assert r.bound == 4.0 * n * eps**2 + 1e-9
        assert r.measured <= r.bound and r.passed
    zero = [r for r in fwd if r.params[-1] == 0.0]
    assert zero and all(r.measured == 0.0 for r in zero)
    kinds = {r.kind for r in rows}
    assert {"forward_slope", "inverse_adv", "inverse_slope",
            "matched_adv", "inverse_ratio"} <= kinds


def test_endtoend_rows_structure():
    cfg = ExperimentConfig("endtoend", eps=(0.1,), d=(2000,), q=(257,), trials=6, seed=2)
    rows, records = experiments.endtoend_rows(cfg)
    kinds = [r.kind for r in rows]
    for method in ("estimation", "amplification", "naive"):
        assert f"{method}_success" in kinds
        assert f"{method}_wilson_low" in kinds
        assert f"{method}_mean_forward" in kinds
    assert len(records) == 3 * 6
    methods = {rec[0] for rec in records}
    assert methods == {"estimation", "amplification", "naive"}
    # naive never touches the inverse oracle; estimation must
    naive_inv = [rec[6] for rec in records if rec[0] == "naive"]
    est_inv = [rec[6] for rec in records if rec[0] == "estimation"]
    assert all(v == 0 for v in naive_inv)
    assert all(v > 0 for v in est_inv)
    match = [r for r in rows if r.kind == "estimation_budget_match"]
    assert len(match) == 1 and match[0].passed
    ratios = [r for r in rows if r.kind == "budget_ratio" and r.bound is not None]
    assert len(ratios) == len(experiments.BUDGET_RATIO_BIASES)
    assert all(r.passed for r in ratios)


def test_endtoend_schedule_slopes():
    cfg = ExperimentConfig("endtoend", eps=(0.1,), d=(500,), q=(8,), trials=2, seed=3)
    rows, _ = experiments.endtoend_rows(cfg)
    by_kind = {r.kind: r for r in rows}
    assert by_kind["estimation_query_slope"].passed
    assert by_kind["naive_query_slope"].passed
    assert abs(by_kind["estimation_query_slope"].measured - 1.0) <= 0.1
    assert abs(by_kind["naive_query_slope"].measured - 2.0) <= 0.1


def test_concentration_rows_fail_below_calibrated_dimension():
    cfg = ExperimentConfig("concentration", eps=(0.1,), d=(400,), q=(8,), trials=200, seed=5)
    rows = experiments.concentration_rows(cfg)
    gap = [r for r in rows if r.kind == "gap_unbiased_small"]
    assert len(gap) == 1
    assert not gap[0].passed  # d far below the calibrated threshold


def test_config_built_in_code_rejects_lists_a_kind_reads_one_value_of():
    # the check lives in ExperimentConfig, so a sweep cannot drop grid values
    with pytest.raises(ConfigError, match="one q value"):
        experiments.separation_rows(
            ExperimentConfig("separation", (0.1,), (2,), (8, 16), (1,), 2, 0, 10**5))
    for key, values in (("eps", (0.1, 0.2)), ("d", (500, 600))):
        grid = {"eps": (0.1,), "d": (500,), "q": (8,), key: values}
        with pytest.raises(ConfigError, match=f"one {key} value") as err:
            ExperimentConfig("endtoend", **grid, trials=2, seed=0)
        assert err.value.line is None


def test_concentration_rows_broadcast_and_mismatch():
    cfg = ExperimentConfig("concentration", eps=(0.2, 0.3), d=(1000,), q=(8,), trials=150,
                           seed=5)
    rows = experiments.concentration_rows(cfg)
    assert {r.params[1] for r in rows} == {0.2, 0.3}
    with pytest.raises(ConfigError, match="d grid length 2") as err:
        ExperimentConfig("concentration", eps=(0.1, 0.2, 0.3), d=(10, 20), q=(8,),
                         trials=150, seed=5)
    assert err.value.key == "d"


def test_row_seeds_reproduce_tail_fraction():
    # any row can be replayed in isolation from its recorded seed
    from querylab.ensembles import concentration_check

    cfg = ExperimentConfig("concentration", eps=(0.2,), d=(1000,), q=(8,), trials=150,
                           seed=21)
    rows = experiments.concentration_rows(cfg)
    row = next(r for r in rows if r.kind == "tail_biased")
    t = row.params[3]
    rng = np.random.default_rng(row.seed)
    again = concentration_check(0.2, 1000, 8, t, 150, rng)
    assert again == row.measured


# --------------------------------------------------------------------- CLI


def _write_config(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


SMALL_CONC = """\
[experiment]
kind = concentration
seed = 31

[grid]
eps = 0.2
d = 2000
q = 8
trials = 150
"""


def test_cli_csv_is_byte_identical_across_jobs(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_CONC)
    outs = []
    for jobs in (1, 4):
        out = tmp_path / f"c{jobs}.csv"
        code = cli.main(["concentration", "--config", cfg, "--jobs", str(jobs),
                         "--out", str(out)])
        assert code in (0, 1)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()
    assert header[0] == "# querylab 0.1.0"
    assert "# kind = concentration" in header
    assert not any("jobs" in ln for ln in header if ln.startswith("#"))


def _child_env(threads) -> dict:
    # this checkout's package, with OPENBLAS_NUM_THREADS set to threads (unset for None)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def _run_at_blas_threads(tmp_path, name, command, threads) -> bytes:
    # the CSV bytes of one querylab process started with OPENBLAS_NUM_THREADS
    # set to threads, or unset for None
    out = tmp_path / f"{name}_t{threads}.csv"
    proc = subprocess.run([sys.executable, "-m", "querylab", *command, "--out", str(out)],
                          env=_child_env(threads), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


@pytest.mark.parametrize("threads, expected", [(None, 1), (2, 2)])
def test_cli_loads_openblas_at_one_thread_unless_the_variable_is_set(threads, expected):
    # the entry point sets the default before numpy loads; a value the user
    # set is kept (and the pin of _map_cells keeps it from moving a byte)
    if blas._controls() is None:
        pytest.skip("no OpenBLAS loaded in this process, so its thread count cannot be read")
    if expected > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS caps its thread count at the cores this process may use")
    code = ("import querylab.__main__, numpy; from querylab import blas; "
            "print(blas._controls()[0]())")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(threads),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == expected


def _csv_bytes_over_blas_threads(tmp_path, name, command) -> set:
    # the distinct CSV outputs of one command at OPENBLAS_NUM_THREADS {1, 2}
    return {_run_at_blas_threads(tmp_path, name, command, threads) for threads in (1, 2)}


def test_separation_csv_independent_of_blas_threads(tmp_path):
    # every sweep pins OpenBLAS to one thread, so the BLAS thread count the
    # process starts with moves no byte. The default grid stays at <= 84
    # keys (one row block, one weight tile); the d = 5, n = 10 grid reaches
    # 1,001 keys: two row blocks and four tiles.
    deep = tmp_path / "deep.ini"
    deep.write_text("[experiment]\nkind = separation\n\n"
                    "[grid]\nd = 5\nq = 16\nn = 10\ntrials = 2\n")
    for name, config in (("default", []), ("deep", ["--config", str(deep)])):
        outs = _csv_bytes_over_blas_threads(tmp_path, name, ["separation", *config])
        assert len(outs) == 1, name


def test_lemma_csv_independent_of_blas_threads(tmp_path):
    # the default lemma grid runs the Levinson recursion and the FFT up to
    # q = 1024
    outs = _csv_bytes_over_blas_threads(tmp_path, "lemmas", ["verify-lemmas"])
    # and at the entry point's own default, with the variable unset
    outs.add(_run_at_blas_threads(tmp_path, "lemmas", ["verify-lemmas"], None))
    assert len(outs) == 1


def test_circuit_run_bytes_independent_of_blas_threads_and_equal_to_separation(tmp_path):
    # the inverse circuit of the default separation block, run on its own: its
    # one circuit is a `_map_cells` unit too, so at any OpenBLAS thread count
    # it carries the bits of the separation rows for the same circuit
    path = tmp_path / "inverse.txt"
    path.write_text(circuit_to_text(grover_iterate_circuit(4, 8), 8))
    outs = {_run_at_blas_threads(tmp_path, "inverse", ["circuit-run", str(path)], threads)
            for threads in (1, 2)}
    assert len(outs) == 1
    body = [ln for ln in outs.pop().decode().splitlines() if not ln.startswith("#")]
    circuit_adv = {ast.literal_eval(params)[1]: measured
                   for kind, params, measured in csv.reader(body) if kind == "circuit_adv"}
    separation = (DATA_DIR / "separation_guard.csv").read_text().splitlines()
    inverse_adv = {ast.literal_eval(row[1])[3]: row[2]
                   for row in csv.reader(ln for ln in separation if not ln.startswith("#"))
                   if row[0] == "inverse_adv" and ast.literal_eval(row[1])[:3] == (4, 8, 8)}
    assert sorted(circuit_adv) == [0.02, 0.05, 0.1, 0.2]
    assert circuit_adv == {eps: inverse_adv[eps] for eps in circuit_adv}


def test_separation_units_are_whole_cells_in_draw_order_averaged_in_small_batches(monkeypatch):
    # the separation-deep benchmark grid: 6 forward cells and the inverse block
    cfg = replace(default_config("separation"), eps=(0.02, 0.05, 0.1, 0.2), d=(4, 5),
                  q=(16,), n=(6, 8, 10), trials=20, seed=0)
    units, results, maps, batch_sizes, merges = [], [], [], [], []
    real_map, real_average = experiments._map_cells, experiments.average_density
    real_profile, real_merge = experiments.advantage_profile, query_sim._lex_unique

    def spy_map(fn, args_list, jobs):
        maps.append(len(args_list))
        out = real_map(fn, args_list, jobs)
        units.extend(args_list)
        results.extend(out)
        return out

    def spy_average(p, eps, q):
        batch_sizes.append(len(p.vectors))
        return real_average(p, eps, q)

    def spy_merge(keys):
        merges[-1] += 1
        return real_merge(keys)

    def spy_profile(*args):
        merges.append(0)
        return real_profile(*args)

    monkeypatch.setattr(experiments, "_map_cells", spy_map)
    monkeypatch.setattr(experiments, "average_density", spy_average)
    monkeypatch.setattr(experiments, "advantage_profile", spy_profile)
    monkeypatch.setattr(query_sim, "_lex_unique", spy_merge)
    experiments.separation_rows(cfg)

    # each forward cell draws from its own seed, then the inverse block
    blocks = []
    for index, (d, n) in enumerate((d, n) for d in cfg.d for n in cfg.n):
        rng = np.random.default_rng(experiments.cell_seed(cfg.seed, index))
        blocks.append((cfg.eps, [random_interleaved_circuit(d, 2, "+" * n, rng)
                                 for _ in range(cfg.trials)]))
    rng = np.random.default_rng(experiments.cell_seed(cfg.seed, 40_000))
    positive = tuple(e for e in cfg.eps if e > 0)
    blocks.append((positive, [grover_iterate_circuit(4, 8), matched_forward_circuit(4, 8)]
                   + [random_interleaved_circuit(4, 2, "+" * 8, rng) for _ in range(cfg.trials)]))

    assert maps == [6 + 1]
    for (circuits, eps, q, cap), (block_eps, drawn) in zip(units, blocks):
        assert tuple(eps) == block_eps and q == 16 and cap == cfg.cap
        assert [circuit_to_text(c, q) for c in circuits] == [circuit_to_text(c, q) for c in drawn]
    # each circuit is averaged once, in batches of equal-key states that
    # never hold more than _BATCH of them
    assert sum(batch_sizes) == sum(len(drawn) for _, drawn in blocks)
    assert max(batch_sizes) == experiments._BATCH
    # a chunk of five same-skeleton circuits merges its keys once per query,
    # n times, not 5n; the inverse block groups by skeleton first: the
    # iterate alone, its matched twin alone, then the random twins in four
    # chunks: six batches of eight queries
    chunks = cfg.trials // experiments._BATCH
    assert merges == [chunks * n for d in cfg.d for n in cfg.n] + [6 * 8]
    # the profiles are those of each circuit run alone, in draw order
    with one_blas_thread():
        alone = [[real_profile([c], eps, 16, cfg.cap)[0] for c in drawn]
                 for eps, drawn in blocks]
    assert results == alone


def test_separation_runs_in_order_without_a_pool(tmp_path):
    # --jobs is accepted and ignored: the forward cells run in grid order
    cfg = _write_config(tmp_path, "[experiment]\nkind = separation\n\n"
                                  "[grid]\neps = 0.1, 0.2\nd = 2, 3\nq = 8\nn = 1, 2\n"
                                  "trials = 2\n")
    out = tmp_path / "separation.csv"
    assert cli.main(["separation", "--jobs", "4", "--config", cfg, "--out", str(out)]) == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    forward = [ast.literal_eval(row["params"]) for row in csv.DictReader(body)
               if row["kind"] == "forward_adv"]
    assert forward == [(d, 8, n, eps) for d in (2, 3) for n in (1, 2) for eps in (0.1, 0.2)]


def test_circuit_run_submits_one_unit_of_one_circuit(tmp_path, monkeypatch):
    units = []
    real = experiments._map_cells

    def spy(fn, args_list, jobs):
        units.extend(args_list)
        return real(fn, args_list, jobs)

    monkeypatch.setattr(cli, "_map_cells", spy)
    _tiny_circuit_run(tmp_path)
    assert len(units) == 1 and len(units[0][0]) == 1


def _tiny_circuit_run(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(circuit_to_text(grover_iterate_circuit(3, 2), 8))
    cfg = default_config("separation")
    return cli.cmd_circuit_run(str(path), cfg.eps, cfg.cap)


TINY_RUNS = {
    "lemmas": lambda tmp_path: experiments.lemma_rows((8,), (0.1,)),
    "separation": lambda tmp_path: experiments.separation_rows(ExperimentConfig(
        "separation", eps=(0.1, 0.2), d=(2,), q=(8,), n=(1,), trials=2, seed=0, cap=10**5)),
    "endtoend": lambda tmp_path: experiments.endtoend_rows(ExperimentConfig(
        "endtoend", eps=(0.1,), d=(500,), q=(8,), trials=2, seed=0)),
    "concentration": lambda tmp_path: experiments.concentration_rows(ExperimentConfig(
        "concentration", eps=(0.2,), d=(500,), q=(8,), trials=100, seed=0)),
    "circuit-run": _tiny_circuit_run,
}


@pytest.mark.parametrize("run", sorted(TINY_RUNS))
def test_sweeps_run_at_one_blas_thread_and_restore_it(run, monkeypatch, tmp_path):
    controls = blas._controls()
    if controls is None:
        pytest.skip("no OpenBLAS loaded in this process")
    get, put = controls
    before = get()
    put(2)
    outer = get()  # 2, or fewer where OpenBLAS was built for fewer threads
    seen, fail = [], []
    real = experiments._map_cells

    def spy(fn, args_list, jobs):
        def cell(*args):
            seen.append(get())
            if fail:
                raise RuntimeError("cell failed")
            return fn(*args)
        return real(cell, args_list, jobs)

    monkeypatch.setattr(experiments, "_map_cells", spy)
    monkeypatch.setattr(cli, "_map_cells", spy)
    try:
        TINY_RUNS[run](tmp_path)
        assert seen and set(seen) == {1}
        assert get() == outer
        seen.clear()
        fail.append(True)
        with pytest.raises(RuntimeError, match="cell failed"):
            TINY_RUNS[run](tmp_path)
        assert seen and set(seen) == {1}
        assert get() == outer
    finally:
        put(before)


def test_cli_verify_lemmas_zero_bias_only(tmp_path):
    cfg = _write_config(tmp_path, """\
[experiment]
kind = verify-lemmas

[grid]
eps = 0.0
q = 8, 64
""")
    out = tmp_path / "zero.csv"
    assert cli.main(["verify-lemmas", "--config", cfg, "--out", str(out)]) == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    alpha = [row for row in csv.reader(body) if row[0].startswith("alpha_min")]
    assert alpha
    for row in alpha:
        assert math.isclose(float(row[2]), 1.0, rel_tol=0, abs_tol=1e-12)
        assert row[4] == "1"


def test_cli_seed_changes_output(tmp_path):
    cfg = _write_config(tmp_path, SMALL_CONC)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["concentration", "--config", cfg, "--out", str(a)])
    cli.main(["concentration", "--config", cfg, "--seed", "99", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("kind,grid", [
    ("verify-lemmas", "eps = 0.0, 0.1\nq = 8"),
    ("separation", "eps = 0.1\nd = 2\nq = 8\nn = 1, 2\ntrials = 2"),
    ("endtoend", "eps = 0.1\nd = 1000\nq = 257\ntrials = 4"),
    ("concentration", "eps = 0.2\nd = 2000\nq = 8\ntrials = 150"),
])
def test_csv_header_parses_back_to_the_config_of_the_run(tmp_path, kind, grid):
    # the header below the version line is the whole recipe of a rerun,
    # a --seed override included
    text = f"[experiment]\nkind = {kind}\nseed = 3\n\n[grid]\n{grid}\n"
    out = tmp_path / "r.csv"
    assert cli.main([kind, "--config", _write_config(tmp_path, text), "--seed", "11",
                     "--out", str(out)]) in (0, 1)
    written = [out] + ([tmp_path / "r_trials.csv"] if kind == "endtoend" else [])
    for path in written:
        header = [ln for ln in path.read_text().splitlines() if ln.startswith("#")]
        assert header[0] == f"# querylab {querylab.__version__}"
        echoed = parse_config("\n".join(ln[2:] for ln in header[1:]))
        assert echoed == replace(parse_config(text), seed=11)


TINY_GRIDS = {
    "verify-lemmas": "eps = 0.1\nq = 8",
    "separation": "eps = 0.1\nd = 2\nq = 8\nn = 1\ntrials = 1",
    "endtoend": "eps = 0.1\nd = 500\nq = 8\ntrials = 2",
    "concentration": "eps = 0.2\nd = 500\nq = 8\ntrials = 100",
    "circuit-run": "eps = 0.1",
}


@pytest.mark.parametrize("command", sorted(TINY_GRIDS))
def test_each_command_reads_exactly_the_keys_its_kind_declares(tmp_path, monkeypatch, command):
    reads = set()

    class Recorder(ExperimentConfig):
        def __getattribute__(self, name):
            if name in _KEYS and name != "kind":
                reads.add(name)
            return super().__getattribute__(name)

    kind = "separation" if command == "circuit-run" else command
    resolve = cli._resolve_config

    def recording(*args):
        recorder = Recorder(**vars(resolve(*args)))
        reads.clear()  # drop the reads of validation
        return recorder

    monkeypatch.setattr(cli, "_resolve_config", recording)
    # the header echoes every key that is set, so it reads a plain copy
    monkeypatch.setattr(cli, "config_to_text",
                        lambda cfg: config_to_text(ExperimentConfig(**vars(cfg))))
    (tmp_path / "c.txt").write_text(circuit_to_text(grover_iterate_circuit(2, 1), 4))
    argv = ["circuit-run", str(tmp_path / "c.txt")] if command == "circuit-run" else [command]
    text = f"[experiment]\nkind = {kind}\n\n[grid]\n{TINY_GRIDS[command]}\n"
    assert cli.main([*argv, "--config", _write_config(tmp_path, text),
                     "--out", str(tmp_path / "r.csv")]) in (0, 1)
    expected = set(_DEFAULTS[kind])
    if command == "circuit-run":
        expected -= set(cli._CIRCUIT_RUN_UNREAD)
    assert reads == expected


def test_cli_exit_codes(tmp_path, capsys):
    # passing sweep
    ok = _write_config(tmp_path, SMALL_CONC.replace("d = 2000", "d = 80000"))
    assert cli.main(["concentration", "--config", ok,
                     "--out", str(tmp_path / "ok.csv")]) == 0
    # failing rows: dimension far below the calibrated threshold
    fail = _write_config(tmp_path, SMALL_CONC.replace("d = 2000", "d = 50"))
    assert cli.main(["concentration", "--config", fail,
                     "--out", str(tmp_path / "fail.csv")]) == 1
    # malformed config
    broken = tmp_path / "broken.cfg"
    broken.write_text("[experiment]\nkind = concentration\nwhat\n")
    assert cli.main(["concentration", "--config", str(broken)]) == 2
    # kind mismatch
    assert cli.main(["separation", "--config", ok]) == 2
    # missing config, missing circuit file, output in a missing directory
    missing_out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    capsys.readouterr()
    for argv in (["separation", "--config", str(tmp_path / "nope.cfg")],
                 ["circuit-run", str(tmp_path / "nope.txt")],
                 ["concentration", "--config", ok, "--out", missing_out]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_summary_names_each_failed_row(tmp_path, capsys):
    # the failing config of test_cli_exit_codes: one line per failed row, in
    # row order, with the CSV's kind, params, measured and bound
    fail = _write_config(tmp_path, SMALL_CONC.replace("d = 2000", "d = 50"))
    out = tmp_path / "fail.csv"
    assert cli.main(["concentration", "--config", fail, "--out", str(out)]) == 1
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(body))
    failed = [r for r in rows if r["passed"] == "0"]
    assert failed
    assert capsys.readouterr().err.splitlines() == [
        f"concentration: {len(rows)} rows, {len(failed)} failed -> {out}",
        *(f"  failed {r['kind']} {r['params']}: measured {r['measured']}, bound {r['bound']}"
          for r in failed),
    ]


@pytest.mark.parametrize("argv,runner", [
    (["endtoend"], "endtoend_rows"),
    (["separation"], "separation_rows"),
    (["circuit-run", "c.txt"], "cmd_circuit_run"),
])
def test_cli_checks_the_output_directory_before_any_work(tmp_path, monkeypatch, capsys,
                                                         argv, runner):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text(circuit_to_text(grover_iterate_circuit(2, 1), 4))
    (tmp_path / "r_trials.csv").mkdir()

    def must_not_run(*args, **kwargs):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(cli, runner, must_not_run)
    assert cli.main(argv + ["--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: output directory ")
    # an existing directory, an empty path, and for endtoend a directory
    # where its trials file would go
    bad = [(str(tmp_path), str(tmp_path)), ("", "")]
    if argv[0] == "endtoend":
        bad.append(("r.csv", "r_trials.csv"))
    for out, shown in bad:
        assert cli.main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err == f"error: output path {shown!r} is empty or a directory\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 7.28 TiB for an array with shape (10**12,)",
     "Unable to allocate 7.28 TiB for an array with shape (10**12,)"),
    ("", "MemoryError"),  # Python's own allocations raise it bare
])
def test_cli_reports_an_allocation_failure_with_exit_2(monkeypatch, capsys, message, shown):
    # exit 1 means a row failed its bound; a run that cannot allocate its
    # arrays did not produce rows at all
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "endtoend_rows", out_of_memory)
    assert cli.main(["endtoend"]) == 2
    assert capsys.readouterr().err == f"error: {shown}\n"


@pytest.mark.parametrize("kind,key", [
    ("separation", "q"),
    ("endtoend", "eps"),
    ("endtoend", "d"),
    ("endtoend", "q"),
    ("concentration", "q"),
])
def test_config_rejects_lists_a_kind_reads_one_value_of(tmp_path, capsys, kind, key):
    values = {"eps": "0.1, 0.2", "d": "500, 600", "q": "8, 16"}
    text = f"[experiment]\nkind = {kind}\n\n[grid]\n{key} = {values[key]}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"one {key} value" in str(err.value)
    assert err.value.line == 5
    assert cli.main([kind, "--config", _write_config(tmp_path, text)]) == 2
    assert f"one {key} value" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("d = 1", "endtoend needs d >= 2, got 1"),
    ("eps = 0.0", "endtoend needs eps > 0, got 0.0"),
])
def test_endtoend_input_is_checked_before_any_trial(tmp_path, monkeypatch, capsys, line,
                                                    message):
    # the pair probe needs d >= 2 and the distinguishers a positive bias;
    # both are config errors that name their line, not failures mid-sweep
    text = f"[experiment]\nkind = endtoend\n\n[grid]\n{line}\ntrials = 400\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"line 5: {message}"
    key, value = (part.strip() for part in line.split("="))
    grid = {"eps": (0.1,), "d": (500,), "q": (8,), key: (ast.literal_eval(value),)}
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig("endtoend", **grid, trials=2, seed=0)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a trial ran before the config was checked")

    monkeypatch.setattr(experiments, "_distinguisher_trial", must_not_run)
    assert cli.main(["endtoend", "--config", _write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err == f"error: line 5: {message}\n"


@pytest.mark.parametrize("line,bad,message", [
    ("eps = 0.1, 0.0", {"eps": (0.1, 0.0)}, "concentration needs eps > 0, got (0.1, 0.0)"),
    ("trials = 99", {"trials": 99}, "concentration needs trials >= 100, got 99"),
])
def test_concentration_input_is_checked_before_any_unit(tmp_path, monkeypatch, capsys, line,
                                                        bad, message):
    # the gap rows need a positive bias and the tail rows 100 trials; both
    # are config errors that name their line, not failures mid-sweep
    text = f"[experiment]\nkind = concentration\n\n[grid]\n{line}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"line 5: {message}"
    fields = {"eps": (0.1,), "d": (500,), "q": (8,), "trials": 100, **bad}
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig("concentration", **fields, seed=0)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a unit ran before the config was checked")

    monkeypatch.setattr(experiments, "concentration_check", must_not_run)
    monkeypatch.setattr(experiments, "trace_gap_check", must_not_run)
    assert cli.main(["concentration", "--config", _write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err == f"error: line 5: {message}\n"


@pytest.mark.parametrize("kind,grid,unit,message", [
    ("separation", "q = 4\nn = 2, 6", "advantage_profile",
     "query count 6 exceeds phase order 4; need n <= q"),
    ("concentration", "eps = 0.1, 0.2, 0.3\nd = 1000, 2000", "concentration_check",
     "d grid length 2 matches neither eps grid length 3 nor 1"),
])
def test_grid_lengths_are_checked_before_any_unit(tmp_path, monkeypatch, capsys, kind, grid,
                                                  unit, message):
    # a grid the sweep cannot pair up is a config error that names its line
    # (line 6, the second grid line), not a failure when the sweep starts
    text = f"[experiment]\nkind = {kind}\n\n[grid]\n{grid}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"line 6: {message}"

    def must_not_run(*args, **kwargs):
        raise AssertionError("a unit ran before the config was checked")

    monkeypatch.setattr(experiments, unit, must_not_run)
    assert cli.main([kind, "--config", _write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err == f"error: line 6: {message}\n"


@pytest.mark.parametrize("grid,line", [
    ("q = 4", 5),
    ("n = 2, 6\nq = 4", 5),
])
def test_separation_n_above_q_names_a_line_the_file_set(grid, line):
    # a default n (at most 6) is valid alone, so a file that leaves n out and
    # sets q = 4 has its q line named; a file that sets n has its n line
    # named, also when the q line comes after it
    text = f"[experiment]\nkind = separation\n\n[grid]\n{grid}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"line {line}: query count 6 exceeds phase order 4; need n <= q"


def test_cli_negative_seed_exits_before_any_unit(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a unit ran before the seed was checked")

    monkeypatch.setattr(experiments, "concentration_check", must_not_run)
    assert cli.main(["concentration", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cli_circuit_run_checks_the_cap_before_reading_the_circuit(tmp_path, monkeypatch,
                                                                   capsys, cap):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the circuit was read before --cap was checked")

    monkeypatch.setattr(cli, "cmd_circuit_run", must_not_run)
    missing = str(tmp_path / "nope.txt")
    assert cli.main(["circuit-run", missing, "--cap", cap]) == 2
    assert capsys.readouterr().err == f"error: key cap must be >= 1, got {cap}\n"


@pytest.mark.parametrize("line", ["seed = 7", "d = 3", "q = 64", "n = 2", "trials = 5"])
def test_cli_circuit_run_rejects_keys_it_does_not_read(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text(circuit_to_text(grover_iterate_circuit(2, 1), 4))
    section = "experiment" if line.startswith("seed") else "grid"
    (tmp_path / "run.ini").write_text(
        f"[experiment]\nkind = separation\n\n[grid]\neps = 0.1\n\n[{section}]\n{line}\n")
    assert cli.main(["circuit-run", "c.txt", "--config", "run.ini"]) == 2
    key = line.split()[0]
    assert f"key {key!r}" in capsys.readouterr().err
    # the sweeps still read the same file
    assert parse_config((tmp_path / "run.ini").read_text()).kind == "separation"


def test_cli_stdout_when_no_out(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_CONC)
    code = cli.main(["concentration", "--config", cfg])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert captured.out.startswith("# querylab")
    assert "kind,params,measured,bound,passed,seed" in captured.out


def test_cli_endtoend_writes_trials_sibling(tmp_path):
    cfg = _write_config(tmp_path, """\
[experiment]
kind = endtoend
seed = 7

[grid]
eps = 0.1
d = 1000
q = 257
trials = 4
""")
    out = tmp_path / "e2e.csv"
    code = cli.main(["endtoend", "--config", cfg, "--out", str(out)])
    assert code in (0, 1)
    trials = tmp_path / "e2e_trials.csv"
    assert trials.exists()
    body = [ln for ln in trials.read_text().splitlines() if not ln.startswith("#")]
    assert body[0].split(",")[:4] == ["method", "trial", "truth", "label"]
    assert len(body) == 1 + 3 * 4


DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def blas_threads(request):
    # the OpenBLAS thread count a recorded run starts at, restored afterwards;
    # the pin of _map_cells must keep it from moving a byte
    controls = blas._controls()
    if controls is None:
        if request.param > 1:
            pytest.skip("no OpenBLAS loaded in this process")
        yield
        return
    get, put = controls
    saved = get()
    put(request.param)
    try:
        yield
    finally:
        put(saved)


@pytest.mark.parametrize("blas_threads", [1, 2], indirect=True)
def test_cli_endtoend_bytes_match_recorded_run(tmp_path, blas_threads):
    # summary and trials CSVs of a small endtoend run, recorded from the
    # entry-by-entry trial path (dense ramp, collapsed state vector) that the
    # factored trace and the blocked sampler must reproduce byte for byte.
    # d = 40,001 leaves a partial last row in the factored ramp trace and
    # crosses a sampler block.
    cfg = _write_config(tmp_path, """\
[experiment]
kind = endtoend
seed = 0

[grid]
eps = 0.05
d = 40001
q = 257
trials = 8
""")
    out = tmp_path / "guard.csv"
    assert cli.main(["endtoend", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / "endtoend_guard.csv").read_bytes()
    trials = tmp_path / "guard_trials.csv"
    assert trials.read_bytes() == (DATA_DIR / "endtoend_guard_trials.csv").read_bytes()


@pytest.mark.parametrize("blas_threads", [1, 2], indirect=True)
def test_cli_lemma_bytes_match_recorded_run(tmp_path, blas_threads):
    # the default verify-lemmas run, recorded from the per-power moment loop
    # that the array moment kernel must reproduce byte for byte
    out = tmp_path / "lemmas.csv"
    assert cli.main(["verify-lemmas", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / "lemmas_guard.csv").read_bytes()


@pytest.mark.parametrize("blas_threads", [1, 2], indirect=True)
def test_cli_separation_bytes_match_recorded_run(tmp_path, blas_threads):
    # the default separation run: at d = 4, n = 2 (10 keys) the difference
    # code's prefix stops at 2 of the 4 coordinates
    out = tmp_path / "separation.csv"
    assert cli.main(["separation", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / "separation_guard.csv").read_bytes()


@pytest.mark.parametrize("blas_threads", [1, 2], indirect=True)
def test_cli_separation_deep_bytes_match_recorded_run(tmp_path, blas_threads):
    # d = 5, n = 10: 1,001 keys, so two row blocks and a full, folded
    # difference-code prefix, plus the d = 4, n = 8 inverse block
    cfg = _write_config(tmp_path, """\
[experiment]
kind = separation
seed = 0

[grid]
d = 5
q = 16
n = 10
trials = 2
""")
    out = tmp_path / "guard.csv"
    assert cli.main(["separation", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / "separation_deep_guard.csv").read_bytes()


@pytest.mark.parametrize("blas_threads", [1, 2], indirect=True)
def test_cli_concentration_bytes_match_recorded_run(tmp_path, blas_threads):
    # recorded from the whole-array multi-step sampler; at q = 257 the guide
    # table has 2048 buckets, so one step per draw holds up to eps < 0.874
    # and only the eps = 0.9 draws step over flat CDF runs
    cfg = _write_config(tmp_path, """\
[experiment]
kind = concentration
seed = 0

[grid]
eps = 0.2, 0.8, 0.9
d = 20000
q = 257
trials = 100
""")
    out = tmp_path / "guard.csv"
    assert cli.main(["concentration", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / "concentration_guard.csv").read_bytes()


def test_cli_circuit_run_matches_direct_computation(tmp_path, capsys):
    circuit = grover_iterate_circuit(3, 2)
    path = tmp_path / "c.txt"
    path.write_text(circuit_to_text(circuit, 8))
    assert cli.main(["circuit-run", str(path)]) == 0
    out = capsys.readouterr().out
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = [parts for parts in csv.reader(body) if parts[0] == "circuit_adv"]
    # no config: the default biases of a separation config
    assert [ast.literal_eval(params)[1] for _, params, _ in rows] == [0.02, 0.05, 0.1, 0.2]
    with one_blas_thread():
        state = run_purified([circuit])
        base = density(state, 0.0, 8)
        for _, params, measured in rows:
            eps = ast.literal_eval(params)[1]
            assert float(measured) == trace_distance(base, density(state, eps, 8))


def test_cli_circuit_run_takes_its_output_path_from_out_alone(tmp_path, monkeypatch, capsys):
    # a config names no output path: an [output] section is an error before
    # the circuit is read, also beside --out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text(circuit_to_text(grover_iterate_circuit(2, 1), 4))
    grid = "[experiment]\nkind = separation\n\n[grid]\neps = 0.1\n"
    (tmp_path / "old.ini").write_text(grid + "\n[output]\npath = x.csv\n")
    (tmp_path / "run.ini").write_text(grid)
    for out in ([], ["--out", "y.csv"]):
        assert cli.main(["circuit-run", "c.txt", "--config", "old.ini", *out]) == 2
        assert capsys.readouterr().err == "error: line 7: unknown section 'output'\n"
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "y.csv").exists()
    assert cli.main(["circuit-run", "c.txt", "--config", "run.ini", "--out", "y.csv"]) == 0
    assert capsys.readouterr().out == ""
    body = [ln for ln in (tmp_path / "y.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert [row[0] for row in csv.reader(body)][-1] == "circuit_adv"


@pytest.mark.parametrize("kind", ["verify-lemmas", "endtoend", "concentration"])
def test_cli_circuit_run_reads_only_a_separation_config(tmp_path, monkeypatch, capsys, kind):
    # the kind picks default biases and checks, so another kind is an error
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text(circuit_to_text(grover_iterate_circuit(2, 1), 4))
    (tmp_path / "run.ini").write_text(f"[experiment]\nkind = {kind}\n")

    def must_not_run(*args, **kwargs):
        raise AssertionError("the circuit was read before the config kind was checked")

    monkeypatch.setattr(cli, "cmd_circuit_run", must_not_run)
    assert cli.main(["circuit-run", "c.txt", "--config", "run.ini"]) == 2
    assert capsys.readouterr().err == (
        f"error: circuit-run reads a 'separation' config, got kind {kind!r}\n")


def test_cli_circuit_run_with_kind_only_config_matches_no_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text(circuit_to_text(grover_iterate_circuit(2, 1), 4))
    (tmp_path / "run.ini").write_text("[experiment]\nkind = separation\n")
    assert cli.main(["circuit-run", "c.txt"]) == 0
    bare = capsys.readouterr().out
    assert cli.main(["circuit-run", "c.txt", "--config", "run.ini"]) == 0
    assert capsys.readouterr().out == bare


@pytest.mark.parametrize("header", ["3 1 2", "3 0 2", "3 8 0", "0 8 2", "-1 8 2"])
def test_cli_circuit_run_checks_the_header_before_any_gate(tmp_path, monkeypatch, capsys,
                                                           header):
    # the gate line would fail to parse under the bad header; the header is
    # blamed first, and nothing runs
    path = tmp_path / "c.txt"
    path.write_text(header + "\nG 1,0 0,0\nQ+\n")

    def must_not_run(*args, **kwargs):
        raise AssertionError("the circuit ran with a bad header")

    monkeypatch.setattr(experiments, "run_purified", must_not_run)
    with pytest.raises(ConfigError) as err:
        circuit_from_text(path.read_text())
    assert err.value.line == 1
    assert cli.main(["circuit-run", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: line 1: header needs d >= 1, q >= 2 and aux >= 1, got {header!r}\n")


def test_cli_circuit_run_has_no_sweep_flags(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(circuit_to_text(grover_iterate_circuit(2, 1), 4))
    for flag in ("--seed", "--jobs"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["circuit-run", str(path), flag, "3"])
        assert exc.value.code == 2


@pytest.mark.parametrize("kind", ["verify-lemmas", "endtoend", "concentration"])
def test_cli_cap_only_where_the_cap_is_read(kind, capsys):
    # only separation and circuit-run read the histogram key cap
    with pytest.raises(SystemExit) as exc:
        cli.main([kind, "--cap", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 3" in capsys.readouterr().err
    assert cli.main(["separation", "--cap", "0"]) == 2
    assert capsys.readouterr().err == "error: key cap must be >= 1, got 0\n"


def test_cli_circuit_run_rejects_non_unitary_gate(tmp_path, capsys):
    path = tmp_path / "shear.txt"
    path.write_text("1 4 2\nG 1.0,0.0 1.0,0.0 0.0,0.0 1.0,0.0\nQ+\n")
    assert cli.main(["circuit-run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not unitary" in err


@pytest.mark.parametrize("entry", ["nan,0", "inf,0"])
def test_cli_circuit_run_rejects_non_finite_gate(tmp_path, capsys, entry):
    path = tmp_path / "bad.txt"
    path.write_text(f"1 4 1\nG {entry}\nQ+\n")
    assert cli.main(["circuit-run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fixed gate has a non-finite entry\n"


def test_every_export_resolves():
    # perfbench's tracer looks each exported name up with getattr
    missing = []
    for info in pkgutil.iter_modules(querylab.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        mod = importlib.import_module(f"querylab.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_cli_module_entry_point(tmp_path):
    circuit = grover_iterate_circuit(2, 1)
    path = tmp_path / "c.txt"
    path.write_text(circuit_to_text(circuit, 4))
    proc = subprocess.run([sys.executable, "-m", "querylab", "circuit-run", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "circuit_adv" in proc.stdout
