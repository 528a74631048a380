"""Experiment configuration: a sectioned ``key = value`` text format.

Three sections. ``[experiment]`` holds kind, master seed, and the purified
key cap; ``[grid]`` holds the parameter lists; ``[output]`` optionally names
the CSV path. Blank lines and ``#`` comments are allowed anywhere. Floats
are serialized with repr, so a config round-trips bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ensembles import gap_dimension
from .errors import ConfigError
from .query_sim import DEFAULT_KEY_CAP

__all__ = ["ExperimentConfig", "KINDS", "check_cap", "default_config", "parse_config",
           "config_to_text", "load_config"]

KINDS = ("verify-lemmas", "separation", "endtoend", "concentration")


# Grid keys of which a kind reads only the first value.
_SINGLE_VALUED = {"separation": ("q",), "endtoend": ("eps", "d", "q"), "concentration": ("q",)}


def _check_single_valued(kind: str, grid) -> None:
    """Reject several values for a grid key of which ``kind`` reads only the first."""
    for key in _SINGLE_VALUED.get(kind, ()):
        if len(grid[key]) > 1:
            raise ConfigError(f"{kind} reads one {key} value, got {grid[key]}", key=key)


def check_cap(cap: int) -> None:
    """Reject a histogram key cap below 1."""
    if cap < 1:
        raise ConfigError(f"key cap must be >= 1, got {cap}", key="cap")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    eps: tuple
    d: tuple
    q: tuple
    n: tuple
    trials: int
    seed: int
    cap: int
    out: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "eps", tuple(float(e) for e in self.eps))
        object.__setattr__(self, "d", tuple(int(v) for v in self.d))
        object.__setattr__(self, "q", tuple(int(v) for v in self.q))
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "cap", int(self.cap))
        for name in ("eps", "d", "q", "n"):
            if not getattr(self, name):
                raise ConfigError(f"grid entry {name!r} must be non-empty", key=name)
        if any(not 0.0 <= e < 1.0 for e in self.eps):
            raise ConfigError(f"eps values must lie in [0, 1), got {self.eps}", key="eps")
        for name in ("d", "n"):
            if any(v < 1 for v in getattr(self, name)):
                raise ConfigError(f"{name} values must be >= 1, got {getattr(self, name)}",
                                  key=name)
        if any(v < 2 for v in self.q):
            raise ConfigError(f"q values must be >= 2, got {self.q}", key="q")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}", key="trials")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}", key="seed")
        check_cap(self.cap)
        _check_single_valued(self.kind, vars(self))
        if self.kind == "separation" and max(self.n) > self.q[0]:
            raise ConfigError(f"query count {max(self.n)} exceeds phase order {self.q[0]}; "
                              "need n <= q", key="n")
        if self.kind == "endtoend":
            # the pair probe needs two query indices; the distinguishers a positive bias
            if self.d[0] < 2:
                raise ConfigError(f"endtoend needs d >= 2, got {self.d[0]}", key="d")
            if self.eps[0] == 0.0:
                raise ConfigError(f"endtoend needs eps > 0, got {self.eps[0]}", key="eps")
        if self.kind == "concentration":
            # the gap rows need a positive bias, and a tail estimate 100 trials
            if 0.0 in self.eps:
                raise ConfigError(f"concentration needs eps > 0, got {self.eps}", key="eps")
            if self.trials < 100:
                raise ConfigError(f"concentration needs trials >= 100, got {self.trials}",
                                  key="trials")
            if len(self.d) not in (1, len(self.eps)):
                raise ConfigError(f"d grid length {len(self.d)} matches neither eps grid "
                                  f"length {len(self.eps)} nor 1", key="d")


def default_config(kind: str) -> ExperimentConfig:
    if kind == "verify-lemmas":
        return ExperimentConfig(kind, (0.0, 0.1, 0.25, 0.45), (1,), (8, 64, 257, 1024),
                                (1,), 1, 0, DEFAULT_KEY_CAP)
    if kind == "separation":
        return ExperimentConfig(kind, (0.02, 0.05, 0.1, 0.2), (3, 4), (8,),
                                (1, 2, 3, 4, 5, 6), 20, 0, DEFAULT_KEY_CAP)
    if kind == "endtoend":
        return ExperimentConfig(kind, (0.05,), (gap_dimension(0.05),), (257,),
                                (1,), 400, 0, DEFAULT_KEY_CAP)
    if kind == "concentration":
        return ExperimentConfig(kind, (0.1,), (gap_dimension(0.1),), (257,),
                                (1,), 1000, 0, DEFAULT_KEY_CAP)
    raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {KINDS}")


_GRID_KEYS = ("eps", "d", "q", "n", "trials")
_EXPERIMENT_KEYS = ("kind", "seed", "cap")


def parse_config(text: str, unread: tuple = ()) -> ExperimentConfig:
    """Parse the sectioned key = value format; errors carry line numbers.

    A key the caller names in ``unread``, or a list for a grid key of which
    the kind reads one value, is an error rather than silently dropped.
    """
    section = None
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"unterminated section header {raw.strip()!r}", line=lineno)
            section = line[1:-1].strip()
            if section not in ("experiment", "grid", "output"):
                raise ConfigError(f"unknown section {section!r}", line=lineno)
            continue
        if section is None:
            raise ConfigError("key outside any section", line=lineno)
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw.strip()!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section == "experiment" and key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"unknown key {key!r} in [experiment]", line=lineno)
        if section == "grid" and key not in _GRID_KEYS:
            raise ConfigError(f"unknown key {key!r} in [grid]", line=lineno)
        if section == "output" and key != "path":
            raise ConfigError(f"unknown key {key!r} in [output]", line=lineno)
        if (section, key) in seen:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        if key in unread:
            raise ConfigError(f"key {key!r} is set but this command does not read it",
                              line=lineno)
        seen[(section, key)] = (value, lineno)

    def take(section, key, default=None, required=False):
        if (section, key) in seen:
            return seen.pop((section, key))
        if required:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return (default, None)

    kind, kind_line = take("experiment", "kind", required=True)
    # the line that set each key, for errors ExperimentConfig raises
    key_lines = {}

    def parse_int(section, key, default):
        value, lineno = take(section, key, default)
        if value is default:
            return default
        key_lines[key] = lineno
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}", line=lineno) from None

    def parse_list(key, conv, default):
        value, lineno = take("grid", key, default)
        if value is default:
            return default
        key_lines[key] = lineno
        items = [p.strip() for p in value.split(",") if p.strip()]
        if not items:
            raise ConfigError(f"{key} list is empty", line=lineno)
        try:
            return tuple(conv(p) for p in items)
        except ValueError:
            raise ConfigError(f"{key} has a malformed entry in {value!r}", line=lineno) from None

    try:
        base = default_config(kind)
    except ConfigError as exc:
        raise ConfigError(str(exc), line=kind_line) from None
    grid = {key: parse_list(key, conv, getattr(base, key))
            for key, conv in (("eps", float), ("d", int), ("q", int), ("n", int))}
    fields = dict(
        trials=parse_int("grid", "trials", base.trials),
        seed=parse_int("experiment", "seed", base.seed),
        cap=parse_int("experiment", "cap", base.cap),
        out=take("output", "path", None)[0],
    )
    try:
        return ExperimentConfig(kind, **grid, **fields)
    except ConfigError as exc:
        # a default n is valid alone and can fail only against the file's q
        line = key_lines.get(exc.key, key_lines.get("q") if exc.key == "n" else None)
        if exc.line is None and line is not None:
            raise ConfigError(str(exc), line=line, key=exc.key) from None
        raise


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization; parse_config(config_to_text(c)) == c.

    An output path that would not read back as itself (one holding ``#``, a
    line break, or surrounding whitespace) is an error.
    """
    if cfg.out is not None and ("#" in cfg.out or cfg.out.strip() != cfg.out
                                or len(cfg.out.splitlines()) > 1):
        raise ConfigError(f"output path {cfg.out!r} cannot be written to a config: "
                          "parse_config would read it back as another path")
    lines = [
        "[experiment]",
        f"kind = {cfg.kind}",
        f"seed = {cfg.seed}",
        f"cap = {cfg.cap}",
        "",
        "[grid]",
        f"eps = {', '.join(repr(e) for e in cfg.eps)}",
        f"d = {', '.join(str(v) for v in cfg.d)}",
        f"q = {', '.join(str(v) for v in cfg.q)}",
        f"n = {', '.join(str(v) for v in cfg.n)}",
        f"trials = {cfg.trials}",
    ]
    if cfg.out is not None:
        lines += ["", "[output]", f"path = {cfg.out}"]
    return "\n".join(lines) + "\n"


def load_config(path: str, unread: tuple = ()) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), unread)
