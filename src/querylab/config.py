"""Experiment configuration: a sectioned ``key = value`` text format.

Two sections. ``[experiment]`` holds kind, master seed, and the purified
key cap; ``[grid]`` holds the parameter lists. Blank lines and ``#`` comments are allowed anywhere. Floats
are serialized with repr, so a config round-trips bit-exactly.

``_KEYS`` is the one place a key is declared: its section and the
converter of one value. Parsing, the line an error names, the echo of
``config_to_text`` and the field types all read it. ``_DEFAULTS`` names
the keys each kind reads, with their defaults: a config holds None for
every other key, and setting one is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .ensembles import gap_dimension
from .errors import ConfigError
from .query_sim import DEFAULT_KEY_CAP

__all__ = ["ExperimentConfig", "KINDS", "default_config", "parse_config", "config_to_text",
           "load_config"]

_DEFAULTS = {
    "verify-lemmas": {"seed": 0, "eps": (0.0, 0.1, 0.25, 0.45), "q": (8, 64, 257, 1024)},
    "separation": {"seed": 0, "cap": DEFAULT_KEY_CAP, "eps": (0.02, 0.05, 0.1, 0.2),
                   "d": (3, 4), "q": (8,), "n": (1, 2, 3, 4, 5, 6), "trials": 20},
    "endtoend": {"seed": 0, "eps": (0.05,), "d": (gap_dimension(0.05),), "q": (257,),
                 "trials": 400},
    "concentration": {"seed": 0, "eps": (0.1,), "d": (gap_dimension(0.1),), "q": (257,),
                      "trials": 1000},
}
KINDS = tuple(_DEFAULTS)


# Grid keys of which a kind reads only the first value.
_SINGLE_VALUED = {"separation": ("q",), "endtoend": ("eps", "d", "q"), "concentration": ("q",)}


def _kind(value: str) -> str:
    """``value``, if it names an experiment kind."""
    if value not in KINDS:
        raise ConfigError(f"unknown experiment kind {value!r}; expected one of {KINDS}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    eps: tuple | None = None
    d: tuple | None = None
    q: tuple | None = None
    n: tuple | None = None
    trials: int | None = None
    seed: int | None = None
    cap: int | None = None

    def __post_init__(self):
        reads = _DEFAULTS[_kind(self.kind)]
        for key in _KEYS:
            value = getattr(self, key)
            if key != "kind" and (value is not None) != (key in reads):
                raise ConfigError(f"key {key!r} is not set but {self.kind} reads it"
                                  if value is None else
                                  f"key {key!r} is set but {self.kind} does not read it", key=key)
            if key in _LISTS and value is not None and not value:
                raise ConfigError(f"grid entry {key!r} must be non-empty", key=key)
        # every kind reads eps, q and seed; the other range checks skip unread keys
        if any(not 0.0 <= e < 1.0 for e in self.eps):
            raise ConfigError(f"eps values must lie in [0, 1), got {self.eps}", key="eps")
        for name in ("d", "n"):
            if name in reads and any(v < 1 for v in getattr(self, name)):
                raise ConfigError(f"{name} values must be >= 1, got {getattr(self, name)}",
                                  key=name)
        if any(v < 2 for v in self.q):
            raise ConfigError(f"q values must be >= 2, got {self.q}", key="q")
        if "trials" in reads and self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}", key="trials")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}", key="seed")
        if "cap" in reads and self.cap < 1:
            raise ConfigError(f"key cap must be >= 1, got {self.cap}", key="cap")
        for name in _SINGLE_VALUED.get(self.kind, ()):
            if len(getattr(self, name)) > 1:
                raise ConfigError(f"{self.kind} reads one {name} value, got "
                                  f"{getattr(self, name)}", key=name)
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
    return ExperimentConfig(kind, **_DEFAULTS[_kind(kind)])


# Each key of the format: its section and the converter of one of its values.
# Table order is the order of config_to_text.
_KEYS = {
    "kind": ("experiment", _kind),
    "seed": ("experiment", int),
    "cap": ("experiment", int),
    "eps": ("grid", float),
    "d": ("grid", int),
    "q": ("grid", int),
    "n": ("grid", int),
    "trials": ("grid", int),
}
_LISTS = ("eps", "d", "q", "n")  # keys that take a comma list


def _convert(key: str, text: str, lineno: int):
    """The field value of the line ``key = text``; an error names the line."""
    conv = _KEYS[key][1]
    try:
        if key not in _LISTS:
            return conv(text)
        items = [p.strip() for p in text.split(",") if p.strip()]
        if items:
            return tuple(conv(p) for p in items)
        message = f"{key} list is empty"
    except ConfigError as exc:
        message = str(exc)
    except ValueError:
        message = (f"{key} has a malformed entry in {text!r}" if key in _LISTS
                   else f"{key} must be an integer, got {text!r}")
    raise ConfigError(message, line=lineno)


def parse_config(text: str, unread: tuple = ()) -> ExperimentConfig:
    """Parse the sectioned key = value format; errors carry line numbers.

    A key the kind does not read or the caller names in ``unread``, or a
    list for a grid key the kind reads one value of, is an error; of
    several faults on the lines, the first in line order is reported.
    """
    section = None
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"unterminated section header {raw.strip()!r}", line=lineno)
            section = line[1:-1].strip()
            if section not in {own for own, _ in _KEYS.values()}:
                raise ConfigError(f"unknown section {section!r}", line=lineno)
            continue
        if section is None:
            raise ConfigError("key outside any section", line=lineno)
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw.strip()!r}", line=lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if _KEYS.get(key, (None,))[0] != section:
            raise ConfigError(f"unknown key {key!r} in [{section}]", line=lineno)
        if key in lines:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        if key in unread:
            raise ConfigError(f"key {key!r} is set but this command does not read it",
                              line=lineno)
        values[key] = _convert(key, value, lineno)
        lines[key] = lineno
    if "kind" not in values:
        raise ConfigError("missing required key 'kind' in [experiment]")
    try:
        return replace(default_config(values["kind"]), **values)
    except ConfigError as exc:
        # a default n is valid alone and can fail only against the file's q
        line = lines.get(exc.key, lines.get("q") if exc.key == "n" else None)
        if line is None:
            raise
        raise ConfigError(str(exc), line=line, key=exc.key) from None


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization; parse_config(config_to_text(c)) == c."""
    lines, section = [], None
    for key, (own, _) in _KEYS.items():
        value = getattr(cfg, key)
        if value is None:
            continue
        if own != section:
            section = own
            lines += ["", f"[{section}]"]
        lines.append(f"{key} = {', '.join(map(str, value)) if key in _LISTS else value}")
    return "\n".join(lines[1:]) + "\n"


def load_config(path: str, unread: tuple = ()) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), unread)
