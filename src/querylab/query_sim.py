"""Exact ensemble-averaged output states of query circuits.

A query circuit interleaves fixed unitaries on (query register R) x (workspace
S) with queries to an unknown diagonal oracle, forward or inverse. Averaging
the output projector over a diagonal-phase ensemble is done exactly, without
sampling: the run is decomposed over integer exponent histograms e (one count
per diagonal entry, negative after inverse queries), each holding the part of
the state that acquired the monomial ``prod_i U_i^{e_i}``. The ensemble
average is then a moment-weighted double sum over histogram keys,

    rho = sum_{e, e'} M(e - e') |v_e><v_{e'}|,   M(m) = prod_i moment(eps, q, m_i),

which factorizes per coordinate because the diagonal entries are independent.

The decomposition is two aligned arrays, histogram keys (K x d) and vectors
(K x d*aux, per circuit of a batch that shares its step kinds): a gate is a
matrix product per circuit, and a query shifts the live keys and merges
duplicates once per batch through a mixed-radix code, in lexicographic order.
Every key sums to forward - inverse, so M(e - e') is read from a table
indexed by the difference of two keys' prefix codes, each product formed in
coordinate order; the codes serve every bias of one call.

``brute_force_average`` checks that average independently by enumerating
every oracle of a small ensemble. Circuits are read from and written to a
line text format (``circuit_from_text``, ``circuit_to_text``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DimensionError, ParameterError, QuerylabError, ResourceLimitError
from .linalg import DensityMatrix, checked_unitary
from .phases import moment_table, pmf_vector

__all__ = [
    "FixedGate",
    "ForwardQuery",
    "InverseQuery",
    "QueryCircuit",
    "PurifiedState",
    "run_purified",
    "average_density",
    "brute_force_average",
    "circuit_to_text",
    "circuit_from_text",
    "DEFAULT_KEY_CAP",
]

DEFAULT_KEY_CAP = 500_000


@dataclass(frozen=True)
class FixedGate:
    """A unitary on the full R x S space, stored dense."""

    matrix: np.ndarray

    def __post_init__(self):
        m = checked_unitary(self.matrix, "fixed gate")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


class ForwardQuery:
    """Marker step: apply the unknown oracle."""

    def __repr__(self):
        return "ForwardQuery()"


class InverseQuery:
    """Marker step: apply the unknown oracle's inverse."""

    def __repr__(self):
        return "InverseQuery()"


FORWARD = ForwardQuery()
INVERSE = InverseQuery()


@dataclass(frozen=True)
class QueryCircuit:
    """Ordered steps over a dimension-d query register and a workspace."""

    d: int
    aux_dim: int
    steps: tuple

    def __post_init__(self):
        d = int(self.d)
        aux = int(self.aux_dim)
        if d < 1 or aux < 1:
            raise ParameterError(f"register dimensions must be >= 1, got d={d}, aux={aux}")
        steps = tuple(self.steps)
        for s in steps:
            if isinstance(s, FixedGate):
                if s.matrix.shape[0] != d * aux:
                    raise DimensionError(
                        f"gate of dimension {s.matrix.shape[0]} in a circuit of total dimension {d * aux}"
                    )
            elif not isinstance(s, (ForwardQuery, InverseQuery)):
                raise ParameterError(f"unknown step type {type(s)!r}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "aux_dim", aux)
        object.__setattr__(self, "steps", steps)

    @property
    def skeleton(self) -> tuple:
        """What the circuits of one `run_purified` batch share: d, aux and the step kinds."""
        return (self.d, self.aux_dim, tuple(type(s) for s in self.steps))

    @property
    def forward_count(self) -> int:
        return sum(isinstance(s, ForwardQuery) for s in self.steps)

    @property
    def inverse_count(self) -> int:
        return sum(isinstance(s, InverseQuery) for s in self.steps)


@dataclass(frozen=True)
class PurifiedState:
    """Exponent histograms and their component vectors, as two aligned arrays.

    Row k of ``keys`` (K x d, int64) is one histogram e; row k of ``vectors``
    (K x d*aux, complex) is the part of the output state that acquired the
    monomial ``prod_i U_i^{e_i}``. Rows are in lexicographic key order.
    A batch of states that share their keys (see `run_purified`) holds
    ``vectors`` with a leading state axis (B x K x d*aux).
    """

    d: int
    aux_dim: int
    keys: np.ndarray
    vectors: np.ndarray
    forward_count: int
    inverse_count: int

    @property
    def key_count(self) -> int:
        return len(self.keys)

    @property
    def forward_only(self) -> bool:
        return self.inverse_count == 0

    def total_mass(self):
        """The squared norm of the state, or an array of one per state of a batch."""
        return (self.vectors.real ** 2 + self.vectors.imag ** 2).sum(axis=(-2, -1))

    def validate(self):
        """Assert the histogram invariants; returns self for chaining."""
        for b, mass in enumerate(np.atleast_1d(self.total_mass())):
            if not abs(mass - 1.0) <= 1e-10:
                which = f" of state {b}" if self.vectors.ndim == 3 else ""
                raise QuerylabError(f"purified mass {mass!r}{which} drifted from 1")
        net = self.forward_count - self.inverse_count
        bad = self.keys.sum(axis=1) != net
        if bad.any():
            e = tuple(self.keys[bad.argmax()].tolist())
            raise QuerylabError(f"histogram key {e} does not sum to {net}")
        if self.forward_only and (self.keys < 0).any():
            e = tuple(self.keys[(self.keys < 0).any(axis=1).argmax()].tolist())
            raise QuerylabError(f"negative exponent in forward-only key {e}")
        # strictly increasing keys: the first nonzero coordinate step is positive
        step = np.diff(self.keys, axis=0)
        lead = np.take_along_axis(step, (step != 0).argmax(axis=1)[:, None], axis=1)
        if (lead <= 0).any():
            k = int((lead <= 0).argmax())
            raise QuerylabError(
                f"histogram keys {tuple(self.keys[k].tolist())} and "
                f"{tuple(self.keys[k + 1].tolist())} are not in strictly increasing order")
        return self


def _lex_unique(keys: np.ndarray) -> tuple:
    # (one source row of each distinct key, in lexicographic key order; each
    # row's position among the distinct keys). np.unique sorts: a mixed-radix
    # code with coordinate 0 most significant when it fits in int64, else the
    # rows themselves, compared coordinate by coordinate
    lo = keys.min(axis=0)
    radix = (keys.max(axis=0) - lo + 1).tolist()
    if math.prod(radix) < 2**63:
        strides = np.cumprod([1] + radix[:0:-1])[::-1].astype(np.int64)
        _, first, inverse = np.unique((keys - lo) @ strides,
                                      return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def run_purified(circuits, key_cap: int = DEFAULT_KEY_CAP) -> PurifiedState:
    """Evolve the histogram decomposition of circuit runs from |0>, exactly.

    ``circuits`` is one circuit, or a sequence of circuits that share a
    `QueryCircuit.skeleton`, evolved as one batch through one key array (the
    state's vectors gain a leading axis, as `average_density` reads them). A
    gate multiplies each member's vectors by that member's own matrix. A
    forward query splits each component by query-register index x and
    increments that key coordinate (inverse queries decrement); only nonzero
    rows make keys, found and merged into lexicographic order once for the
    whole batch. Destination (key, x) slots have exactly one source, key
    minus the shift at x, so each slot is written once, as that row added to
    zero. Where a member's nonzero rows differ from the first member's, the
    batch splits: the state keeps the members before it, each with exactly
    the keys and vectors it gets alone, and the caller runs the rest again.
    Exceeding ``key_cap`` histogram keys raises a resource error rather than
    pruning. Another start state is a leading `FixedGate`.
    """
    single = isinstance(circuits, QueryCircuit)
    batch = [circuits] if single else list(circuits)
    lead = batch[0]
    if any(c.skeleton != lead.skeleton for c in batch[1:]):
        raise QuerylabError("a batch of circuits must share d, aux and step kinds")
    d, aux = lead.d, lead.aux_dim
    keys = np.zeros((1, d), dtype=np.int64)
    vecs = np.tile(np.eye(1, d * aux, dtype=complex), (len(batch), 1, 1))
    for t, step in enumerate(lead.steps):
        if isinstance(step, FixedGate):
            out = np.empty_like(vecs)
            for v, o, c in zip(vecs, out, batch):
                np.matmul(v, c.steps[t].matrix.T, out=o)
            vecs = out
            continue
        delta = 1 if isinstance(step, ForwardQuery) else -1
        rows = vecs.reshape(len(batch), -1, d, aux)
        live = rows.any(axis=3)
        same = (live == live[0]).all(axis=(1, 2))
        keep = len(batch) if same.all() else int(same.argmin())
        batch, rows = batch[:keep], rows[:keep]
        src, x = np.nonzero(live[0])
        shifted = keys[src]
        shifted[np.arange(len(src)), x] += delta
        first, dest = _lex_unique(shifted)
        if len(first) > key_cap:
            raise ResourceLimitError(
                f"purified run produced {len(first)} histogram keys, above the cap {key_cap}"
            )
        keys = shifted[first]
        out = np.zeros((keep, len(first), d, aux), dtype=complex)
        out[:, dest, x] += rows[:, src, x]
        vecs = out.reshape(keep, len(first), d * aux)
    # laid out as B x d*aux x K, so `average_density` reads the stacked rows without a copy
    vecs = vecs.transpose(0, 2, 1).copy().transpose(0, 2, 1)
    return PurifiedState(d, aux, keys, vecs[0] if single else vecs,
                         lead.forward_count, lead.inverse_count)


# Row block and column tile widths of `average_density`.
_BLOCK = 512
_TILE = 64


def _moment_weights(expo: np.ndarray, span: int, budget: int, tile: int):
    """weights_for(table) -> weights(rows, cols) -> M(e_r - e_c) for slices of the keys.

    ``table`` holds one bias's moments of the powers -span..span; each
    coordinate's moment is multiplied in index order, ((1*t[m_0])*t[m_1])...,
    as a per-coordinate loop would. The longest prefix of the coordinates whose
    table fits in ``budget`` entries is difference-coded: the difference of two
    keys' mixed-radix codes indexes a per-bias table of the prefix's moment
    products. Every key sums to the same net count, so a full prefix of d - 1
    coordinates also folds in the implied last factor; other coordinates are
    multiplied in one by one. The codes and buffers (the prefix table, tiles of
    at most ``tile`` weights) serve every bias: a weights function holds until
    the next weights_for call, a tile until the next weights call.
    """
    d = expo.shape[1]
    spans = (expo.max(axis=0) - expo.min(axis=0)).tolist()
    prefix, size = 0, 1
    while prefix < d - 1 and size * (2 * spans[prefix] + 1) <= budget:
        size *= 2 * spans[prefix] + 1
        prefix += 1
    digits = [np.arange(-spans[i], spans[i] + 1) for i in range(prefix)]
    radices = [len(m) for m in digits]
    strides = np.array([math.prod(radices[i + 1:]) for i in range(prefix)], dtype=np.int64)
    codes = expo[:, :prefix] @ strides
    row_codes = codes + int(np.dot(spans[:prefix], strides))
    # prefix digit indices summing to k imply the last difference total - k, at
    # table[fold[k]] (exactly 1 at d = 1); sums no key pair realizes go unread
    total = sum(spans[:prefix])
    fold = np.clip(np.arange(total, -total - 1, -1), -span, span) + span
    done = d if prefix == d - 1 else prefix
    prod_buf, index, gathered = np.empty(size), np.empty(tile, dtype=np.int64), np.empty(tile)

    def weights_for(table: np.ndarray):
        prod = np.ones(1)
        for i, m in enumerate(digits):
            # only the last, full-size product goes to the shared buffer: an
            # output that overlaps its input costs numpy a temporary copy
            last = prod_buf.reshape(prod.size, m.size) if i == len(digits) - 1 else None
            prod = np.outer(prod, table[m + span], out=last).reshape(-1)
        if done > prefix > 0:  # fold[k] is read with a unit step per digit index
            lane, by_digit = table[fold], prod.reshape(radices)
            by_digit *= as_strided(lane, radices, lane.strides * prefix, writeable=False)

        def weights(rows: slice, cols: slice) -> np.ndarray:
            r, c = row_codes[rows], codes[cols]
            idx = np.subtract.outer(r, c, out=index[:r.size * c.size].reshape(r.size, c.size))
            # codes of two keys differ by a valid index, so "clip" skips only the bounds check
            w = prod.take(idx, out=gathered[:idx.size].reshape(idx.shape), mode="clip")
            for i in range(done, d):
                w *= table[(expo[rows, i, None] - expo[None, cols, i]) + span]
            return w

        return weights

    return weights_for


def average_density(p: PurifiedState, eps, q: int):
    """Moment-weighted double sum over histogram keys, in fixed row blocks.

    ``eps`` is one bias (returns a DensityMatrix) or a sequence of biases
    (returns a list, one per bias). A batch of states (see `run_purified`)
    returns a list with that result for each state; a single state is a
    batch of one. Every bias shares one difference code and
    one set of buffers (see `_moment_weights`); each builds only its own
    prefix table. Each block of `_BLOCK` rows gathers its weights in tiles of
    `_TILE` columns, once for the whole batch: one product multiplies each
    tile by every state's vectors, stacked as rows, and each state's block of
    its density is then its own row slice times its conjugate vectors. Column
    tiles and stacked rows keep every element's reduction order and the row
    blocks fix it, so a density has the same bits whether its bias comes
    alone or in a sequence and its state alone or in a batch. At bias 0 every
    moment of a nonzero power below q vanishes, so when the keys span less
    than q the weights are the identity: a row block's product is then its
    own columns of the stacked rows, copied with the same bits (+ 0.0 turns
    -0 into +0, as the products' sums do), and no weight is built.
    """
    expo = p.keys
    if not p.key_count:
        raise QuerylabError("empty purified state")
    nkeys = len(expo)
    dim = p.vectors.shape[-1]
    batch = p.vectors.reshape(-1, nkeys, dim)
    # row b*dim + i is column i of state b's vectors: a view for a stacked batch
    stacked = batch.transpose(0, 2, 1).reshape(-1, nkeys)
    conj = batch.conj()
    span = int(expo.max() - expo.min())
    block = min(_BLOCK, nkeys)
    weights_for = _moment_weights(expo, span, block * nkeys, block * min(_TILE, nkeys))
    part = np.empty((len(stacked), nkeys), dtype=complex)
    by_bias = []
    for bias in np.atleast_1d(eps):
        identity = bias == 0 and span < q
        weights = None if identity else weights_for(moment_table(float(bias), int(q), span))
        rho = np.zeros((len(batch), dim, dim), dtype=complex)
        for a in range(0, nkeys, _BLOCK):
            rows = slice(a, min(a + _BLOCK, nkeys))
            if identity:
                part.fill(0)
                np.add(stacked[:, rows], 0.0, out=part[:, rows])
            else:
                for c in range(0, nkeys, _TILE):
                    cols = slice(c, min(c + _TILE, nkeys))
                    part[:, cols] = stacked[:, rows] @ weights(rows, cols)
            rho += part.reshape(len(batch), dim, nkeys) @ conj
        rho = (rho + rho.conj().transpose(0, 2, 1)) / 2
        by_bias.append([DensityMatrix(r) for r in rho])
    out = [list(per_state) if np.ndim(eps) else per_state[0] for per_state in zip(*by_bias)]
    return out if p.vectors.ndim == 3 else out[0]


def _dense_run(circuit: QueryCircuit, phases: np.ndarray, start: np.ndarray) -> np.ndarray:
    v = start
    d, aux = circuit.d, circuit.aux_dim
    for step in circuit.steps:
        if isinstance(step, FixedGate):
            v = step.matrix @ v
        else:
            p = phases if isinstance(step, ForwardQuery) else phases.conj()
            v = (v.reshape(d, aux) * p[:, None]).reshape(-1)
    return v


def brute_force_average(circuit: QueryCircuit, eps: float, q: int) -> DensityMatrix:
    """Independent oracle: enumerate all q^d diagonal oracles and average.

    Every run starts at |0>. Guarded to q^d <= 10^4 enumerated oracles.
    """
    q = int(q)
    if q ** circuit.d > 10**4:
        raise ResourceLimitError(
            f"brute force would enumerate q^d = {q ** circuit.d} oracles (cap 10^4)"
        )
    dim = circuit.d * circuit.aux_dim
    start = np.eye(1, dim, dtype=complex)[0]
    pmf = pmf_vector(eps, q)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    rho = np.zeros((dim, dim), dtype=complex)
    for assignment in itertools.product(range(q), repeat=circuit.d):
        weight = float(np.prod(pmf[list(assignment)]))
        if weight == 0.0:
            continue
        out = _dense_run(circuit, roots[list(assignment)], start)
        rho += weight * np.outer(out, out.conj())
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho)


def _format_complex(z: complex) -> str:
    return f"{float(z.real)!r},{float(z.imag)!r}"


def _parse_complex(tok: str, line_no: int) -> complex:
    try:
        re_s, im_s = tok.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise ConfigError(f"bad complex entry {tok!r}", line=line_no) from exc


def circuit_to_text(circuit: QueryCircuit, q: int) -> str:
    """Line format: header ``d q aux``, then ``G <entries>`` / ``Q+`` / ``Q-``.

    Gate entries are row-major ``re,im`` pairs printed with repr precision,
    so serialization round-trips bit-exactly.
    """
    lines = [f"{circuit.d} {int(q)} {circuit.aux_dim}"]
    for step in circuit.steps:
        if isinstance(step, ForwardQuery):
            lines.append("Q+")
        elif isinstance(step, InverseQuery):
            lines.append("Q-")
        else:
            ent = " ".join(_format_complex(z) for z in step.matrix.reshape(-1))
            lines.append(f"G {ent}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> tuple:
    """Parse the line format back into ``(QueryCircuit, q)``."""
    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].strip():
        raise ConfigError("empty circuit text", line=1)
    head = lines[0].split()
    if len(head) != 3:
        raise ConfigError(f"header must be 'd q aux', got {lines[0]!r}", line=1)
    try:
        d, q, aux = (int(x) for x in head)
    except ValueError as exc:
        raise ConfigError(f"non-integer header field in {lines[0]!r}", line=1) from exc
    if d < 1 or q < 2 or aux < 1:
        raise ConfigError(f"header needs d >= 1, q >= 2 and aux >= 1, got {lines[0]!r}", line=1)
    steps = []
    for idx, ln in enumerate(lines[1:], start=2):
        s = ln.strip()
        if not s:
            continue
        if s == "Q+":
            steps.append(FORWARD)
        elif s == "Q-":
            steps.append(INVERSE)
        elif s.startswith("G"):
            toks = s[1:].split()
            dim = d * aux
            if len(toks) != dim * dim:
                raise ConfigError(
                    f"gate line has {len(toks)} entries, expected {dim * dim}", line=idx
                )
            mat = np.array([_parse_complex(t, idx) for t in toks]).reshape(dim, dim)
            steps.append(FixedGate(mat))
        else:
            raise ConfigError(f"unknown step line {s!r}", line=idx)
    return QueryCircuit(d, aux, tuple(steps)), q
