"""Circuit family generators: structure, probe amplitudes, scaling behaviour."""

import numpy as np
import pytest

from querylab.ensembles import DiagonalOracle, draw, normalized_trace
from querylab.errors import ParameterError
from querylab.experiments import advantage_profile
from querylab.families import (
    flag_flip_matrix,
    grover_iterate_circuit,
    matched_forward_circuit,
    random_interleaved_circuit,
)
from querylab.query_sim import DEFAULT_KEY_CAP, FixedGate, ForwardQuery
from reference import dense_probe_matrix, oracle_values


def run_with_oracle(circuit, oracle: DiagonalOracle) -> np.ndarray:
    """Apply the circuit to |0,0> with a concrete diagonal oracle plugged in."""
    v = np.eye(1, circuit.d * circuit.aux_dim, dtype=complex)[0]
    dims = (circuit.d, circuit.aux_dim)
    for step in circuit.steps:
        if isinstance(step, FixedGate):
            v = step.matrix @ v
        else:
            phases = oracle_values(oracle)
            if not isinstance(step, ForwardQuery):
                phases = phases.conj()
            v = (v.reshape(dims) * phases[:, None]).reshape(-1)
    return v


def test_flag_flip_swaps_first_pair():
    z = flag_flip_matrix(3)
    v = np.arange(6.0)
    w = z @ v
    assert w[0] == 1.0 and w[1] == 0.0
    assert np.array_equal(w[2:], v[2:])
    assert np.array_equal(z @ z, np.eye(6))


@pytest.mark.parametrize(
    "n,fwd,inv",
    [(1, 1, 0), (2, 1, 1), (3, 2, 1), (4, 2, 2), (7, 4, 3), (8, 4, 4)],
)
def test_grover_family_query_budget(n, fwd, inv):
    c = grover_iterate_circuit(4, n)
    assert c.forward_count + c.inverse_count == n
    assert c.forward_count == fwd
    assert c.inverse_count == inv
    assert c.aux_dim == 2


def test_grover_family_rejects_zero_budget():
    with pytest.raises(ParameterError):
        grover_iterate_circuit(4, 0)


def test_single_query_probe_amplitude_is_normalized_trace():
    # after the preparation alone, the flagged component |0,1> carries ntr(U)
    rng = np.random.default_rng(7)
    oracle = draw(0.3, 5, 8, rng)
    out = run_with_oracle(grover_iterate_circuit(5, 1), oracle)
    assert abs(out[1] - normalized_trace(oracle)) < 1e-10
    flagged = out[1::2]
    assert abs(np.linalg.norm(flagged) - abs(normalized_trace(oracle))) < 1e-10


@pytest.mark.parametrize("d", [3, 5])
def test_dense_probe_matches_one_query_circuit(d):
    # the dense trace probe and the one-query iterate circuit share their
    # probe pieces, so the probe's first column is the circuit's output
    oracle = draw(0.3, d, 8, np.random.default_rng(d))
    column = dense_probe_matrix(oracle, "trace")[:, 0]
    out = run_with_oracle(grover_iterate_circuit(d, 1), oracle)
    assert np.abs(column - out).max() < 1e-12


def test_probe_run_stays_normalized():
    rng = np.random.default_rng(3)
    oracle = draw(0.2, 4, 8, rng)
    for n in (1, 2, 3, 6):
        out = run_with_oracle(grover_iterate_circuit(4, n), oracle)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_iterates_amplify_flagged_mass():
    # one full iterate boosts the flagged probability of a small amplitude
    rng = np.random.default_rng(11)
    oracle = draw(0.25, 4, 8, rng)
    p = []
    for n in (1, 3):
        out = run_with_oracle(grover_iterate_circuit(4, n), oracle)
        p.append(np.sum(np.abs(out[1::2]) ** 2))
    a = abs(normalized_trace(oracle))
    theta = np.arcsin(min(1.0, a))
    assert abs(p[0] - np.sin(theta) ** 2) < 1e-10
    assert abs(p[1] - np.sin(3 * theta) ** 2) < 1e-10


def test_matched_twin_same_skeleton_forward_only():
    c = grover_iterate_circuit(4, 6)
    t = matched_forward_circuit(4, 6)
    assert t.forward_only
    assert t.forward_count + t.inverse_count == c.forward_count + c.inverse_count == 6
    assert len(t.steps) == len(c.steps)
    for a, b in zip(c.steps, t.steps):
        if isinstance(a, FixedGate):
            assert isinstance(b, FixedGate)
            assert np.array_equal(a.matrix, b.matrix)
        else:
            assert isinstance(b, ForwardQuery)


def test_random_interleaved_structure():
    rng = np.random.default_rng(0)
    c = random_interleaved_circuit(3, 2, "++-+", rng)
    assert c.forward_count == 3
    assert c.inverse_count == 1
    assert len(c.steps) == 9
    with pytest.raises(ParameterError):
        random_interleaved_circuit(3, 2, "+x", rng)


def test_random_interleaved_deterministic():
    a = random_interleaved_circuit(3, 2, "++", np.random.default_rng(42))
    b = random_interleaved_circuit(3, 2, "++", np.random.default_rng(42))
    for sa, sb in zip(a.steps, b.steps):
        if isinstance(sa, FixedGate):
            assert np.array_equal(sa.matrix, sb.matrix)


def test_forward_family_advantage_scales_quadratically():
    """Max advantage of a forward-only family drops as bias squared.

    The inverse-using family's exponent over the same grid is reported to
    stdout for inspection rather than asserted; see the quadratic ceiling
    note in the experiments module.
    """
    eps_grid = [0.05, 0.1, 0.2]
    d, q, n = 3, 8, 3
    rng = np.random.default_rng(2024)
    circuits = [random_interleaved_circuit(d, 2, "+" * n, rng) for _ in range(8)]
    circuits.append(matched_forward_circuit(d, n))
    profiles = [advantage_profile(c, eps_grid, q, DEFAULT_KEY_CAP)[1] for c in circuits]
    best = np.max(profiles, axis=0)
    slope = np.polyfit(np.log(eps_grid), np.log(best), 1)[0]
    assert 1.85 <= slope <= 2.15

    _, inv_best = advantage_profile(grover_iterate_circuit(4, 6), eps_grid, q, DEFAULT_KEY_CAP)
    inv_slope = np.polyfit(np.log(eps_grid), np.log(inv_best), 1)[0]
    print(f"\ninverse-family advantage exponent over eps {eps_grid}: {inv_slope:.3f}")
