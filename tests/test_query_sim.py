import dataclasses
import tracemalloc

import numpy as np
import pytest

from querylab import query_sim
from querylab.blas import one_blas_thread
from querylab.errors import ConfigError, ParameterError, QuerylabError, ResourceLimitError
from querylab.experiments import advantage_profile
from querylab.families import (
    grover_iterate_circuit,
    matched_forward_circuit,
    random_interleaved_circuit,
)
from querylab.linalg import dft_matrix, random_unitary, trace_distance
from querylab.phases import moment_table
from querylab.query_sim import (
    DEFAULT_KEY_CAP,
    FORWARD,
    INVERSE,
    FixedGate,
    PurifiedState,
    QueryCircuit,
    average_density,
    brute_force_average,
    circuit_from_text,
    circuit_to_text,
    run_purified,
)
from reference import biased_ft_rotate, density, moment_gram


def random_circuit(d, aux, pattern, rng):
    """Fixed gates interleaved with the given query pattern ('+'/'-')."""
    steps = [FixedGate(random_unitary(d * aux, rng))]
    for ch in pattern:
        steps.append(FORWARD if ch == "+" else INVERSE)
        steps.append(FixedGate(random_unitary(d * aux, rng)))
    return QueryCircuit(d, aux, tuple(steps))


def components(p):
    """{histogram key tuple: component vector} of the first state of a batch."""
    return dict(zip(map(tuple, p.keys.tolist()), p.vectors[0]))


def from_uniform(d, *steps):
    """A workspace-free circuit that first prepares the uniform state.

    Column 0 of the DFT is exactly 1/sqrt(d) in every entry.
    """
    return QueryCircuit(d, 1, (FixedGate(dft_matrix(d)),) + steps)


class TestQueryCircuit:
    def test_counts_and_flags(self):
        c = QueryCircuit(2, 1, (FORWARD, INVERSE, FORWARD))
        assert c.forward_count == 2
        assert c.inverse_count == 1

    def test_gate_dimension_checked(self):
        with pytest.raises(Exception):
            QueryCircuit(2, 2, (FixedGate(np.eye(3)),))

    def test_initial_state(self):
        # every run starts at the basis vector |0>|0>
        e0 = np.eye(6)[0]
        state = run_purified([QueryCircuit(3, 2, ())])
        assert state.keys.tolist() == [[0, 0, 0]]
        assert np.array_equal(state.vectors, e0[None, None, :])
        rho = brute_force_average(QueryCircuit(3, 2, ()), 0.1, 4)
        assert np.abs(rho.entries - np.outer(e0, e0)).max() < 1e-12


def reference_purify(circuit):
    """The dict-of-tuples loop: (keys in lexicographic order, stacked vectors)."""
    d, aux = circuit.d, circuit.aux_dim
    comps = {(0,) * d: np.eye(1, d * aux, dtype=complex)[0]}
    for step in circuit.steps:
        if isinstance(step, FixedGate):
            keys = list(comps)
            block = np.stack([comps[k] for k in keys]) @ step.matrix.T
            comps = {k: block[i] for i, k in enumerate(keys)}
            continue
        delta = 1 if step is FORWARD else -1
        new = {}
        for e, v in comps.items():
            for x, row in enumerate(v.reshape(d, aux)):
                if row.any():
                    ke = e[:x] + (e[x] + delta,) + e[x + 1:]
                    new.setdefault(ke, np.zeros((d, aux), dtype=complex))[x] += row
        comps = {k: v.reshape(-1) for k, v in new.items()}
    keys = sorted(comps)
    return np.array(keys, dtype=np.int64), np.stack([comps[k] for k in keys])


class TestRunPurified:
    @pytest.mark.parametrize("build", [
        lambda rng: random_interleaved_circuit(5, 2, "+" * 6, rng),
        lambda rng: random_interleaved_circuit(3, 2, "+-+-+", rng),
        lambda rng: random_interleaved_circuit(12, 2, "++", rng),
        lambda rng: grover_iterate_circuit(4, 8),
        lambda rng: from_uniform(3, FORWARD, INVERSE, FORWARD),
    ], ids=["random-d5-6fwd", "random-d3-mixed", "random-d12-2fwd", "grover-4-8",
            "uniform-d3-fwd-inv-fwd"])
    def test_bit_identical_to_dict_loop(self, build):
        c = build(np.random.default_rng(12))
        keys, vecs = reference_purify(c)
        p = run_purified([c])
        assert np.array_equal(p.keys, keys)
        assert p.vectors.shape == (1, *vecs.shape)
        assert p.vectors.tobytes() == vecs.tobytes()  # signed zeros too

    def test_zero_query_single_key(self):
        rng = np.random.default_rng(1)
        g = random_unitary(4, rng)
        c = QueryCircuit(2, 2, (FixedGate(g),))
        p = run_purified([c]).validate()
        assert p.key_count == 1
        assert np.abs(components(p)[(0, 0)] - g[:, 0]).max() < 1e-12

    def test_single_forward_on_uniform(self):
        p = run_purified([from_uniform(2, FORWARD)]).validate()
        assert set(components(p)) == {(1, 0), (0, 1)}
        for v in p.vectors[0]:
            assert np.vdot(v, v).real == pytest.approx(0.5, abs=1e-12)

    def test_forward_then_inverse_cancels(self):
        p = run_purified([from_uniform(2, FORWARD, INVERSE)]).validate()
        assert set(components(p)) == {(0, 0)}
        assert np.abs(components(p)[(0, 0)] - dft_matrix(2)[:, 0]).max() < 1e-12

    def test_mass_preserved_and_sum_law(self):
        rng = np.random.default_rng(7)
        c = random_circuit(3, 2, "++-+", rng)
        p = run_purified([c]).validate()
        assert p.total_mass() == pytest.approx([1.0], abs=1e-10)
        assert (p.keys.sum(axis=1) == 2).all()  # pattern ++-+: 3 forward, 1 inverse

    def test_forward_only_keys_nonnegative(self):
        rng = np.random.default_rng(8)
        c = random_circuit(2, 2, "+++", rng)
        p = run_purified([c]).validate()
        assert (p.keys >= 0).all()
        assert (p.keys.sum(axis=1) == 3).all()

    def test_wide_keys_merge_without_a_fitting_code(self):
        # 64 coordinates with 3 values each: no int64 mixed-radix code fits
        rng = np.random.default_rng(10)
        c = random_circuit(64, 1, "++", rng)
        p = run_purified([c]).validate()
        assert p.key_count == 64 * 65 // 2
        assert len({tuple(k) for k in p.keys.tolist()}) == p.key_count

    def test_key_cap(self):
        rng = np.random.default_rng(9)
        c = random_circuit(3, 1, "+++", rng)
        with pytest.raises(ResourceLimitError):
            run_purified([c], key_cap=5)

    @pytest.mark.parametrize("build", [
        lambda rng: random_interleaved_circuit(4, 2, "+" * 5, rng),
        lambda rng: random_interleaved_circuit(3, 2, "+-+-+", rng),
        lambda rng: grover_iterate_circuit(4, 8),
        # 64 coordinates: the only case that merges through np.unique(axis=0)
        lambda rng: random_circuit(64, 1, "++", rng),
        lambda rng: random_circuit(64, 1, "+-", rng),
    ], ids=["random-d4-5fwd", "random-d3-mixed", "grover-4-8", "random-d64-2fwd",
            "random-d64-fwd-inv"])
    def test_keys_strictly_increasing(self, build):
        p = run_purified([build(np.random.default_rng(33))]).validate()
        assert [tuple(k) for k in p.keys.tolist()] == sorted({tuple(k) for k in p.keys.tolist()})

    def test_validate_rejects_out_of_order_keys(self):
        p = run_purified([random_interleaved_circuit(3, 2, "+-+", np.random.default_rng(34))])
        keys, vecs = p.keys.copy(), p.vectors.copy()
        keys[[1, 2]], vecs[:, [1, 2]] = keys[[2, 1]], vecs[:, [2, 1]]
        swapped = PurifiedState(p.d, p.aux_dim, keys, vecs, p.forward_count, p.inverse_count)
        with pytest.raises(QuerylabError, match="increasing order"):
            swapped.validate()


class TestAverageDensity:
    def test_zero_query_pure_projector(self):
        rng = np.random.default_rng(2)
        g = random_unitary(4, rng)
        c = QueryCircuit(2, 2, (FixedGate(g),))
        p = run_purified([c])
        for eps in (0.0, 0.4):
            rho = density(p, eps, q=8)
            expect = np.outer(g[:, 0], g[:, 0].conj())
            assert np.abs(rho.entries - expect).max() < 1e-12

    def test_unbiased_forward_only_is_block_mixture(self):
        rng = np.random.default_rng(3)
        c = random_circuit(2, 2, "++", rng)
        p = run_purified([c])
        rho = density(p, 0.0, q=8)
        mix = sum(np.outer(v, v.conj()) for v in p.vectors[0])
        assert np.abs(rho.entries - mix).max() < 1e-12

    def test_matches_brute_force_random_instance(self, monkeypatch):
        rng = np.random.default_rng(4)
        c = random_circuit(2, 2, "++", rng)
        p = run_purified([c])
        assert p.key_count > 2  # block=2 reduces more than one row block
        want = brute_force_average(c, 0.3, q=3)
        for block in (512, 2):
            monkeypatch.setattr(query_sim, "_BLOCK", block)
            got = density(p, 0.3, q=3)
            assert np.abs(got.entries - want.entries).max() < 1e-10


def reference_average(p, eps, q, block=512):
    """The per-coordinate product loop over sorted keys, in 512-row blocks.

    Each weight is ((1*t[m_0])*t[m_1])*..., one coordinate at a time, and
    each block's weights are one dense row block.
    """
    comps = components(p)
    keys = sorted(comps)
    vecs = np.stack([comps[k] for k in keys])
    expo = np.array(keys, dtype=np.int64)
    span = int(expo.max() - expo.min())
    table = moment_table(float(eps), int(q), span)
    conj = vecs.conj()
    rho = np.zeros((vecs.shape[1],) * 2, dtype=complex)
    for a in range(0, len(keys), block):
        rows = expo[a:a + block]
        w = np.ones((len(rows), len(keys)))
        for i in range(expo.shape[1]):
            w *= table[(rows[:, i, None] - expo[None, :, i]) + span]
        rho += vecs[a:a + block].T @ w @ conj
    return (rho + rho.conj().T) / 2


def deep_forward_state():
    # d = 5, n = 10: 1,001 keys, so two row blocks of four weight tiles
    rng = np.random.default_rng(31)
    return run_purified([random_interleaved_circuit(5, 2, "+" * 10, rng)])


# Biases of one `average_density` call.
BIASES = [0.0, 0.05, 0.2]


class TestWeightPath:
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    def test_bit_identical_to_coordinate_loop(self, eps, monkeypatch):
        wide = run_purified([random_interleaved_circuit(12, 2, "++", np.random.default_rng(32))])
        cases = [
            (deep_forward_state(), 16, 1001, 512),
            # inverse queries: keys with negative exponents
            (run_purified([grover_iterate_circuit(4, 8)]), 16, 309, 512),
            # 78 keys over 12 coordinates: a full code table would hold 5^11
            # entries, far above one row block, so the prefix stops short
            (wide, 8, 78, 512),
            # 7-row blocks: a smaller table budget, and four row blocks
            (run_purified([grover_iterate_circuit(3, 5)]), 8, 27, 7),
        ]
        for p, q, keys, block in cases:
            assert p.key_count == keys
            monkeypatch.setattr(query_sim, "_BLOCK", block)
            got = density(p, eps, q).entries
            assert np.array_equal(got, reference_average(p, eps, q, block=block))
            # several biases share one difference code
            [rhos] = average_density(p, BIASES, q)
            for bias, rho in zip(BIASES, rhos):
                assert np.array_equal(rho.entries, reference_average(p, bias, q, block=block))

    def test_traced_peak_of_one_average(self):
        p = deep_forward_state()
        moment_table(0.1, 16, 10)  # the shared, cached table is not per call
        tracemalloc.start()
        try:
            average_density(p, [0.1], 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_traced_peak_of_five_biases(self):
        # one prefix table alive at a time: five biases cost no more than one
        p = deep_forward_state()
        biases = [0.0, 0.02, 0.05, 0.1, 0.2]
        for bias in biases:
            moment_table(bias, 16, 10)
        tracemalloc.start()
        try:
            average_density(p, biases, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def same_key_states(d, n, count, seed):
    """``count`` purified random interleaved circuits of one (d, n) cell."""
    rng = np.random.default_rng(seed)
    return [run_purified([random_interleaved_circuit(d, 2, "+" * n, rng)]) for _ in range(count)]


def batch_of(states):
    """One batch of states that share their keys, joined by hand."""
    return dataclasses.replace(states[0], vectors=np.concatenate([s.vectors for s in states]))


class TestBatch:
    CASES = [
        # 1,001 keys: two row blocks
        pytest.param(lambda: same_key_states(5, 10, 3, 40), 16, 512, id="deep"),
        # the matched forward circuit shares its 165 keys with random circuits
        pytest.param(lambda: [run_purified([matched_forward_circuit(4, 8)]),
                              *same_key_states(4, 8, 2, 41)], 16, 512, id="matched"),
        # 21 keys in 7-row blocks: three row blocks
        pytest.param(lambda: same_key_states(3, 5, 4, 42), 8, 7, id="block7"),
    ]

    @pytest.mark.parametrize("states,q,block", CASES)
    def test_batch_equals_per_state_calls_bit_for_bit(self, states, q, block, monkeypatch):
        states = states()
        assert len({s.key_count for s in states}) == 1
        monkeypatch.setattr(query_sim, "_BLOCK", block)
        batch = batch_of(states)
        # at one OpenBLAS thread, as every unit runs: more threads split a
        # product by its shape, so a taller stack could move the last bits
        with one_blas_thread():
            for state, [rho] in zip(states, average_density(batch, [0.05], q)):
                assert np.array_equal(rho.entries, density(state, 0.05, q).entries)
            for state, rhos in zip(states, average_density(batch, BIASES, q)):
                [alone] = average_density(state, BIASES, q)
                assert len(rhos) == len(BIASES)
                assert all(np.array_equal(a.entries, b.entries) for a, b in zip(rhos, alone))

    def test_batch_needs_one_skeleton(self):
        rng = np.random.default_rng(40)
        deep = random_interleaved_circuit(5, 2, "+" * 10, rng)
        with pytest.raises(QuerylabError, match="must share d, aux and step kinds"):
            run_purified([deep, random_interleaved_circuit(4, 2, "+" * 8, rng)])
        # the same dimensions and query counts, in another order
        with pytest.raises(QuerylabError, match="must share d, aux and step kinds"):
            run_purified([random_interleaved_circuit(3, 2, "+-+", rng),
                          random_interleaved_circuit(3, 2, "-++", rng)])

    def test_traced_peak_of_one_batch_of_circuits(self):
        # one unit of the separation-deep grid: five d = 5, n = 10 circuits
        rng = np.random.default_rng(43)
        circuits = [random_interleaved_circuit(5, 2, "+" * 10, rng) for _ in range(5)]
        biases = [0.02, 0.05, 0.1, 0.2]
        for bias in [0.0, *biases]:
            moment_table(bias, 16, 10)
        tracemalloc.start()
        try:
            profiles = advantage_profile(circuits, biases, 16, DEFAULT_KEY_CAP)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [keys for keys, _ in profiles] == [1001] * 5
        assert peak <= 8 * 2**20


def assert_members_as_alone(state, circuits):
    """Each member of a batch holds the keys and vectors, bit for bit, of its run alone."""
    assert state.vectors.shape[0] == len(circuits)
    for vectors, circuit in zip(state.vectors, circuits):
        alone = run_purified([circuit])
        assert state.key_count == alone.key_count
        assert np.array_equal(state.keys, alone.keys)
        assert vectors.tobytes() == alone.vectors[0].tobytes()  # signed zeros too


def with_identity_gate(circuit, index):
    """``circuit`` with its ``index``-th step, a gate, replaced by the identity."""
    steps = list(circuit.steps)
    steps[index] = FixedGate(np.eye(circuit.d * circuit.aux_dim))
    return QueryCircuit(circuit.d, circuit.aux_dim, tuple(steps))


class TestBatchedPurification:
    @pytest.mark.parametrize("count", [5, 1])
    def test_members_evolve_bit_for_bit_as_alone(self, count):
        rng = np.random.default_rng(44)
        circuits = [random_interleaved_circuit(5, 2, "+" * 10, rng) for _ in range(count)]
        state = run_purified(circuits).validate()
        assert state.key_count == 1001
        assert_members_as_alone(state, circuits)

    def test_a_member_whose_rows_diverge_ends_the_batch(self):
        rng = np.random.default_rng(45)
        haar = [random_interleaved_circuit(3, 2, "+++", rng) for _ in range(3)]
        # an identity first gate leaves one live row at the first query, and
        # an identity second gate one row per key at the second
        first, second = with_identity_gate(haar[1], 0), with_identity_gate(haar[1], 2)
        assert [run_purified([c]).key_count for c in (haar[1], first, second)] == [10, 6, 9]
        circuits = [haar[0], haar[1], first, second, haar[2]]
        state = run_purified(circuits)
        assert_members_as_alone(state, circuits[:2])
        assert_members_as_alone(run_purified(circuits[2:]), circuits[2:3])
        assert_members_as_alone(run_purified(circuits[3:]), circuits[3:4])
        assert_members_as_alone(run_purified([haar[2], second]), [haar[2]])
        # advantage_profile runs the rest again: each profile is that of its circuit alone
        with one_blas_thread():
            profiles = advantage_profile(circuits, [0.0, 0.1], 8, DEFAULT_KEY_CAP)
            alone = [advantage_profile([c], [0.0, 0.1], 8, DEFAULT_KEY_CAP)[0] for c in circuits]
        assert profiles == alone

    def test_interleaved_skeletons_keep_their_order(self):
        # the nine random twins run as two chunks of their skeleton's group,
        # after the iterate and before its matched twin, yet every profile
        # returns to its circuit's input position
        rng = np.random.default_rng(48)
        twins = [random_interleaved_circuit(4, 2, "+" * 8, rng) for _ in range(9)]
        circuits = [twins[0], grover_iterate_circuit(4, 8), twins[1],
                    matched_forward_circuit(4, 8), *twins[2:]]
        with one_blas_thread():
            profiles = advantage_profile(circuits, [0.05, 0.2], 16, DEFAULT_KEY_CAP)
            alone = [advantage_profile([c], [0.05, 0.2], 16, DEFAULT_KEY_CAP)[0]
                     for c in circuits]
        assert profiles == alone
        assert len({adv[0] for _, adv in profiles}) == len(circuits)

    def test_key_cap_exceeded_inside_a_batch_raises(self):
        rng = np.random.default_rng(9)
        circuits = [random_circuit(3, 1, "+++", rng) for _ in range(3)]
        with pytest.raises(ResourceLimitError, match="above the cap 5"):
            run_purified(circuits, key_cap=5)

    def test_batches_and_splits_match_the_brute_force_average(self):
        # seeded random circuits run in batches of 1-3 same-skeleton members:
        # every density at every bias equals the enumeration over all q^d
        # oracles. A member whose first gate is a permutation has one live
        # row at the first query, so at d >= 2 its batch splits there and
        # the rest runs again, as advantage_profile runs it
        rng = np.random.default_rng(35)
        biases = (0.0, 0.05, 0.3)
        densities = splits = 0
        for _ in range(80):
            q = int(rng.choice([2, 3, 4, 5, 7, 16]))
            d = int(rng.integers(1, 1 + max(k for k in range(1, 5) if q**k <= 700)))
            aux = int(rng.integers(1, 3))
            pattern = "".join(rng.choice(["+", "-"], size=int(rng.integers(1, 5))))
            batch = [random_circuit(d, aux, pattern, rng) for _ in range(int(rng.integers(1, 4)))]
            if len(batch) > 1 and rng.random() < 0.5:
                k = int(rng.integers(0, 2))
                steps = list(batch[k].steps)
                steps[0] = FixedGate(np.eye(d * aux)[rng.permutation(d * aux)])
                batch[k] = QueryCircuit(d, aux, tuple(steps))
            while batch:
                state = run_purified(batch)
                done = state.vectors.shape[0]
                splits += done < len(batch)
                for circuit, rhos in zip(batch, average_density(state, biases, q)):
                    for bias, rho in zip(biases, rhos):
                        ref = brute_force_average(circuit, bias, q)
                        assert np.abs(rho.entries - ref.entries).max() < 1e-10
                        densities += 1
                batch = batch[done:]
        assert splits >= 5
        assert densities >= 300

    def test_validate_checks_the_mass_of_each_state(self):
        rng = np.random.default_rng(46)
        state = run_purified([random_interleaved_circuit(3, 2, "++", rng) for _ in range(3)])
        assert state.validate().total_mass() == pytest.approx([1.0] * 3, abs=1e-10)
        vectors = state.vectors.copy()
        vectors[1] *= 1.1
        with pytest.raises(QuerylabError, match="of state 1 drifted from 1"):
            dataclasses.replace(state, vectors=vectors).validate()


def weight_tile_average(p, eps, q):
    """`average_density`'s weight-tile path at one bias, the bias-0 step never taken."""
    expo, batch = p.keys, p.vectors
    nkeys, dim = batch.shape[1:]
    stacked = batch.transpose(0, 2, 1).reshape(-1, nkeys)
    span = int(expo.max() - expo.min())
    block = min(query_sim._BLOCK, nkeys)
    weights = query_sim._moment_weights(expo, span, block * nkeys,
                                        block * min(query_sim._TILE, nkeys))(
        moment_table(float(eps), q, span))
    part = np.empty_like(stacked)
    rho = np.zeros((len(batch), dim, dim), dtype=complex)
    for a in range(0, nkeys, query_sim._BLOCK):
        rows = slice(a, min(a + query_sim._BLOCK, nkeys))
        for c in range(0, nkeys, query_sim._TILE):
            cols = slice(c, min(c + query_sim._TILE, nkeys))
            part[:, cols] = stacked[:, rows] @ weights(rows, cols)
        rho += part.reshape(len(batch), dim, nkeys) @ batch.conj()
    return (rho + rho.conj().transpose(0, 2, 1)) / 2


class TestBiasZero:
    @pytest.mark.parametrize("states,q,block", TestBatch.CASES + [
        pytest.param(lambda: [run_purified([grover_iterate_circuit(4, 8)])], 16, 512, id="inverse"),
        pytest.param(lambda: [run_purified([grover_iterate_circuit(3, 5)])], 8, 7, id="inverse7"),
    ])
    def test_identity_weights_give_the_weight_tile_bits(self, states, q, block, monkeypatch):
        states = states()
        monkeypatch.setattr(query_sim, "_BLOCK", block)
        for p in (states[0], batch_of(states)):
            assert int(p.keys.max() - p.keys.min()) < q
            got = [rho.entries for [rho] in average_density(p, [0.0], q)]
            want = weight_tile_average(p, 0.0, q)
            assert len(got) == len(want)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_spans_from_q_up_take_the_weight_tiles(self):
        # q = 2 and three forward queries: keys (3, 0) and (1, 2) differ by a
        # multiple of q in each coordinate, so bias 0 weights them by 1
        c = random_interleaved_circuit(2, 2, "+++", np.random.default_rng(47))
        p = run_purified([c])
        assert int(p.keys.max() - p.keys.min()) >= 2
        want = brute_force_average(c, 0.0, q=2).entries
        assert np.abs(density(p, 0.0, 2).entries - want).max() < 1e-10
        diagonal = sum(np.outer(v, v.conj()) for v in p.vectors[0])
        assert np.abs(diagonal - want).max() > 1e-6


def pair_terms(p, q):
    """(off-lattice count h, moment product at eps = 1) of every key pair.

    Every off-lattice moment is eps times a Dirichlet kernel value and every
    on-lattice moment is 1, so M_eps(e - e') = eps^h * (the eps = 1 product).
    """
    diff = p.keys[:, None, :] - p.keys[None, :, :]
    span = int(np.abs(diff).max())
    unit = moment_table(1.0, q, span)[diff + span].prod(axis=2)
    return (diff % q != 0).sum(axis=2), unit


class TestFirstOrderCancellation:
    CASES = [
        ("forward", lambda rng: random_interleaved_circuit(3, 2, "+++++", rng), 3),
        ("forward", lambda rng: random_interleaved_circuit(4, 2, "++++", rng), 8),
        ("mixed", lambda rng: random_interleaved_circuit(3, 2, "+-+-+", rng), 2),
        ("mixed", lambda rng: random_interleaved_circuit(4, 2, "+-+-+", rng), 8),
        ("inverse", lambda rng: grover_iterate_circuit(4, 8), 16),
        ("inverse", lambda rng: grover_iterate_circuit(3, 6), 4),
    ]

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_no_pair_differs_in_exactly_one_coordinate(self, index):
        _, build, q = self.CASES[index]
        p = run_purified([build(np.random.default_rng(40 + index))])
        h, _ = pair_terms(p, q)
        assert (h == 1).sum() == 0

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_pair_decomposition_reproduces_average(self, index):
        _, build, q = self.CASES[index]
        p = run_purified([build(np.random.default_rng(40 + index))])
        h, unit = pair_terms(p, q)
        v = p.vectors[0]
        terms = [v.T @ np.where(h == k, unit, 0.0) @ v.conj() for k in range(p.d + 1)]
        assert np.abs(terms[1]).max() == 0.0
        base = density(p, 0.0, q).entries
        assert np.abs(terms[0] - base).max() < 1e-12
        for eps in (0.05, 0.3):
            series = sum(eps**k * r for k, r in enumerate(terms))
            assert np.abs(series - density(p, eps, q).entries).max() < 1e-12


class TestBruteForce:
    def test_two_oracle_hand_average(self):
        # d=1, q=2: the oracle is a global sign, so the averaged output stays pure
        h = dft_matrix(2)
        c = QueryCircuit(1, 2, (FixedGate(h), FORWARD, FixedGate(h)))
        rho = brute_force_average(c, 0.0, q=2)
        plus = h @ np.array([1, 0], dtype=complex)
        branch_avg = 0.5 * sum(
            np.outer(h @ (s * plus), (h @ (s * plus)).conj()) for s in (1.0, -1.0)
        )
        assert np.abs(rho.entries - branch_avg).max() < 1e-12

    def test_identity_circuit_projector(self):
        c = QueryCircuit(2, 1, ())
        rho = brute_force_average(c, 0.5, q=4)
        expect = np.zeros((2, 2))
        expect[0, 0] = 1.0
        assert np.abs(rho.entries - expect).max() < 1e-12

    def test_enumeration_guard(self):
        c = QueryCircuit(4, 1, ())
        with pytest.raises(ResourceLimitError):
            brute_force_average(c, 0.1, q=11)

    def test_master_equivalence_suite(self):
        # the module's master correctness property: the moment-weighted sum
        # equals direct enumeration for every small instance
        rng = np.random.default_rng(2024)
        grid = [(3, 2, 1), (2, 3, 1), (5, 2, 1), (4, 2, 2), (2, 2, 2), (3, 2, 2)]
        count = 0
        while count < 50:
            q, d, aux = grid[count % len(grid)]
            n = int(rng.integers(1, 5))
            pattern = "".join(rng.choice(["+", "-"], size=n))
            eps = float(rng.uniform(0, 0.6))
            c = random_circuit(d, aux, pattern, rng)
            got = density(run_purified([c]), eps, q)
            want = brute_force_average(c, eps, q)
            assert np.abs(got.entries - want.entries).max() < 1e-10
            count += 1


class TestDistinguishingAdvantage:
    def test_zero_bias_zero(self):
        rng = np.random.default_rng(6)
        c = random_circuit(2, 2, "+-", rng)
        [(keys, adv)] = advantage_profile([c], [0.0, 0.3], 8, DEFAULT_KEY_CAP)
        assert keys == run_purified([c]).key_count
        assert adv[0] == 0.0 and adv[1] > 0.0

    def test_forward_only_quadratic_ceiling(self):
        rng = np.random.default_rng(11)
        for eps in (0.05, 0.1, 0.2):
            for _ in range(3):
                n = int(rng.integers(1, 4))
                c = random_circuit(2, 2, "+" * n, rng)
                [(_, (adv,))] = advantage_profile([c], [eps], 8, DEFAULT_KEY_CAP)
                assert adv <= 4 * n * eps**2 + 1e-10


class TestBiasedRotation:
    def test_unbiased_retains_everything(self):
        rng = np.random.default_rng(13)
        c = random_circuit(2, 2, "++", rng)
        rot = biased_ft_rotate(run_purified([c]), 0.0, q=8)
        for amp in rot.retained.values():
            assert amp == pytest.approx(1.0, abs=1e-10)

    def test_retained_floor_three_queries(self):
        rng = np.random.default_rng(14)
        eps, n = 0.2, 3
        c = random_circuit(2, 2, "+" * n, rng)
        rot = biased_ft_rotate(run_purified([c]), eps, q=8)
        floor = 1 - 4 * n * eps**2
        for e, amp in rot.retained.items():
            assert amp * amp >= floor - 1e-10
            assert rot.error_mass[e] == pytest.approx(1 - amp * amp, abs=1e-12)

    def test_zero_query_unchanged(self):
        c = QueryCircuit(2, 1, ())
        rot = biased_ft_rotate(run_purified([c]), 0.3, q=8)
        assert list(rot.rotated) == [(0, 0)]
        assert rot.retained[(0, 0)] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_inverse_and_large_exponents(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ParameterError):
            biased_ft_rotate(run_purified([random_circuit(2, 1, "+-", rng)]), 0.2, q=8)
        c = random_circuit(2, 1, "+++", rng)
        with pytest.raises(ParameterError):
            biased_ft_rotate(run_purified([c]), 0.2, q=2)

    def test_density_cross_check_runs(self):
        rng = np.random.default_rng(16)
        c = random_circuit(2, 2, "++", rng)
        p = run_purified([c])
        rot = biased_ft_rotate(p, 0.3, q=8)
        direct = density(p, 0.3, q=8)
        assert trace_distance(rot.density(), direct) < 1e-9


class TestPurificationBasisInvariance:
    def test_unitary_on_labels_leaves_average_unchanged(self):
        rng = np.random.default_rng(17)
        c = random_circuit(2, 2, "+-+", rng)
        p = run_purified([c])
        keys, gram = moment_gram(p, 0.3, q=5)
        w, u = np.linalg.eigh(gram)
        labels = u * np.sqrt(np.clip(w, 0, None))  # rows are label vectors
        vecs = np.stack([components(p)[k] for k in map(tuple, keys.tolist())])
        rho_direct = density(p, 0.3, q=5).entries

        def embed(lab):
            psi = vecs.T @ lab  # dim x K full purification
            return psi @ psi.conj().T

        assert np.abs(embed(labels) - rho_direct).max() < 1e-10
        rot = random_unitary(len(keys), rng)
        assert np.abs(embed(labels @ rot) - rho_direct).max() < 1e-10


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(18)
        c = random_circuit(2, 2, "+-", rng)
        text = circuit_to_text(c, q=8)
        parsed, q = circuit_from_text(text)
        assert q == 8
        assert parsed.d == c.d and parsed.aux_dim == c.aux_dim
        assert len(parsed.steps) == len(c.steps)
        for a, b in zip(parsed.steps, c.steps):
            if isinstance(b, FixedGate):
                assert np.array_equal(a.matrix, b.matrix)
            else:
                assert type(a) is type(b)
        assert circuit_to_text(parsed, q) == text

    def test_header_and_step_lines(self):
        c = QueryCircuit(2, 1, (FORWARD, INVERSE))
        text = circuit_to_text(c, q=4)
        lines = text.splitlines()
        assert lines[0] == "2 4 1"
        assert lines[1] == "Q+"
        assert lines[2] == "Q-"

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError) as err:
            circuit_from_text("2 4\nQ+\n")
        assert err.value.line == 1
        with pytest.raises(ConfigError) as err:
            circuit_from_text("2 4 1\nQ*\n")
        assert err.value.line == 2
        with pytest.raises(ConfigError) as err:
            circuit_from_text("2 4 1\nG 1,0 0,0\n")
        assert err.value.line == 2
