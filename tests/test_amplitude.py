"""Estimation, amplification, probes, and the three distinguishers."""

import math
import tracemalloc

import numpy as np
import pytest

from querylab import amplitude
from querylab.amplitude import (
    ESTIMATE_BUDGET_CONSTANT,
    PairedPreparation,
    PreparationOracle,
    amplitude_amplify,
    amplitude_estimate,
    distinguish_by_amplification,
    distinguish_by_estimation,
    estimate_budget,
    naive_estimate,
    pair_probe,
    trace_probe,
)
from querylab.ensembles import DiagonalOracle, draw, normalized_trace
from querylab.errors import DegeneracyError, DimensionError, ParameterError
from querylab.linalg import random_unitary
from reference import (
    DensePreparation,
    dense_probe_matrix,
    gram_schmidt,
    mle_loglik,
    mle_theta,
    uniform_ramp_unitary,
)


def dense_with_amplitude(dim, mask, rng):
    """Random preparation unitary plus its flagged amplitude."""
    u = random_unitary(dim, rng)
    return DensePreparation(u, mask), float(np.linalg.norm(u[mask, 0]))


# ---------------------------------------------------------------- oracles


def test_dense_rejects_non_unitary():
    with pytest.raises(ParameterError):
        DensePreparation(np.eye(4) * 1.001, np.array([True, False, False, False]))


def test_dense_rejects_bad_mask_length():
    with pytest.raises(DimensionError):
        DensePreparation(np.eye(4), np.array([True, False]))


def test_counters_track_every_application():
    rng = np.random.default_rng(0)
    oracle, _ = dense_with_amplitude(8, np.array([False, True] * 4), rng)
    oracle.flag_probability(0)
    assert (oracle.forward_queries, oracle.inverse_queries) == (1, 0)
    oracle.flag_probability(3)
    assert (oracle.forward_queries, oracle.inverse_queries) == (5, 3)
    oracle.sample_flag(10, rng, iterations=2)
    assert (oracle.forward_queries, oracle.inverse_queries) == (35, 23)


def test_iterate_power_rejects_negative():
    oracle = PairedPreparation(0.5, 0.0)
    with pytest.raises(ParameterError):
        oracle.flag_probability(-1)
    with pytest.raises(ParameterError):
        oracle.sample_flag(4, np.random.default_rng(0), iterations=-1)
    assert (oracle.forward_queries, oracle.inverse_queries) == (0, 0)


def test_dense_iterates_follow_sine_law():
    rng = np.random.default_rng(1)
    mask = np.zeros(12, dtype=bool)
    mask[[2, 5, 7]] = True
    oracle, a = dense_with_amplitude(12, mask, rng)
    theta = math.asin(min(1.0, a))
    for m in range(7):
        p = oracle.flag_probability(m)
        assert abs(p - math.sin((2 * m + 1) * theta) ** 2) < 1e-10


def test_two_level_matches_dense_dynamics():
    rng = np.random.default_rng(2)
    mask = np.array([False, True] * 5)
    dense, a = dense_with_amplitude(10, mask, rng)
    reduced = PairedPreparation(a, 0.0)
    for m in range(10):
        assert abs(dense.flag_probability(m) - reduced.flag_probability(m)) < 1e-10


def test_amplitude_bounds_checked():
    with pytest.raises(ParameterError):
        PairedPreparation(1.5, 0.0)


def test_collapse_needs_flagged_mass():
    # the first register of a vanishing flagged component has no distribution
    with pytest.raises(DegeneracyError):
        PairedPreparation(0.0, 0.0).first_register_zero()


def test_paired_needs_two_level_register():
    # alpha|0,1> + beta|1,1> needs a query register of dimension >= 2
    with pytest.raises(ParameterError):
        pair_probe(DiagonalOracle([0], 4, 1))


# ---------------------------------------------------------------- probes


def probe_amplitude_check(oracle: DiagonalOracle, variant: str = "trace") -> dict:
    """Simulate a dense probe on |0,0> and compare flagged data to trace values.

    Returns the measured flagged amplitudes, the trace functionals they
    should equal, and whether everything matches within 1e-10.
    """
    if variant not in ("trace", "paired"):
        raise ParameterError(f"unknown probe variant {variant!r}")
    matrix = dense_probe_matrix(oracle, variant)
    out = matrix[:, 0]
    flagged_norm = float(np.linalg.norm(out[1::2]))
    if variant == "trace":
        amplitude = complex(out[1])
        expected = complex(normalized_trace(oracle))
        expected_norm = abs(expected)
        ok = abs(amplitude - expected) <= 1e-10
    else:
        amplitude = (complex(out[1]), complex(out[3]))
        expected = (
            complex(normalized_trace(oracle)),
            complex(normalized_trace(oracle.compose_ramp(-1))),
        )
        expected_norm = math.hypot(abs(expected[0]), abs(expected[1]))
        ok = max(abs(amplitude[0] - expected[0]), abs(amplitude[1] - expected[1])) <= 1e-10
    ok = ok and abs(flagged_norm - expected_norm) <= 1e-10
    return {
        "variant": variant,
        "flag_amplitude": amplitude,
        "expected": expected,
        "flagged_norm": flagged_norm,
        "expected_norm": expected_norm,
        "ok": bool(ok),
    }


def test_trace_probe_identity_oracle_amplitude_one():
    oracle = DiagonalOracle(np.zeros(6, dtype=int), 8, 6)
    check = probe_amplitude_check(oracle, "trace")
    assert check["ok"]
    assert abs(check["flag_amplitude"] - 1.0) < 1e-12


def test_trace_probe_quarter_phases_amplitude_zero():
    oracle = DiagonalOracle([0, 1, 2, 3], 4, 4)  # phases 1, i, -1, -i
    check = probe_amplitude_check(oracle, "trace")
    assert check["ok"]
    assert abs(check["flag_amplitude"]) < 1e-12


@pytest.mark.parametrize("variant", ["trace", "paired"])
def test_probe_check_random_oracle(variant):
    rng = np.random.default_rng(5)
    oracle = draw(0.3, 16, 8, rng)
    check = probe_amplitude_check(oracle, variant)
    assert check["ok"]
    if variant == "trace":
        assert abs(check["flag_amplitude"] - normalized_trace(oracle)) < 1e-12
    else:
        alpha, beta = check["flag_amplitude"]
        assert abs(alpha - normalized_trace(oracle)) < 1e-12
        assert abs(beta - normalized_trace(oracle.compose_ramp(-1))) < 1e-12


def test_probe_check_rejects_unknown_variant():
    oracle = DiagonalOracle([0, 1], 4, 2)
    with pytest.raises(ParameterError):
        probe_amplitude_check(oracle, "sideways")


@pytest.mark.parametrize("d", [2, 16, 64])
@pytest.mark.parametrize("maker,variant", [(trace_probe, "trace"), (pair_probe, "paired")],
                         ids=["trace_probe", "pair_probe"])
def test_probes_match_dense_reference(maker, variant, d):
    # the production probes are the exact two-level reduction of the dense
    # 2d x 2d probe unitary: their flag probabilities agree at every depth
    # to 150, the dense one evolved iterate by iterate. Iterates keep the
    # flagged direction, so at every depth the dense collapse's first
    # register reads 0 with the pair probe's first_register_zero
    oracle = draw(0.25, d, 8, np.random.default_rng((d, 6)))
    dense = DensePreparation(dense_probe_matrix(oracle, variant),
                             np.tile([False, True], d), (d, 2))
    probe = maker(oracle)
    depth = 150

    def first_register_zero(amps):
        return float(np.sum(np.abs(amps[0]) ** 2))

    for m in range(depth + 1):
        pd = dense.flag_probability(m)
        assert abs(pd - probe.flag_probability(m)) < 1e-10
        if variant == "paired" and pd > 1e-3:
            assert abs(first_register_zero(dense.collapse(m))
                       - probe.first_register_zero()) < 1e-10
    runs = depth + 1
    iterates = depth * runs // 2
    assert (dense.forward_queries, dense.inverse_queries) == \
        (probe.forward_queries, probe.inverse_queries) == (runs + iterates, iterates)


# --------------------------------------------------------- naive estimator


def test_naive_estimate_contract():
    misses = 0
    for seed in range(200):
        rng = np.random.default_rng((seed, 21))
        oracle = PairedPreparation(0.3, 0.0)
        a_hat = naive_estimate(oracle, 10_000, rng)
        assert oracle.forward_queries == 10_000
        assert oracle.inverse_queries == 0
        if abs(a_hat - 0.3) > 0.02:
            misses += 1
    assert misses <= 10  # >= 95% of 200 runs inside +-0.02


def test_naive_estimate_extremes():
    rng = np.random.default_rng(0)
    assert naive_estimate(PairedPreparation(0.0, 0.0), 100, rng) == 0.0
    assert naive_estimate(PairedPreparation(1.0, 0.0), 100, rng) == 1.0
    with pytest.raises(ParameterError):
        naive_estimate(PairedPreparation(0.5, 0.0), 0, rng)


# ------------------------------------------------------ iterate estimator


def test_estimate_zero_amplitude_always_below_target():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        oracle = PairedPreparation(0.0, 0.0)
        a_hat = amplitude_estimate(oracle, 0.05, rng)
        assert a_hat == 0.0


def test_estimate_half_amplitude_inside_one_percent():
    misses = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        oracle = PairedPreparation(0.5, 0.0)
        a_hat = amplitude_estimate(oracle, 0.01, rng)
        if not 0.49 < a_hat < 0.51:
            misses += 1
    assert misses <= 1  # 99 of 100 runs land inside


def test_estimate_on_dense_oracle():
    rng = np.random.default_rng(8)
    mask = np.zeros(16, dtype=bool)
    mask[[1, 4, 9]] = True
    oracle, a = dense_with_amplitude(16, mask, rng)
    a_hat = amplitude_estimate(oracle, 0.02, rng)
    assert abs(a_hat - a) < 0.02


def test_estimate_queries_match_schedule_and_budget():
    grid = [0.1, 0.05, 0.02, 0.01]
    totals = []
    for eps in grid:
        rng = np.random.default_rng(3)
        oracle = PairedPreparation(0.4, 0.0)
        amplitude_estimate(oracle, eps, rng)
        assert oracle.inverse_queries > 0
        total = oracle.forward_queries + oracle.inverse_queries
        assert total == estimate_budget(eps)
        assert total <= ESTIMATE_BUDGET_CONSTANT / eps
        totals.append(total)
    slope = np.polyfit(np.log([1 / e for e in grid]), np.log(totals), 1)[0]
    assert 0.9 <= slope <= 1.1


def test_budget_constant_is_global():
    for eps in np.linspace(0.002, 0.998, 997):
        assert estimate_budget(float(eps)) * eps <= ESTIMATE_BUDGET_CONSTANT


def test_estimate_target_validated():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        amplitude_estimate(PairedPreparation(0.5, 0.0), 0.0, rng)
    with pytest.raises(ParameterError):
        estimate_budget(1.0)


@pytest.mark.parametrize("eps", [0.0025, 0.01, 0.05, 0.3])
def test_mle_theta_matches_per_call_scan(eps):
    # the cached coarse log terms give the likelihood and the fit of a scan
    # that builds them afresh, bit for bit
    rng = np.random.default_rng(int(eps * 10**4))
    chain = amplitude._estimation_chain(eps)
    levels = tuple(chain)
    coarse, terms = amplitude._coarse_terms(eps, levels)
    for _ in range(20):
        a = rng.uniform(0.0, 0.2)
        counts = [(m, 32, int(rng.binomial(32, math.sin((2 * m + 1) * math.asin(a)) ** 2)))
                  for m in chain]
        assert np.array_equal(amplitude._loglik(counts, terms), mle_loglik(counts, coarse))
        assert amplitude._mle_theta(counts, eps) == mle_theta(counts, eps)
    assert amplitude._coarse_terms(eps, levels)[0] is coarse
    assert not coarse.flags.writeable and len(terms) == len(chain)
    assert not any(t.flags.writeable for pair in terms for t in pair)


def test_estimation_stays_on_public_surface():
    # every public method of the probe records its calls; estimation and
    # amplification reach the oracle through the counted calls only
    calls = set()

    def spied(name):
        def method(self, *args, **kwargs):
            calls.add(name)
            return getattr(PairedPreparation, name)(self, *args, **kwargs)
        return method

    members = {**vars(PreparationOracle), **vars(PairedPreparation)}
    public = [name for name in members if not name.startswith("_")]
    Spy = type("Spy", (PairedPreparation,), {name: spied(name) for name in public})
    rng = np.random.default_rng(4)
    amplitude_estimate(Spy(0.3, 0.0), 0.05, rng)
    assert calls == {"sample_flag", "flag_probability"}
    calls.clear()
    assert amplitude_amplify(Spy(0.3, 0.0), rng)
    assert calls == {"flag_probability"}


# ----------------------------------------------------------- amplification


def test_amplify_full_amplitude_single_query():
    rng = np.random.default_rng(11)
    oracle = PairedPreparation(1.0, 0.0)
    assert amplitude_amplify(oracle, rng)
    # one round at depth 0
    assert (oracle.forward_queries, oracle.inverse_queries) == (1, 0)


def test_amplify_zero_amplitude_fails_at_cap(monkeypatch):
    monkeypatch.setattr(amplitude, "AMPLIFY_DEFAULT_CAP", 5000)
    rng = np.random.default_rng(12)
    oracle = PairedPreparation(0.0, 0.0)
    assert not amplitude_amplify(oracle, rng)
    assert oracle.inverse_queries > 0
    assert oracle.forward_queries + oracle.inverse_queries <= 5000


def test_amplify_query_count_scales_inversely():
    amplitudes = [0.4, 0.2, 0.1, 0.05]
    means = []
    for a in amplitudes:
        totals = []
        for seed in range(600):
            rng = np.random.default_rng((seed, int(1000 * a)))
            oracle = PairedPreparation(a, 0.0)
            assert amplitude_amplify(oracle, rng)
            totals.append(oracle.forward_queries + oracle.inverse_queries)
        mean = np.mean(totals)
        assert mean <= 6.0 / a
        means.append(mean)
    slope = np.polyfit(np.log([1 / a for a in amplitudes]), np.log(means), 1)[0]
    assert 0.85 <= slope <= 1.15


def test_amplify_query_tail():
    # the expected O(1/a) cost is measured, not proven, at AMPLIFY_GROWTH;
    # bound the tail directly: at most 2% of runs spend more than 20/a queries
    for a in (0.05, 0.1, 0.2, 0.4):
        over = 0
        for seed in range(600):
            oracle = PairedPreparation(a, 0.0)
            amplitude_amplify(oracle, np.random.default_rng(seed))
            over += oracle.forward_queries + oracle.inverse_queries > 20 / a
        assert over / 600 <= 0.02


# ------------------------------------------------------------ ramp unitary


def test_ramp_unitary_two_dimensional():
    t = uniform_ramp_unitary(2)
    root = 1 / math.sqrt(2)
    assert np.abs(t - [[root, root], [root, -root]]).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 16, 97])
def test_ramp_unitary_columns_and_unitarity(d):
    t = uniform_ramp_unitary(d)
    assert np.abs(t.conj().T @ t - np.eye(d)).max() < 1e-10
    assert np.abs(t[:, 0] - 1 / math.sqrt(d)).max() < 1e-12
    ramp = np.exp(2j * math.pi * np.arange(d) / d) / math.sqrt(d)
    assert np.abs(t[:, 1] - ramp).max() < 1e-12
    assert abs(np.vdot(t[:, 0], t[:, 1])) < 1e-12


def test_ramp_unitary_needs_two_dimensions():
    with pytest.raises(ParameterError):
        uniform_ramp_unitary(1)


# ---------------------------------------------------------- distinguishers


def test_estimation_distinguisher_identity_is_biased():
    rng = np.random.default_rng(17)
    oracle = DiagonalOracle(np.zeros(16, dtype=int), 8, 16)
    out = distinguish_by_estimation(oracle, 0.1, rng)
    assert out.label == 1
    assert out.estimate > 0.9


def test_estimation_distinguisher_both_ensembles():
    eps, d, q = 0.1, 10**5, 257
    correct = {0: 0, 1: 0}
    for trial in range(200):
        rng = np.random.default_rng((trial, 41))
        u0 = draw(0.0, d, q, rng)
        u1 = draw(eps, d, q, rng)
        out0 = distinguish_by_estimation(u0, eps, rng)
        out1 = distinguish_by_estimation(u1, eps, rng)
        assert out0.inverse_queries > 0
        correct[0] += out0.label == 0
        correct[1] += out1.label == 1
    assert correct[0] / 200 >= 0.85
    assert correct[1] / 200 >= 0.85


def test_naive_distinguisher_forward_only():
    eps, d, q = 0.1, 10**5, 257
    shots = math.ceil(50 / eps**2)
    correct = {0: 0, 1: 0}
    for trial in range(200):
        rng = np.random.default_rng((trial, 43))
        u0 = draw(0.0, d, q, rng)
        u1 = draw(eps, d, q, rng)
        out0 = distinguish_by_estimation(u0, eps, rng, method="naive")
        out1 = distinguish_by_estimation(u1, eps, rng, method="naive")
        assert out0.inverse_queries == 0 and out1.inverse_queries == 0
        assert out0.forward_queries == shots
        correct[0] += out0.label == 0
        correct[1] += out1.label == 1
    assert correct[0] / 200 >= 0.85
    assert correct[1] / 200 >= 0.85


def test_estimation_method_validated():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        distinguish_by_estimation(DiagonalOracle([0, 1], 4, 2), 0.1, rng, method="other")


def test_query_scaling_iterate_vs_naive():
    """Inverse access buys a quadratically smaller budget at equal bias."""
    grid = [0.1, 0.05, 0.02]
    d, q = 512, 257
    ae_totals, naive_totals = [], []
    for eps in grid:
        rng = np.random.default_rng((int(1000 * eps), 47))
        u = draw(eps, d, q, rng)
        ae = distinguish_by_estimation(u, eps, rng)
        nv = distinguish_by_estimation(u, eps, rng, method="naive")
        assert ae.inverse_queries > 0
        assert nv.inverse_queries == 0
        ae_totals.append(ae.forward_queries + ae.inverse_queries)
        naive_totals.append(nv.forward_queries + nv.inverse_queries)
    x = np.log([1 / e for e in grid])
    ae_slope = np.polyfit(x, np.log(ae_totals), 1)[0]
    naive_slope = np.polyfit(x, np.log(naive_totals), 1)[0]
    assert 0.9 <= ae_slope <= 1.1
    assert 1.9 <= naive_slope <= 2.1


def test_amplification_distinguisher_both_labels():
    eps, d, q = 0.1, 10**5, 257
    correct = {1: 0, 2: 0}
    for trial in range(200):
        rng = np.random.default_rng((trial, 53))
        v = draw(eps, d, q, rng)
        out1 = distinguish_by_amplification(v, rng)
        out2 = distinguish_by_amplification(v.compose_ramp(1), rng)
        correct[1] += out1.label == 1
        correct[2] += out2.label == 2
    assert correct[1] / 200 >= 0.85
    assert correct[2] / 200 >= 0.85


def dense_paired_preparation(alpha, beta):
    """6 x 6 preparation on register (3, 2) whose flagged part is alpha|0,1> + beta|1,1>."""
    columns = np.eye(6, dtype=complex)
    columns[:4, 0] = [math.sqrt(1.0 - abs(alpha) ** 2 - abs(beta) ** 2), alpha, 0.0, beta]
    return DensePreparation(gram_schmidt(columns), np.tile([False, True], 3), (3, 2))


def test_first_register_zero_matches_collapsed_state():
    # the production measurement reads |alpha|^2 / (|alpha|^2 + |beta|^2)
    # from the two amplitudes; the dense reference collapses the whole
    # prepared state onto its flagged part and sums the first-register row
    rng = np.random.default_rng(71)
    for _ in range(2000):
        z = rng.normal(size=4) * rng.choice([1e-3, 0.1, 1.0], size=4)
        alpha, beta = complex(z[0], z[1]), complex(z[2], z[3])
        scale = rng.uniform(0.01, 0.99) / max(1e-300, math.hypot(abs(alpha), abs(beta)))
        alpha, beta = alpha * scale, beta * scale
        dense = dense_paired_preparation(alpha, beta)
        amps = dense.collapse(0)
        assert abs(PairedPreparation(alpha, beta).first_register_zero()
                   - float(np.sum(np.abs(amps[0, :]) ** 2))) < 1e-12


def test_amplification_distinguisher_builds_no_dense_arrays():
    # at d = gap_dimension(0.05) the production path reads both traces and
    # the measurement without any d-length temporary: its peak allocation
    # stays below one d-length int64 array
    eps, d, q = 0.05, 320_000, 257
    rng = np.random.default_rng(73)
    base = draw(eps, d, q, rng)
    labels = set()
    tracemalloc.start()
    try:
        for truth in (1, 2, 1, 2):
            oracle = base if truth == 1 else base.compose_ramp(1)
            labels.add(distinguish_by_amplification(oracle, rng).label)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels == {1, 2}
    assert peak < 8 * d


def test_amplification_stub_alpha_only():
    # flagged part exactly eps|0,1>: every amplification succeeds and the
    # first register then reads 0 with certainty
    for seed in range(200):
        rng = np.random.default_rng((seed, 59))
        probe = PairedPreparation(0.1, 0.0)
        assert amplitude_amplify(probe, rng)
        assert probe.first_register_zero() == 1.0


def test_amplification_zero_bias_is_a_coin():
    eps, d, q = 0.0, 4096, 257
    matches = 0
    trials = 600
    for trial in range(trials):
        rng = np.random.default_rng((trial, 61))
        truth = int(rng.integers(1, 3))
        u = draw(0.0, d, q, rng)
        probed = u if truth == 1 else u.compose_ramp(1)
        out = distinguish_by_amplification(probed, rng)
        matches += out.label == truth
    assert abs(matches / trials - 0.5) < 0.065


def test_amplification_relabeling_symmetry():
    eps, d, q = 0.1, 10**4, 257
    one_on_plain = 0
    two_on_ramped = 0
    trials = 300
    for trial in range(trials):
        rng = np.random.default_rng((trial, 67))
        v = draw(eps, d, q, rng)
        one_on_plain += distinguish_by_amplification(v, rng).label == 1
        two_on_ramped += distinguish_by_amplification(v.compose_ramp(1), rng).label == 2
    assert abs(one_on_plain - two_on_ramped) / trials < 0.05

