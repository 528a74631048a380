import numpy as np
import pytest

from querylab.errors import ParameterError
from querylab.ensembles import (
    concentration_check,
    draw_trace,
    draw_traces,
    gap_dimension,
    trace_gap_check,
)
from querylab.phases import _SAMPLE_BLOCK, _guide_table, phase_mean
from reference import DiagonalOracle, draw, normalized_trace, oracle_values


class _ZeroStream:
    """Stub generator whose uniforms are all 0, forcing exponent 0 draws."""

    def random(self, size=None, out=None):
        if out is not None:
            out[...] = 0.0
            return out
        return 0.0 if size is None else np.zeros(size)


def _long_double_trace(oracle: DiagonalOracle) -> complex:
    # each entry's phase as one integer over d*q, then cos and sin summed in
    # long double
    d, q = oracle.dimension, oracle.order
    steps = ((np.arange(d) * oracle.ramp_turns) % d) * q + oracle.exponents * d
    angle = 8 * np.arctan(np.longdouble(1)) * (steps % (d * q)).astype(np.longdouble) / (d * q)
    return complex(float(np.cos(angle).sum() / d), float(np.sin(angle).sum() / d))


class TestDiagonalOracle:
    def test_trace_formula(self):
        u = DiagonalOracle(np.array([0, 2, 5]), order=8, dimension=3)
        direct = np.exp(2j * np.pi * np.array([0, 2, 5]) / 8).mean()
        assert abs(normalized_trace(u) - direct) < 1e-12

    def test_exponents_reduced_and_frozen(self):
        u = DiagonalOracle(np.array([9, -1]), order=8, dimension=2)
        assert list(u.exponents) == [1, 7]
        with pytest.raises(ValueError):
            u.exponents[0] = 3

    def test_exponents_copied_from_caller(self):
        # out-of-range entries are reduced, in-range ones kept; either way the
        # oracle holds a frozen copy, also of a read-only int64 array, and the
        # caller's array keeps its flags
        for raw, want in (([9, -1, 16, 3], [1, 7, 0, 3]), ([0, 7, 3, 1], [0, 7, 3, 1])):
            for writeable in (True, False):
                mine = np.array(raw, dtype=np.int64)
                mine.flags.writeable = writeable
                u = DiagonalOracle(mine, order=8, dimension=4)
                assert list(u.exponents) == want
                assert u.exponents.dtype == np.int64 and not u.exponents.flags.writeable
                assert mine.flags.writeable == writeable and list(mine) == raw
                assert not np.shares_memory(mine, u.exponents)

    def test_ramp_compose_roundtrip(self):
        u = DiagonalOracle(np.array([1, 2, 3, 4]), order=8, dimension=4, ramp_turns=1)
        back = u.compose_ramp(-1)
        assert back.ramp_turns == 0
        plain = DiagonalOracle(np.array([1, 2, 3, 4]), order=8, dimension=4)
        assert normalized_trace(back) == normalized_trace(plain)

    def test_equality_is_identity(self):
        # comparing oracles never compares their exponent arrays entry-wise
        base = DiagonalOracle(np.array([1, 2, 3, 4]), order=8, dimension=4)
        same = DiagonalOracle(np.array([1, 2, 3, 4]), order=8, dimension=4)
        twin = base.compose_ramp(1)
        assert (base == base) is True
        assert (base == same) is False and (base != same) is True
        assert (base == twin) is False and (twin.compose_ramp(-1) == base) is False
        assert len({base, same, twin}) == 3


# Every public entry point that draws from the bias-eps ensemble, and the
# reference draw, called with (eps, d, q): a bias outside [0, 1], a phase
# order below 2 and a dimension below 1 are each rejected.
_ENTRY_POINTS = {
    "draw": lambda eps, d, q: draw(eps, d, q, np.random.default_rng(0)),
    "draw_trace": lambda eps, d, q: draw_trace(eps, d, q, np.random.default_rng(0)),
    "draw_traces": lambda eps, d, q: draw_traces(eps, d, q, 1, np.random.default_rng(0)),
    "concentration_check": lambda eps, d, q: concentration_check(
        eps, d, q, 0.1, 100, np.random.default_rng(0)),
    "trace_gap_check": lambda eps, d, q: trace_gap_check(eps, d, q, 10, np.random.default_rng(0)),
}


class TestEntryPointValidation:
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("eps,d,q", [(-0.1, 4, 8), (1.5, 4, 8), (0.3, 4, 1), (0.3, 4, 0),
                                         (0.3, 0, 8), (0.3, -3, 8)],
                             ids=["bias-negative", "bias-above-1", "order-1", "order-0",
                                  "dimension-0", "dimension-negative"])
    def test_rejects_out_of_range(self, entry, eps, d, q):
        with pytest.raises(ParameterError):
            _ENTRY_POINTS[entry](eps, d, q)

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_accepts_the_edges(self, entry):
        # bias 1, order 2 and dimension 1 are all in range
        _ENTRY_POINTS[entry](1.0, 1, 2)


class TestDraw:
    def test_ramp_turns(self):
        # draws carry no ramp; a ramp is composed onto a draw
        u = draw(0.3, 4, 8, np.random.default_rng(0))
        assert u.ramp_turns == 0
        assert u.compose_ramp(1).ramp_turns == 1

    def test_deterministic_under_seed(self):
        a = draw(0.0, 3, 4, np.random.default_rng(77))
        b = draw(0.0, 3, 4, np.random.default_rng(77))
        assert np.array_equal(a.exponents, b.exponents)

    def test_pure_bias_support(self):
        u = draw(1.0, 200, 8, np.random.default_rng(1))
        assert set(np.unique(u.exponents)) <= {0, 1, 2, 6, 7}

    def test_ramp_alone_with_stubbed_rng(self):
        d = 5
        u = draw(0.3, d, 8, _ZeroStream()).compose_ramp(1)
        assert np.array_equal(u.exponents, np.zeros(d, dtype=int))
        expect = np.exp(2j * np.pi * np.arange(d) / d)
        assert np.abs(oracle_values(u) - expect).max() < 1e-12

    # bias 0 is the uniform ensemble: under a shared seed a bias-0 draw is
    # floor(q*u) of the plain uniform stream, entry for entry
    def test_zero_bias_matches_uniform_stream(self):
        a = draw(0.0, 20, 8, np.random.default_rng(9))
        u = np.random.default_rng(9).random(20)
        assert np.array_equal(a.exponents, np.minimum((u * 8).astype(np.int64), 7))

    @pytest.mark.parametrize("q", [2, 3, 257, 1024])
    def test_zero_bias_matches_uniform_stream_large_d(self, q):
        a = draw(0.0, 50_000, q, np.random.default_rng(q))
        u = np.random.default_rng(q).random(50_000)
        assert np.array_equal(a.exponents, np.minimum((u * q).astype(np.int64), q - 1))


class TestNormalizedTrace:
    def test_identity_oracle(self):
        # every uniform 0 draws exponent 0: the plain trace is 1, and the
        # ramp phases alone sum to 0
        u = DiagonalOracle(np.zeros(7, dtype=int), order=8, dimension=7)
        assert normalized_trace(u) == pytest.approx(1.0, abs=1e-12)
        plain, twisted = draw_traces(0.3, 7, 8, 1, _ZeroStream())
        assert plain == 1.0 and abs(twisted) < 1e-15

    def test_cancellation(self):
        u = DiagonalOracle(np.array([0, 4]), order=8, dimension=2)
        assert abs(normalized_trace(u)) < 1e-12

    def test_modulus_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            plain, twisted = draw_traces(0.5, 30, 8, 1, rng)
            assert abs(plain) <= 1 + 1e-12 and abs(twisted) <= 1 + 1e-12

    def test_biased_modulus_monte_carlo(self):
        eps, d, q = 0.2, 10**4, 257
        rng = np.random.default_rng(2024)
        vals = [abs(draw_trace(eps, d, q, rng)) for _ in range(10**3)]
        m = float(np.mean(vals))
        assert eps / 2 < m < eps
        assert abs(m - eps * phase_mean(1.0, q)) < 0.01

    # the streamed traces against the entry sum of the reference draw (turns
    # 0 reads the plain trace). d = 2 is one row of the factored sum and
    # d = 3 one row and a partial one; 16,384 complex entries are 256 KiB,
    # where numpy starts eliding temporaries, so the two large sizes take
    # different multiply orders
    @pytest.mark.parametrize("d", [2, 3, 4096, 65_536])
    @pytest.mark.parametrize("turns", [0, 1, -1])
    def test_histogram_trace_matches_entry_sum(self, d, turns):
        plain, twisted = draw_traces(0.3, d, 257, turns or 1, np.random.default_rng(d))
        u = draw(0.3, d, 257, np.random.default_rng(d)).compose_ramp(turns)
        assert abs((twisted if turns else plain) - oracle_values(u).sum() / d) <= 1e-15

    # d = 40,001 leaves a partial last row of the factored sum, which the
    # last block of the streamed draw holds; d = 65,536 has no partial row;
    # 320,000 is gap_dimension(0.05), the endtoend default
    @pytest.mark.parametrize("d", [40_001, 65_536, 320_000])
    @pytest.mark.parametrize("turns", [1, -1])
    def test_ramp_trace_matches_long_double_sum(self, d, turns):
        _, twisted = draw_traces(0.05, d, 257, turns, np.random.default_rng(d))
        u = draw(0.05, d, 257, np.random.default_rng(d)).compose_ramp(turns)
        assert abs(twisted - _long_double_trace(u)) <= 2e-17

    def test_monte_carlo_mean_matches_phase_mean(self):
        rng = np.random.default_rng(7)
        mean = np.mean([draw_trace(0.3, 2000, 8, rng) for _ in range(200)])
        assert abs(mean - phase_mean(0.3, 8)) < 5e-3


class TestConcentration:
    def test_uniform_tail(self):
        tail = concentration_check(0.0, 10**4, 257, 0.1, 10**3, np.random.default_rng(11))
        assert tail <= 0.01

    def test_biased_tail_against_hoeffding_style_bound(self):
        eps, d, t = 0.2, 10**4, 0.02
        tail = concentration_check(eps, d, 257, t, 10**3, np.random.default_rng(12))
        assert tail <= 0.05
        assert tail <= 4 * np.exp(-d * t**2 / 8) + 0.02

    def test_huge_deviation_never_occurs(self):
        for eps in (0.0, 0.3):
            tail = concentration_check(eps, 50, 8, 2.0, 100, np.random.default_rng(13))
            assert tail == 0.0

    def test_trials_floor(self):
        with pytest.raises(ParameterError):
            concentration_check(0.0, 4, 8, 0.1, 50, np.random.default_rng(0))


class TestTraceGap:
    def test_calibrated_regime(self):
        frac0, frac1 = trace_gap_check(0.1, 10**5, 257, 10**3, np.random.default_rng(21))
        assert frac0 >= 0.99
        assert frac1 >= 0.99

    def test_small_dimension_fails_openly(self):
        frac0, frac1 = trace_gap_check(0.1, 10, 257, 10**3, np.random.default_rng(22))
        assert 0.0 <= frac0 <= 1.0 and 0.0 <= frac1 <= 1.0
        assert frac0 < 0.9  # documents the large-d requirement

    def test_gap_dimension_scale(self):
        assert gap_dimension(0.1) == 80000
        with pytest.raises(ParameterError):
            gap_dimension(0.0)


class TestDistributionInvariants:
    def test_unramping_recovers_base_draw(self):
        # composing the inverse ramp on a ramped draw reproduces, under a
        # shared seed, the plain biased draw's normalized trace exactly
        dv = draw(0.3, 16, 8, np.random.default_rng(55)).compose_ramp(1)
        v = draw(0.3, 16, 8, np.random.default_rng(55))
        assert dv.ramp_turns == 1
        assert normalized_trace(dv.compose_ramp(-1)) == normalized_trace(v)
        assert np.array_equal(dv.exponents, v.exponents)


@pytest.mark.parametrize("q", [2, 3, 257, 1024])
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.45, 0.9, 1.0])
def test_draw_trace_is_the_full_draw_trace(eps, q):
    # the histogram-only draw and the streamed two-trace draw read the same
    # uniforms as the reference draw and give its plain normalized trace bit
    # for bit, though the latter cuts its blocks at whole rows of the
    # factored ramp sum; at eps = 0.9 and q >= 257 some draws take more than
    # one guide-table step. d = 2 and 3 are one row, and one row and a
    # partial one; 65,536 is whole rows only
    if eps == 0.9 and q >= 257:
        assert not _guide_table(eps, q)[3]
    for size in (1, 2, 3, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 40_001, 65_536):
        rng, ref = np.random.default_rng((size, q)), np.random.default_rng((size, q))
        streamed = np.random.default_rng((size, q))
        got = draw_trace(eps, size, q, rng)
        want = normalized_trace(draw(eps, size, q, ref))
        plain, twisted = draw_traces(eps, size, q, 1 if size % 2 else -1, streamed)
        assert type(got) is complex and got == want
        assert type(plain) is complex and type(twisted) is complex and plain == want
        assert rng.random() == ref.random() == streamed.random()
