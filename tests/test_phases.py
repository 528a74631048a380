import numpy as np
import pytest

from querylab.errors import ParameterError
from querylab.phases import (
    _SAMPLE_BLOCK,
    _exponent_blocks,
    _guide_table,
    moment_table,
    phase_mean,
    phase_moment,
    pmf_vector,
    window_halfwidth,
)
from reference import draw, phase_pmf


def sample_exponents(eps, q, rng, size, block=_SAMPLE_BLOCK):
    """The production sampler loop's draw, every reused block copied out."""
    return np.concatenate([kb.copy() for kb in _exponent_blocks(eps, q, rng, size, block)])


class _FixedStream:
    """Stub generator handing out consecutive slices of a fixed array of uniforms."""

    def __init__(self, u):
        self.u = u
        self.used = 0

    def random(self, size=None, out=None):
        n = out.size if out is not None else size
        chunk = self.u[self.used:self.used + n]
        assert chunk.size == n, "stub stream exhausted"
        self.used += n
        if out is None:
            return chunk.copy()
        out[...] = chunk
        return out


class TestPmf:
    def test_uniform_case(self):
        for q in (2, 5, 8, 257):
            for k in (0, 1, q - 1):
                assert phase_pmf(0.0, q, k) == pytest.approx(1 / q, abs=1e-15)

    def test_outside_window_value(self):
        assert phase_pmf(0.5, 8, 5) == pytest.approx(0.0625, abs=1e-15)

    def test_inside_window_value(self):
        # q=8 window has 2*(8//4)+1 = 5 exponents
        assert phase_pmf(0.5, 8, 1) == pytest.approx(0.1625, abs=1e-15)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            phase_pmf(-0.1, 8, 0)
        with pytest.raises(ParameterError):
            phase_pmf(1.5, 8, 0)
        with pytest.raises(ParameterError):
            phase_pmf(0.2, 1, 0)
        with pytest.raises(ParameterError):
            phase_pmf(0.2, 8, 8)
        with pytest.raises(ParameterError):
            phase_pmf(0.2, 8, -1)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 16, 101, 257])
    def test_sums_to_one_and_nonnegative(self, eps, q):
        v = pmf_vector(eps, q)
        assert v.shape == (q,)
        assert abs(v.sum() - 1.0) < 1e-12
        assert (v >= 0).all()

    def test_vector_matches_scalar(self):
        for eps, q in [(0.3, 8), (0.7, 11), (1.0, 4)]:
            v = pmf_vector(eps, q)
            for k in range(q):
                assert v[k] == phase_pmf(eps, q, k)

    def test_window_membership(self):
        # exponents 6,7,0,1,2 are favored at q=8; 3,4,5 are not
        v = pmf_vector(0.5, 8)
        hi = {0, 1, 2, 6, 7}
        for k in range(8):
            if k in hi:
                assert v[k] > 1 / 8
            else:
                assert v[k] < 1 / 8
        assert window_halfwidth(8) == 2


class TestMean:
    def test_uniform_mean_zero(self):
        for q in (2, 4, 8, 257):
            assert phase_mean(0.0, q) == 0.0

    def test_three_point_support(self):
        # bias 1, order 4: support is exponents {3, 0, 1} -> values {-i, 1, i}
        direct = (np.exp(2j * np.pi * 3 / 4) + 1 + np.exp(2j * np.pi * 1 / 4)) / 3
        assert abs(direct.imag) < 1e-15
        assert phase_mean(1.0, 4) == pytest.approx(1 / 3, abs=1e-12)
        assert phase_mean(1.0, 4) == pytest.approx(direct.real, abs=1e-12)

    def test_large_order_limit(self):
        assert phase_mean(1.0, 10**6) == pytest.approx(2 / np.pi, abs=1e-5)

    def test_linearity_in_bias(self):
        for q in (4, 8, 101):
            top = phase_mean(1.0, q)
            for eps in (0.1, 0.25, 0.9):
                assert abs(phase_mean(eps, q) - eps * top) < 1e-12

    def test_bounds_for_large_order(self):
        for q in (100, 101, 257, 1000, 4096):
            m = phase_mean(1.0, q)
            assert 0.5 < m < 1.0

    def test_matches_direct_sum(self):
        for eps, q in [(0.3, 8), (0.8, 12), (1.0, 5)]:
            v = pmf_vector(eps, q)
            direct = sum(v[k] * np.exp(2j * np.pi * k / q) for k in range(q))
            assert abs(direct.imag) < 1e-12
            assert phase_mean(eps, q) == pytest.approx(direct.real, abs=1e-12)


class TestMoment:
    def test_zeroth_moment_is_one(self):
        for eps in (0.0, 0.4, 1.0):
            for q in (2, 8, 257):
                assert phase_moment(eps, q, 0) == 1.0

    def test_uniform_offlattice_vanishes(self):
        assert phase_moment(0.0, 5, 3) == 0.0
        for m in range(1, 10):
            expect = 1.0 if m % 5 == 0 else 0.0
            assert phase_moment(0.0, 5, m) == expect

    def test_golden_value(self, golden_check):
        golden_check("phase_moment_eps03_q8_m1", phase_moment(0.3, 8, 1), atol=1e-12)

    def test_matches_direct_sum(self):
        for eps, q in [(0.3, 8), (0.6, 7), (1.0, 4)]:
            v = pmf_vector(eps, q)
            for m in range(-q, 2 * q + 1):
                direct = sum(v[k] * np.exp(2j * np.pi * k * m / q) for k in range(q))
                assert abs(direct.imag) < 1e-12
                assert phase_moment(eps, q, m) == pytest.approx(direct.real, abs=1e-12)

    def test_lattice_multiples_exact(self):
        for eps in (0.0, 0.3, 1.0):
            for mult in (-2, -1, 1, 2):
                assert phase_moment(eps, 8, 8 * mult) == 1.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(20240811)
        eps, q, n = 0.3, 8, 10**6
        e = sample_exponents(eps, q, rng, size=n)
        for m in (1, 2, 3):
            mc = np.exp(2j * np.pi * e * m / q).mean()
            assert abs(mc - phase_moment(eps, q, m)) < 5e-3


class TestMomentTable:
    def test_invariants(self):
        t = moment_table(0.4, 8, 20)
        assert t[20] == 1.0
        for m in range(1, 20):
            assert abs(t[20 - m] - np.conj(t[20 + m])) < 1e-12
            assert t[20 + m] == phase_moment(0.4, 8, m)
        # one cached, read-only table per argument triple
        assert moment_table(0.4, 8, 20) is t
        assert not t.flags.writeable
        with pytest.raises(ParameterError):
            moment_table(0.4, 8, -1)

    @pytest.mark.parametrize("eps,q,span", [
        *((eps, q, q - 1) for eps in (0.0, 0.1, 0.25, 0.45) for q in (8, 64, 257, 1024)),
        *((eps, q, span) for eps in (0.02, 0.05, 0.1, 0.2) for q in (8, 16)
          for span in (1, 6, 12, 20)),
    ])
    def test_table_is_the_scalar_loop_bit_for_bit(self, eps, q, span):
        # the lemma grid's rows (powers 0..q-1) and the separation spans: one
        # array call gives the same floats as one scalar call per power
        loop = np.array([phase_moment(eps, q, m) for m in range(-span, span + 1)])
        assert np.array_equal(moment_table(eps, q, span), loop)
        assert np.array_equal(phase_moment(eps, q, np.arange(span + 1)), loop[span:])

    def test_uniform_is_lattice_indicator(self):
        t = moment_table(0.0, 5, 12)
        for m in range(-12, 13):
            expect = 1.0 if m % 5 == 0 else 0.0
            assert abs(t[m + 12] - expect) < 1e-12


class TestSampling:
    def test_uniform_frequencies(self):
        rng = np.random.default_rng(7)
        e = sample_exponents(0.0, 4, rng, size=10**6)
        freq = np.bincount(e, minlength=4) / e.size
        assert np.all(np.abs(freq - 0.25) < 0.002)

    def test_biased_frequency_matches_pmf(self):
        rng = np.random.default_rng(8)
        e = sample_exponents(0.5, 8, rng, size=10**6)
        freq = np.bincount(e, minlength=8) / e.size
        assert abs(freq[5] - 0.0625) < 0.002

    def test_pure_window_support(self):
        rng = np.random.default_rng(9)
        e = sample_exponents(1.0, 8, rng, size=5000)
        assert set(np.unique(e)) <= {0, 1, 2, 6, 7}

    def test_deterministic_under_seed(self):
        a = sample_exponents(0.5, 8, np.random.default_rng(123), size=100)
        b = sample_exponents(0.5, 8, np.random.default_rng(123), size=100)
        assert np.array_equal(a, b)

    def test_zero_bias_matches_uniform_stream(self):
        # inverse-CDF sampling consumes one uniform per draw, so a bias-0
        # stream reproduces the plain uniform stream under a shared seed
        a = sample_exponents(0.0, 8, np.random.default_rng(42), size=50)
        u = np.random.default_rng(42).random(50)
        b = np.minimum((u * 8).astype(np.int64), 7)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.45, 1.0])
    @pytest.mark.parametrize("q", [2, 3, 8, 257, 1024])
    def test_matches_searchsorted_exactly(self, eps, q):
        # reference: a binary search of the same cumsum CDF; the inputs add
        # every CDF value, both of its float neighbours and the dyadic
        # bucket edges to 10^6 random uniforms
        cdf = np.cumsum(pmf_vector(eps, q))
        cdf[-1] = 1.0
        edges = np.arange(2**13) / 2**13
        special = np.concatenate([cdf, edges])
        u = np.concatenate([
            np.random.default_rng(q).random(10**6), special,
            np.nextafter(special, 0.0), np.nextafter(special, 1.0), [0.0],
        ])
        u = u[u < 1.0]
        stream = _FixedStream(u)
        got = sample_exponents(eps, q, stream, size=u.size)
        assert stream.used == u.size
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))

    @pytest.mark.parametrize("size", [1, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1,
                                      320_000])
    @pytest.mark.parametrize("eps,q", [(0.0, 8), (0.05, 257), (0.45, 1024), (0.9, 8),
                                       (0.9, 257), (1.0, 257)])
    def test_blocked_draw_matches_one_call(self, size, eps, q):
        # the sampler draws its uniforms block by block, stepping more than
        # once per draw only above bias 3/4; the result and the generator
        # state after it equal the reference draw, a binary search of one
        # rng.random(size) call
        assert _guide_table(eps, q)[3] == (eps < 0.75)
        rng, ref = np.random.default_rng(size), np.random.default_rng(size)
        got = sample_exponents(eps, q, rng, size=size)
        assert got.dtype == np.int64
        assert np.array_equal(got, draw(eps, size, q, ref).exponents)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("eps,q", [(0.45, 257), (0.9, 257), (1.0, 8)])
    def test_stream_is_the_same_for_any_block_length(self, eps, q):
        # the block length only cuts the stream: 5-entry blocks, whole rows
        # of the factored ramp sum at d = 320,000 (57 rows of 566), the
        # default and one block, and a last block of every length
        size = 40_001
        ref = np.random.default_rng(q)
        want = draw(eps, size, q, ref).exponents
        for block in (5, 57 * 566, _SAMPLE_BLOCK, size, 10**6):
            rng = np.random.default_rng(q)
            blocks = [kb.copy() for kb in _exponent_blocks(eps, q, rng, size, block)]
            assert [b.size for b in blocks[:-1]] == [block] * (len(blocks) - 1)
            assert 0 < blocks[-1].size <= block
            assert np.array_equal(np.concatenate(blocks), want)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_one_step_holds_below_three_quarters(self):
        # every pmf entry exceeds 1/B >= 1/(4q) exactly when eps < 3/4
        for q in (2, 3, 8, 257, 1024):
            for eps in (0.0, 0.05, 0.45, 0.74):
                assert _guide_table(eps, q)[3]
        for q in (8, 257, 1024):
            assert not _guide_table(1.0, q)[3]
