import numpy as np
import pytest

from querylab.errors import DegeneracyError, ParameterError
from querylab.biased_fourier import (
    build_biased_frame,
    frame_matrix,
    frame_summary,
    moment_power_sum,
    overlap_bound_check,
    singular_spectrum,
)
from querylab.linalg import dft_matrix
from querylab.phases import phase_moment, pmf_vector, window_halfwidth


class TestBuild:
    def test_columns_unit_norm(self):
        for q, eps in [(8, 0.0), (8, 0.3), (16, 0.45), (31, 0.2)]:
            f = frame_matrix(q, eps)
            assert np.abs(np.linalg.norm(f, axis=0) - 1.0).max() < 1e-12

    def test_unbiased_frame_is_plain_fourier(self):
        q = 8
        basis = build_biased_frame(q, 0.0)
        assert np.abs(basis.frame - dft_matrix(q)).max() < 1e-12
        # the rounding unitary is then the inverse transform
        assert np.abs(basis.transform - dft_matrix(q).conj().T).max() < 1e-10
        assert np.abs(basis.coeffs - np.eye(q)).max() < 1e-10
        assert np.abs(basis.alphas - 1.0).max() < 1e-12

    def test_transform_unitary(self):
        basis = build_biased_frame(16, 0.3)
        t = basis.transform
        assert np.abs(t @ t.conj().T - np.eye(16)).max() < 1e-10

    def test_upper_triangular_action(self):
        basis = build_biased_frame(16, 0.3)
        lower = np.tril(basis.coeffs, -1)
        assert np.abs(lower).max() < 1e-10

    def test_column_norm_preserved_by_transform(self):
        basis = build_biased_frame(16, 0.3)
        mass = (np.abs(basis.coeffs) ** 2).sum(axis=0)
        assert np.abs(mass - 1.0).max() < 1e-10

    def test_alpha_bounds_both_forms(self):
        q, eps = 16, 0.3
        a2 = build_biased_frame(q, eps).alphas ** 2
        assert (a2 >= 1 - 4 * eps**2 - 1e-10).all()  # 0.64
        assert (a2 >= 1 - 2 * eps**2 / (1 - eps) - 1e-10).all()  # ~0.7429

    def test_first_alpha_exactly_one(self):
        for q, eps in [(8, 0.3), (16, 0.45)]:
            basis = build_biased_frame(q, eps)
            assert abs(basis.alphas[0] - 1.0) < 1e-12

    def test_alphas_real_positive(self):
        basis = build_biased_frame(12, 0.4)
        diag = basis.coeffs.diagonal()
        assert np.abs(diag.imag).max() < 1e-12
        assert (diag.real > 0).all()

    def test_full_bias_degenerates(self):
        with pytest.raises((DegeneracyError, ParameterError)):
            build_biased_frame(8, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            build_biased_frame(1, 0.2)
        with pytest.raises(ParameterError):
            frame_matrix(8, -0.1)


class TestSingularWindow:
    def test_unbiased_all_ones(self):
        s = singular_spectrum(8, 0.0)
        assert np.abs(s - 1.0).max() < 1e-12

    def test_exact_spectrum_from_pmf(self):
        q, eps = 8, 0.5
        s = np.sort(singular_spectrum(q, eps))
        expect = np.sort(np.sqrt(q * pmf_vector(eps, q)))
        assert np.abs(s - expect).max() < 1e-10

    def test_half_bias_extremes(self):
        s = singular_spectrum(8, 0.5)
        smin, smax = s.min(), s.max()
        assert smax == pytest.approx(np.sqrt(1.3), abs=1e-10)
        assert smin == pytest.approx(np.sqrt(0.5), abs=1e-10)

    def test_window_bounds(self):
        for q, eps in [(8, 0.1), (16, 0.3), (32, 0.45), (8, 0.5), (64, 0.25)]:
            s = singular_spectrum(q, eps)
            smin, smax = s.min(), s.max()
            assert smin >= np.sqrt(1 - eps) - 1e-10
            assert smax <= np.sqrt(1 + 2 * eps) + 1e-10


class TestOverlapBound:
    def test_unbiased_zero(self):
        for k in (1, 3, 7):
            assert overlap_bound_check(8, 0.0, k) < 1e-20

    def test_bound_deep_column(self):
        eps = 0.25
        val = overlap_bound_check(32, eps, 31)
        assert val <= 2 * eps**2 / (1 - eps) + 1e-10

    def test_bound_all_columns_small_q(self):
        q, eps = 12, 0.3
        cap = 2 * eps**2 / (1 - eps) + 1e-10
        for k in range(1, q):
            assert overlap_bound_check(q, eps, k) <= cap

    def test_index_validation(self):
        with pytest.raises(ParameterError):
            overlap_bound_check(8, 0.3, 0)
        with pytest.raises(ParameterError):
            overlap_bound_check(8, 0.3, 8)

    def test_moment_power_identity(self):
        q, eps = 8, 0.4
        direct = sum(abs(phase_moment(eps, q, i)) ** 2 for i in range(1, q))
        closed = moment_power_sum(eps, q)
        M = window_halfwidth(q)
        assert closed == pytest.approx(eps**2 * (q / (2 * M + 1) - 1), abs=1e-15)
        assert direct == pytest.approx(closed, abs=1e-12)


class TestProjectionProperty:
    def test_projector_dominated_by_frame_overlaps(self):
        # for any vector, mass inside the first-k orthonormal span is at most
        # 1/(1-eps) times its summed squared overlaps with the first k frame
        # columns
        q, eps = 16, 0.3
        basis = build_biased_frame(q, eps)
        gs = basis.transform.conj().T  # orthonormal columns
        rng = np.random.default_rng(123)
        for _ in range(1000):
            v = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            v /= np.linalg.norm(v)
            k = int(rng.integers(1, q))
            proj = float(np.linalg.norm(gs[:, :k].conj().T @ v) ** 2)
            frame_mass = float(np.linalg.norm(basis.frame[:, :k].conj().T @ v) ** 2)
            assert proj <= frame_mass / (1 - eps) + 1e-9


class TestSummary:
    def test_row_fields_and_consistency(self):
        row = frame_summary(16, 0.3)
        assert set(row) == {"q", "eps", "min_alpha_sq", "sigma_min", "sigma_max",
                            "singular_gap", "max_overlap"}
        s = singular_spectrum(16, 0.3)
        assert (row["sigma_min"], row["sigma_max"]) == (s[-1], s[0])
        assert row["singular_gap"] <= 1e-10
        assert row["min_alpha_sq"] >= 1 - 2 * 0.3**2 / 0.7 - 1e-10
        assert row["max_overlap"] <= 2 * 0.3**2 / 0.7 + 1e-10
        assert row["sigma_min"] >= np.sqrt(0.7) - 1e-10
        # worst overlap matches the dedicated op at its maximizing column
        per_k = [overlap_bound_check(16, 0.3, k) for k in range(1, 16)]
        assert row["max_overlap"] == pytest.approx(max(per_k), abs=1e-10)
