from functools import lru_cache

import numpy as np
import pytest

from querylab import biased_fourier
from querylab.errors import DegeneracyError, ParameterError, QuerylabError
from querylab.biased_fourier import frame_summary, prediction_errors
from querylab.linalg import dft_matrix
from querylab.phases import phase_moment, pmf_vector, window_halfwidth
from reference import build_biased_frame, frame_matrix

# Dense references: the SVD and QR of the q x q frame. The library reads the
# same quantities from the Toeplitz moment Gram in O(q^2); these cross-check it.


def singular_spectrum(q: int, eps: float) -> np.ndarray:
    """All singular values of the frame matrix, descending."""
    return np.linalg.svd(frame_matrix(q, eps), compute_uv=False)


def overlap_bound_check(q: int, eps: float, k: int) -> float:
    """Mass of frame column k inside the span of the previous orthonormal columns.

    Computed as <f_k| P_{k-1} |f_k> with P_{k-1} the projector onto the first
    k orthonormalized columns, and cross-checked against 1 - |residual|^2.
    """
    if not 1 <= k < q:
        raise ParameterError(f"column index must lie in [1, {q}), got {k!r}")
    basis = build_biased_frame(q, eps)
    f_k = basis.frame[:, k]
    prev = basis.transform.conj().T[:, :k]  # orthonormal columns 0..k-1
    proj_mass = float(np.linalg.norm(prev.conj().T @ f_k) ** 2)
    residual = f_k - prev @ (prev.conj().T @ f_k)
    alt = 1.0 - float(np.linalg.norm(residual) ** 2)
    assert abs(proj_mass - alt) <= 1e-10
    return proj_mass


def moment_power_sum(eps: float, q: int) -> float:
    """Closed form ``eps^2 * (q/(2M+1) - 1)`` of the summed squared nonzero moments."""
    M = window_halfwidth(q)
    return eps**2 * (q / (2 * M + 1) - 1.0)


@lru_cache(maxsize=None)
def dense_columns(q: int, eps: float) -> tuple:
    """Per-column ``alphas**2`` and strictly-upper coefficient mass of the QR."""
    basis = build_biased_frame(q, eps)
    overlaps = np.triu(np.abs(basis.coeffs) ** 2, 1).sum(axis=0)
    return basis.alphas**2, overlaps


@lru_cache(maxsize=None)
def dense_summary(q: int, eps: float) -> dict:
    """The summary row from the frame's SVD and its QR coefficients."""
    spectrum = singular_spectrum(q, eps)
    alphas_sq, overlaps = dense_columns(q, eps)
    target = np.sqrt(q * pmf_vector(eps, q))
    return {
        "q": q,
        "eps": eps,
        "min_alpha_sq": float(alphas_sq.min()),
        "sigma_min": float(spectrum[-1]),
        "sigma_max": float(spectrum[0]),
        "singular_gap": float(np.abs(np.sort(spectrum) - np.sort(target)).max()),
        "max_overlap": float(overlaps.max()),
    }


# the default verify-lemmas grid plus an odd order
REFERENCE_CELLS = [(q, eps) for q in (8, 31, 64, 257, 1024) for eps in (0.0, 0.1, 0.25, 0.45)]
# worst difference seen on these cells is 1.93e-13 (sigma_min at q = 1024)
FAST_TOL = 1e-12


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
        assert abs(row["sigma_min"] - s[-1]) <= FAST_TOL
        assert abs(row["sigma_max"] - s[0]) <= FAST_TOL
        assert row["singular_gap"] <= 1e-10
        assert row["min_alpha_sq"] >= 1 - 2 * 0.3**2 / 0.7 - 1e-10
        assert row["max_overlap"] <= 2 * 0.3**2 / 0.7 + 1e-10
        assert row["sigma_min"] >= np.sqrt(0.7) - 1e-10
        # worst overlap matches the dedicated op at its maximizing column
        per_k = [overlap_bound_check(16, 0.3, k) for k in range(1, 16)]
        assert row["max_overlap"] == pytest.approx(max(per_k), abs=1e-10)


class TestToeplitzPath:
    @pytest.mark.parametrize("q,eps", REFERENCE_CELLS)
    def test_summary_matches_dense_reference(self, q, eps):
        fast = frame_summary(q, eps)
        dense = dense_summary(q, eps)
        assert set(fast) == set(dense)
        for key, value in dense.items():
            assert abs(fast[key] - value) <= FAST_TOL, key

    @pytest.mark.parametrize("q,eps", REFERENCE_CELLS)
    def test_prediction_errors_are_squared_alphas(self, q, eps):
        alphas_sq, overlaps = dense_columns(q, eps)
        assert np.abs(prediction_errors(q, eps) - alphas_sq).max() <= FAST_TOL
        # unit-norm columns: retained weight plus overlap is 1 in every column,
        # which is what max_overlap = max(1 - E_k) rests on
        assert np.abs(alphas_sq + overlaps - 1.0).max() <= FAST_TOL

    def test_unbiased_errors_exactly_one(self):
        assert (prediction_errors(64, 0.0) == 1.0).all()

    def test_lost_unit_norm_raises(self, monkeypatch):
        moment = biased_fourier.phase_moment
        monkeypatch.setattr(biased_fourier, "phase_moment",
                            lambda eps, q, m: 1.01 * moment(eps, q, m))
        with pytest.raises(QuerylabError):
            frame_summary(8, 0.2)

    def test_indefinite_gram_raises(self, monkeypatch):
        # r = (1, 0.5, 1.2, 0, ...) is not positive definite: E_2 < 0
        def moment(eps, q, m):
            row = np.zeros(q)
            row[:3] = (1.0, 0.5, 1.2)
            return row[m]

        monkeypatch.setattr(biased_fourier, "phase_moment", moment)
        with pytest.raises(QuerylabError):
            prediction_errors(8, 0.2)
        with pytest.raises(QuerylabError):
            frame_summary(8, 0.2)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            frame_summary(1, 0.2)
        with pytest.raises(ParameterError):
            prediction_errors(8, 1.0)
