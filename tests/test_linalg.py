import math
import warnings

import numpy as np
import pytest

from querylab.errors import DegeneracyError, DimensionError, ParameterError
from querylab.linalg import DensityMatrix, dft_matrix, random_unitary, trace_distance
from querylab.phases import pmf_vector
from querylab.query_sim import FixedGate
from reference import DensePreparation, gram_schmidt


def pure(v) -> DensityMatrix:
    v = np.asarray(v, dtype=complex)
    return DensityMatrix(np.outer(v, v.conj()))


def basis_density(i, dim) -> DensityMatrix:
    return pure(np.eye(dim)[i])


class TestDensityMatrix:
    def test_valid_construction(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert rho.entries.shape[0] == 2

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0)])
    def test_rejects_non_square_or_empty(self, shape):
        with pytest.raises(DimensionError):
            DensityMatrix(np.zeros(shape))

    def test_entries_are_read_only(self):
        rho = basis_density(0, 2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ParameterError):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ParameterError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        m = np.array([[1.2, 0.0], [0.0, -0.2]])
        with pytest.raises(ParameterError):
            DensityMatrix(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite(self, bad):
        # a NaN compares False with every tolerance, so it must be caught first
        m = np.array([[bad, 0.0], [0.0, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="non-finite"):
                DensityMatrix(m)

    def test_from_state(self):
        rho = basis_density(1, 2)
        assert rho.entries[1, 1] == 1.0


class TestTraceDistance:
    def test_self_distance_zero(self):
        rho = basis_density(0, 2)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = basis_density(0, 2)
        b = basis_density(1, 2)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = pure(random_unitary(3, rng)[:, 0])
        b = pure(random_unitary(3, rng)[:, 1])
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            trace_distance(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3))

    def test_triangle_inequality_fuzz(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            u = random_unitary(4, rng)
            a = pure(u[:, 0])
            b = pure(u[:, 1] * 0.6 + u[:, 0] * 0.8)
            c = pure(random_unitary(4, rng)[:, 0])
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9

    def test_quadratic_error_pair_by_hand(self):
        # correlated pair vs its perturbation onto a shared extra direction
        eps = 0.1
        c = 1 / math.sqrt(2)
        root = math.sqrt(1 - eps**2)
        psi = np.zeros(6, dtype=complex)
        psi[0] = psi[4] = c  # (|0,0> + |1,1>)/sqrt(2), second register dim 3
        psi_p = np.zeros(6, dtype=complex)
        psi_p[0] = c * root
        psi_p[2] = c * eps  # |0> (sqrt(1-eps^2)|0> + eps|2>)
        psi_p[4] = c * root
        psi_p[5] = c * eps  # |1> (sqrt(1-eps^2)|1> + eps|2>)
        # the first-register marginal of a (2, 3) state m is m m^dagger
        rho = DensityMatrix(psi.reshape(2, 3) @ psi.reshape(2, 3).conj().T)
        rho_p = DensityMatrix(psi_p.reshape(2, 3) @ psi_p.reshape(2, 3).conj().T)
        assert np.abs(rho.entries - np.array([[0.5, 0], [0, 0.5]])).max() < 1e-12
        off = eps**2 / 2
        assert np.abs(rho_p.entries - np.array([[0.5, off], [off, 0.5]])).max() < 1e-12
        assert trace_distance(rho, rho_p) == pytest.approx(eps**2 / 2, abs=1e-12)


class TestGramSchmidt:
    def test_orthonormal_input_unchanged(self):
        u = random_unitary(5, np.random.default_rng(1))
        out = gram_schmidt(u)
        assert np.abs(out - u).max() < 1e-12

    def test_plain_fourier_columns_unchanged(self):
        q = 8
        f = dft_matrix(q)
        out = gram_schmidt(f)
        assert np.abs(out - f).max() < 1e-10

    def test_biased_columns_orthonormalize_with_overlap_bound(self):
        q, eps = 8, 0.3
        w = np.sqrt(pmf_vector(eps, q) * q)
        f = dft_matrix(q) * w[:, None]  # columns sum_g sqrt(pmf_g) w^{gk} |g>
        g = gram_schmidt(f)
        assert np.abs(g.conj().T @ g - np.eye(q)).max() < 1e-10
        bound = math.sqrt(1 - 2 * eps**2 / (1 - eps))
        for k in range(q):
            ov = np.vdot(g[:, k], f[:, k])
            assert abs(ov.imag) < 1e-12
            assert ov.real >= bound

    def test_span_property(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        out = gram_schmidt(a)
        for k in range(4):
            coeff, res, *_ = np.linalg.lstsq(a[:, : k + 1], out[:, k], rcond=None)
            recon = a[:, : k + 1] @ coeff
            assert np.abs(recon - out[:, k]).max() < 1e-10

    def test_positive_real_overlap(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        out = gram_schmidt(a)
        for k in range(3):
            ov = np.vdot(out[:, k], a[:, k])
            assert abs(ov.imag) < 1e-10
            assert ov.real > 0

    def test_degenerate_family_raises(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(DegeneracyError):
            gram_schmidt(np.column_stack([v, v]))
        with pytest.raises(DegeneracyError):
            gram_schmidt(np.array([[1.0, 1.0, 3.0], [1.0, 2.0, 1.0]]))


class TestHelpers:
    def test_dft_unitary(self):
        for d in (2, 3, 7):
            f = dft_matrix(d)
            assert np.abs(f @ f.conj().T - np.eye(d)).max() < 1e-12
            # column 0, the image of |0>, is the uniform state
            assert np.abs(f[:, 0] - 1 / math.sqrt(d)).max() < 1e-12

    def test_random_unitary_seeded(self):
        a = random_unitary(5, np.random.default_rng(42))
        b = random_unitary(5, np.random.default_rng(42))
        assert np.array_equal(a, b)
        assert np.abs(a @ a.conj().T - np.eye(5)).max() < 1e-12


# the two constructors that take a caller's matrix share one unitarity check
_GATE_BUILDERS = {
    "FixedGate": FixedGate,
    "DensePreparation": lambda m: DensePreparation(m, np.arange(len(m)) == 0),
}


@pytest.mark.parametrize("builder", sorted(_GATE_BUILDERS))
@pytest.mark.parametrize("matrix,error,message", [
    (np.eye(4)[:, :3], DimensionError, "must be square"),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), ParameterError, "not unitary"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), ParameterError, "non-finite"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), ParameterError, "non-finite"),
], ids=["non-square", "non-unitary", "nan", "inf"])
def test_constructors_reject_non_unitary(builder, matrix, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            _GATE_BUILDERS[builder](matrix)
