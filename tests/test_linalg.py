import math

import numpy as np
import pytest

from querylab.errors import DegeneracyError, DimensionError, ParameterError
from querylab.linalg import (
    DensityMatrix,
    StateVector,
    dft_matrix,
    partial_trace,
    random_unitary,
    trace_distance,
)
from querylab.phases import pmf_vector
from querylab.query_sim import FixedGate
from reference import DensePreparation, gram_schmidt


def basis_state(i, dims):
    v = np.zeros(math.prod(dims), dtype=complex)
    v[i] = 1.0
    return StateVector(v, dims)


class TestStateVector:
    def test_norm_enforced_for_normalized(self):
        with pytest.raises(ParameterError):
            StateVector([1.0, 1.0], (2,))

    def test_dims_must_match_length(self):
        with pytest.raises(DimensionError):
            StateVector([1.0, 0, 0], (2, 2))

    def test_immutable(self):
        s = basis_state(0, (2,))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0


class TestDensityMatrix:
    def test_valid_construction(self):
        rho = DensityMatrix(np.eye(2) / 2, (2,))
        assert rho.entries.shape[0] == 2

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ParameterError):
            DensityMatrix(m, (2,))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ParameterError):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_negative_eigenvalue(self):
        m = np.array([[1.2, 0.0], [0.0, -0.2]])
        with pytest.raises(ParameterError):
            DensityMatrix(m, (2,))

    def test_from_state(self):
        rho = basis_state(1, (2,)).density_matrix()
        assert rho.entries[1, 1] == 1.0


class TestPartialTrace:
    def test_product_state_recovers_factor(self):
        rho_a = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        rho_b = np.array([[0.5, 0.1j], [-0.1j, 0.5]], dtype=complex)
        rho = DensityMatrix(np.kron(rho_a, rho_b), (2, 2))
        out = partial_trace(rho, 1)
        assert np.abs(out.entries - rho_a).max() < 1e-12
        out0 = partial_trace(rho, 0)
        assert np.abs(out0.entries - rho_b).max() < 1e-12

    def test_bell_state_maximally_mixed(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2))
        for reg in (0, 1):
            out = partial_trace(bell.density_matrix(), reg)
            assert np.abs(out.entries - np.eye(2) / 2).max() < 1e-12

    def test_correlated_pair_with_wide_second_register(self):
        # (|0,0> + |1,1>)/sqrt(2) with a 3-dim second register
        v = np.zeros(6, dtype=complex)
        v[0] = v[4] = 1 / math.sqrt(2)
        rho = StateVector(v, (2, 3)).density_matrix()
        out = partial_trace(rho, 1)
        assert np.abs(out.entries - np.eye(2) / 2).max() < 1e-12

    def test_bad_index(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        with pytest.raises(DimensionError):
            partial_trace(rho, 2)
        with pytest.raises(DimensionError):
            partial_trace(DensityMatrix(np.eye(2) / 2, (2,)), 0)

    def test_commutes_with_kept_register_unitary(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = StateVector(random_unitary(6, rng)[:, 0], (2, 3))
            u = random_unitary(2, rng)
            moved = StateVector(np.kron(u, np.eye(3)) @ s.amplitudes, (2, 3))
            lhs = partial_trace(moved.density_matrix(), 1).entries
            rhs = u @ partial_trace(s.density_matrix(), 1).entries @ u.conj().T
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_invariant_under_traced_register_unitary(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            s = StateVector(random_unitary(6, rng)[:, 0], (2, 3))
            u = random_unitary(3, rng)
            moved = StateVector(np.kron(np.eye(2), u) @ s.amplitudes, (2, 3))
            lhs = partial_trace(moved.density_matrix(), 1).entries
            rhs = partial_trace(s.density_matrix(), 1).entries
            assert np.abs(lhs - rhs).max() < 1e-10


class TestTraceDistance:
    def test_self_distance_zero(self):
        rho = basis_state(0, (2,)).density_matrix()
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = basis_state(0, (2,)).density_matrix()
        b = basis_state(1, (2,)).density_matrix()
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = StateVector(random_unitary(3, rng)[:, 0], (3,)).density_matrix()
        b = StateVector(random_unitary(3, rng)[:, 1], (3,)).density_matrix()
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            trace_distance(DensityMatrix(np.eye(2) / 2, (2,)), DensityMatrix(np.eye(3) / 3, (3,)))

    def test_triangle_inequality_fuzz(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            u = random_unitary(4, rng)
            a = StateVector(u[:, 0], (4,)).density_matrix()
            b = StateVector(u[:, 1] * 0.6 + u[:, 0] * 0.8, (4,)).density_matrix()
            c = StateVector(random_unitary(4, rng)[:, 0], (4,)).density_matrix()
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
        rho = partial_trace(StateVector(psi, (2, 3)).density_matrix(), 1)
        rho_p = partial_trace(StateVector(psi_p, (2, 3)).density_matrix(), 1)
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
@pytest.mark.parametrize("matrix,error", [
    (np.eye(4)[:, :3], DimensionError),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), ParameterError),
], ids=["non-square", "non-unitary"])
def test_constructors_reject_non_unitary(builder, matrix, error):
    with pytest.raises(error):
        _GATE_BUILDERS[builder](matrix)
