import numpy as np
import pytest
from conftest import assert_check, random_density, random_hermitian

from qslbound.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    hermitian_eig,
    partial_trace,
    require_hermitian,
    spectral_norm,
    tensor_product,
)


class TestHermitianEig:
    def test_diagonal_input(self):
        vals, vecs = hermitian_eig(np.diag([1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0])
        assert np.allclose(np.abs(vecs), np.eye(2))

    def test_pauli_spectrum(self):
        vals, _ = hermitian_eig(SIGMA_X)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 4)
        vals, vecs = hermitian_eig(m)
        assert np.max(np.abs((vecs * vals) @ vecs.conj().T - m)) <= 1e-10

    def test_reconstruction_invariant_randomized(self, run):
        assert_check(run, "operator-core/eig-reconstruction")

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            require_hermitian(np.zeros((2, 3)))


class TestCommutator:
    def test_pauli_algebra(self):
        assert np.allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)

    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(rng, 3)
        assert np.allclose(commutator(a, a), 0.0)

    def test_two_qubit_example_against_direct_multiplication(self):
        a = tensor_product(SIGMA_Z, IDENTITY_2)
        b = tensor_product(SIGMA_X, SIGMA_X)
        direct = a @ b - b @ a
        assert np.allclose(commutator(a, b), direct)
        assert np.allclose(direct, 2j * tensor_product(SIGMA_Y, SIGMA_X))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator(SIGMA_X, np.eye(4))


class TestTensorProduct:
    def test_identity(self):
        assert np.allclose(tensor_product(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_diagonal_structure(self):
        assert np.allclose(
            np.diag(tensor_product(SIGMA_Z, IDENTITY_2)).real, [1, 1, -1, -1]
        )

    def test_basis_action(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        ket11 = np.array([0, 0, 0, 1], dtype=complex)
        assert np.allclose(tensor_product(SIGMA_X, SIGMA_X) @ ket00, ket11)

    def test_trace_multiplicative(self, run):
        assert_check(run, "operator-core/tensor-product-trace")


class TestPartialTrace:
    def test_bell_state_is_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace(rho, (2, 2), "A"), np.eye(2) / 2.0)

    def test_product_state_factors(self):
        rng = np.random.default_rng(17)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        joint = tensor_product(rho_a, rho_b)
        assert np.allclose(partial_trace(joint, (2, 2), "A"), rho_a, atol=1e-12)
        assert np.allclose(partial_trace(joint, (2, 2), "B"), rho_b, atol=1e-12)

    def test_schmidt_state_weights(self):
        p = 0.1
        psi = np.array([np.sqrt(p), 0, 0, np.sqrt(1 - p)], dtype=complex)
        red = partial_trace(np.outer(psi, psi.conj()), (2, 2), "A")
        assert np.allclose(red, np.diag([p, 1 - p]), atol=1e-12)

    def test_density_properties_randomized(self, run):
        assert_check(run, "operator-core/partial-trace-density")

    def test_trace_preserved(self):
        rng = np.random.default_rng(23)
        m = random_hermitian(rng, 4)
        assert np.isclose(
            np.trace(partial_trace(m, (2, 2), "B")), np.trace(m), atol=1e-12
        )

    def test_bad_dims(self):
        with pytest.raises(ValueError, match="inconsistent"):
            partial_trace(np.eye(4), (3, 2), "A")


class TestSpectralNorm:
    def test_pauli(self):
        assert spectral_norm(SIGMA_Z) == pytest.approx(1.0)

    def test_scaled_identity(self):
        assert spectral_norm(3.0 * np.eye(4)) == pytest.approx(3.0)

    def test_canonical_xx(self):
        h = tensor_product(SIGMA_X, SIGMA_X)
        assert spectral_norm(h) == pytest.approx(1.0)
        assert np.allclose(np.linalg.eigvalsh(h), [-1, -1, 1, 1])
