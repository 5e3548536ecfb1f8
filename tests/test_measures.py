import numpy as np
import pytest
from conftest import assert_check, random_density, random_hermitian

from qslbound.measures import (
    capacity_of_entanglement,
    entanglement_entropy,
    ergotropy_max,
    modular_hamiltonian,
)

LN2 = np.log(2.0)
RHO_19 = np.diag([0.1, 0.9]).astype(complex)

# Frozen from the scalar eigenvalue formulas (independent of the matrix path).
S_19 = 0.3250829733914482
C_19 = 0.43450162589252944


class TestEntanglementEntropy:
    def test_pure_state(self):
        assert entanglement_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert entanglement_entropy(np.eye(2) / 2.0) == pytest.approx(LN2)

    def test_scalar_oracle(self):
        assert entanglement_entropy(RHO_19) == pytest.approx(S_19, abs=1e-12)

    def test_unitary_invariance(self, run):
        assert_check(run, "info-measures/entropy-unitary-invariance")


class TestModularHamiltonian:
    def test_maximally_mixed(self):
        assert np.allclose(modular_hamiltonian(np.eye(2) / 2.0), LN2 * np.eye(2))

    def test_scalar_oracle(self):
        k = modular_hamiltonian(RHO_19)
        assert np.allclose(
            np.diag(k).real, [2.302585092994046, 0.10536051565782628], atol=1e-12
        )

    def test_pure_state_mean_vanishes(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        k = modular_hamiltonian(rho)
        # One clamped-large eigenvalue, but with ~zero weight in rho.
        assert np.trace(rho @ k).real == pytest.approx(0.0, abs=1e-10)

    def test_mean_reproduces_entropy(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            rho = random_density(rng, 4)
            k = modular_hamiltonian(rho)
            assert np.trace(rho @ k).real == pytest.approx(
                entanglement_entropy(rho), abs=1e-10
            )


class TestCapacityOfEntanglement:
    def test_pure_state(self):
        assert capacity_of_entanglement(np.diag([1.0, 0.0])) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_flat_spectrum(self):
        assert capacity_of_entanglement(np.eye(2) / 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_oracle(self):
        assert capacity_of_entanglement(RHO_19) == pytest.approx(C_19, abs=1e-12)

    def test_equals_modular_variance(self, run):
        assert_check(run, "info-measures/capacity-equals-modular-variance")


class TestErgotropy:
    def test_ground_state_is_passive(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert ergotropy_max(rho, h) == pytest.approx(0.0, abs=1e-12)

    def test_inverted_qubit(self):
        rho = np.diag([0.2, 0.8]).astype(complex)
        h = np.diag([0.0, 1.0]).astype(complex)
        assert ergotropy_max(rho, h) == pytest.approx(0.6)

    def test_maximally_mixed_is_passive(self):
        rng = np.random.default_rng(47)
        for d in (2, 3, 4):
            h = random_hermitian(rng, d)
            assert ergotropy_max(np.eye(d) / d, h) == pytest.approx(0.0, abs=1e-10)

    def test_matches_permutation_bruteforce(self, run):
        assert_check(run, "info-measures/ergotropy-bruteforce")
