import numpy as np
import pytest
from conftest import assert_check, random_state

from qslbound.linalg import SIGMA_X, SIGMA_Z
from qslbound.states import (
    DegenerateObservableError,
    density_from_pure,
    moments,
    perpendicular_state,
    reduced_state,
    require_state,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def schmidt_state(p):
    return np.array([np.sqrt(p), 0.0, 0.0, np.sqrt(1.0 - p)], dtype=complex)


class TestDensityFromPure:
    def test_basis_state(self):
        assert np.allclose(density_from_pure(KET0), np.diag([1.0, 0.0]))

    def test_plus_state(self):
        assert np.allclose(density_from_pure(PLUS), np.full((2, 2), 0.5))

    def test_schmidt_state_outer_product_oracle(self):
        psi = schmidt_state(0.1)
        expected = np.outer(psi, psi.conj())
        rho = density_from_pure(psi)
        assert np.allclose(rho, expected)
        assert rho[0, 0] == pytest.approx(0.1)
        assert rho[3, 3] == pytest.approx(0.9)
        assert rho[0, 3] == pytest.approx(0.3)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        rho = density_from_pure(random_state(rng, 5))
        assert np.max(np.abs(rho @ rho - rho)) <= 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            density_from_pure(np.array([1.0, 1.0]))


class TestMoments:
    def test_eigenstate(self):
        m = moments(SIGMA_Z, KET0)
        assert m.mean == pytest.approx(1.0)
        assert m.variance == pytest.approx(0.0, abs=1e-14)

    def test_plus_state(self):
        m = moments(SIGMA_Z, PLUS)
        assert m.mean == pytest.approx(0.0, abs=1e-14)
        assert m.variance == pytest.approx(1.0)

    def test_schmidt_state_energy_spread(self):
        # Spread of the XX coupling in the p = 0.1 state: |theta (1 - 2p)| = 0.8.
        h = np.kron(SIGMA_X, SIGMA_X)
        m = moments(h, schmidt_state(0.1))
        direct = np.vdot(schmidt_state(0.1), h @ h @ schmidt_state(0.1)).real
        assert m.std_dev == pytest.approx(0.8, abs=1e-12)
        assert m.variance == pytest.approx(direct - m.mean**2, abs=1e-12)

    def test_matches_density_route(self, run):
        assert_check(run, "quantum-state/moments-density-crosscheck")

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            moments(SIGMA_Z, schmidt_state(0.5))


class TestPerpendicularState:
    def test_flips_basis_state(self):
        perp = perpendicular_state(SIGMA_X, KET0)
        assert abs(np.vdot(perp, KET1)) == pytest.approx(1.0)

    def test_eigenstate_is_degenerate(self):
        with pytest.raises(DegenerateObservableError):
            perpendicular_state(SIGMA_Z, KET0)

    def test_orthogonality_randomized(self, run):
        assert_check(run, "quantum-state/perpendicular-orthogonality")


class TestReducedState:
    def test_bell(self):
        bell = schmidt_state(0.5)
        assert np.allclose(reduced_state(bell, (2, 2), "A"), np.eye(2) / 2.0)

    def test_product_state_keep_b(self):
        psi = np.kron(KET0, PLUS)
        assert np.allclose(reduced_state(psi, (2, 2), "B"), density_from_pure(PLUS))

    def test_quarter_period_is_maximally_mixed(self):
        # cos(2 theta t) = 0 at t = pi/4 flattens the Schmidt spectrum: the
        # state sqrt(0.1)|00> + sqrt(0.9)|11> evolved under theta XX, theta = 1.
        sp, sq = np.sqrt(0.1), np.sqrt(0.9)
        psi = np.array([sp - 1j * sq, 0.0, 0.0, sq - 1j * sp]) / np.sqrt(2.0)
        assert np.allclose(reduced_state(psi, (2, 2), "A"), np.eye(2) / 2.0, atol=1e-12)

    def test_two_qubit_schmidt_rank(self, run):
        assert_check(run, "quantum-state/two-qubit-schmidt-rank")


def test_require_state_checks_norm():
    with pytest.raises(ValueError):
        require_state([0.5, 0.5])
