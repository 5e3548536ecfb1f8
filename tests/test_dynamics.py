import numpy as np
import pytest
from conftest import assert_check, random_hermitian, random_state

from qslbound.dynamics import (
    TimeGrid,
    propagator_family,
    sample_entanglement,
    sample_heisenberg,
)
from qslbound.linalg import IDENTITY_2, SIGMA_X, SIGMA_Z, tensor_product
from qslbound.scenarios import initial_schmidt_state

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


class TestTimeGrid:
    def test_endpoints(self):
        grid = TimeGrid(2.0, 10)
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 2.0
        assert grid.points.size == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1)

    def test_resolution_default(self):
        grid = TimeGrid.with_resolution(1.0)
        assert grid.n_steps == 2000
        assert TimeGrid.with_resolution(0.001).n_steps >= 16
        assert TimeGrid.with_resolution(1.0001).n_steps % 2 == 0

    @pytest.mark.parametrize("t_max", [np.inf, np.nan])
    def test_resolution_rejects_non_finite_window(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            TimeGrid.with_resolution(t_max)


class TestPropagator:
    def test_zero_time(self):
        rng = np.random.default_rng(2)
        assert np.allclose(propagator_family(random_hermitian(rng, 4))(0.0), np.eye(4))

    def test_phase_rotation(self):
        u = propagator_family(SIGMA_Z)(np.pi / 2.0)
        assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-12)

    def test_two_qubit_closed_form(self):
        # exp(-i XX t)|00> = cos t |00> - i sin t |11>.
        h = tensor_product(SIGMA_X, SIGMA_X)
        psi = initial_schmidt_state(1.0)
        out = propagator_family(h)(0.7) @ psi
        expected = np.array([np.cos(0.7), 0.0, 0.0, -1j * np.sin(0.7)])
        assert np.allclose(out, expected, atol=1e-12)

    def test_unitarity_randomized(self, run):
        assert_check(run, "operator-core/propagator-unitarity")


class TestExpectationDerivative:
    """d<O>/dt as the sampler's derivative row, against closed forms."""

    def test_conserved_observable(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 3)
        psi = random_state(rng, 3)
        derivs = sample_heisenberg(h, h, psi, [0.0, 0.4, 1.3]).derivatives
        assert np.allclose(derivs, 0.0, atol=1e-12)

    def test_extremum_at_zero(self):
        derivs = sample_heisenberg(SIGMA_Z, SIGMA_X, PLUS, [0.0]).derivatives
        assert derivs[0] == pytest.approx(0.0, abs=1e-14)

    def test_analytic_oracle_at_pi_over_8(self):
        # <sigma_x(t)> = cos 2t in |+>, so the slope at pi/8 is -2 sin(pi/4).
        derivs = sample_heisenberg(SIGMA_Z, SIGMA_X, PLUS, [np.pi / 8.0]).derivatives
        assert derivs[0] == pytest.approx(-2.0 * np.sin(np.pi / 4.0), abs=1e-12)


class TestTrackObservable:
    def test_identity_observable(self):
        rng = np.random.default_rng(17)
        h = random_hermitian(rng, 2)
        samples = sample_heisenberg(h, np.eye(2), PLUS, TimeGrid(1.0, 20).points)
        assert np.allclose(samples.means, 1.0)
        assert np.allclose(samples.std_devs, 0.0, atol=1e-8)
        assert np.allclose(samples.derivatives, 0.0, atol=1e-12)

    def test_single_qubit_analytic_curve(self):
        grid = TimeGrid(1.0, 200)
        samples = sample_heisenberg(SIGMA_Z, SIGMA_X, PLUS, grid.points)
        assert np.allclose(samples.means, np.cos(2.0 * grid.points), atol=1e-12)
        assert np.allclose(samples.std_devs, np.abs(np.sin(2.0 * grid.points)), atol=1e-10)
        assert np.allclose(samples.derivatives, -2.0 * np.sin(2.0 * grid.points), atol=1e-12)

    def test_finite_difference_consistency(self, run):
        assert_check(run, "dynamics/derivative-consistency")

    def test_energy_conservation(self, run):
        assert_check(run, "dynamics/energy-conservation")


def spoiled(m, at, value):
    out = np.array(m, dtype=complex)
    out[at] = value
    return out


H4 = tensor_product(SIGMA_X, SIGMA_X) + 0.5 * tensor_product(SIGMA_Z, SIGMA_Z)
O4 = tensor_product(SIGMA_Z, IDENTITY_2)
PSI4 = initial_schmidt_state(0.3)
TIMES = TimeGrid(1.0, 16).points

BAD_H = {
    "non-hermitian": (spoiled(H4, (0, 1), 2.0), "not Hermitian"),
    "nan": (spoiled(H4, (1, 1), np.nan), "must be finite"),
}
BAD_O = {
    "non-hermitian": (spoiled(O4, (0, 3), 1.0), "not Hermitian"),
    "nan": (spoiled(O4, (2, 2), np.nan), "must be finite"),
    "dimension": (SIGMA_Z, "dimension mismatch"),
}
BAD_PSI = {
    "unnormalized": (2.0 * PSI4, "not normalized"),
    "nan": (spoiled(PSI4, 1, np.nan), "must be finite"),
    "dimension": (PLUS, "dimension mismatch"),
}


class TestPublicSamplersRefuseBadInput:
    """The public samplers validate every operand; only the scenario runners,
    whose operators are valid by construction, skip that."""

    @pytest.mark.parametrize("case", list(BAD_H))
    def test_hamiltonian(self, case):
        h, reason = BAD_H[case]
        with pytest.raises(ValueError, match=reason):
            sample_heisenberg(h, O4, PSI4, TIMES)
        with pytest.raises(ValueError, match=reason):
            sample_entanglement(h, PSI4, (2, 2), TIMES)

    @pytest.mark.parametrize("case", list(BAD_O))
    def test_observable(self, case):
        obs, reason = BAD_O[case]
        with pytest.raises(ValueError, match=reason):
            sample_heisenberg(H4, obs, PSI4, TIMES)

    @pytest.mark.parametrize("case", list(BAD_PSI))
    def test_initial_state(self, case):
        psi, reason = BAD_PSI[case]
        with pytest.raises(ValueError, match=reason):
            sample_heisenberg(H4, O4, psi, TIMES)
        with pytest.raises(ValueError, match=reason):
            sample_entanglement(H4, psi, (2, 2), TIMES)

    def test_valid_operands_are_sampled(self):
        # The spoiled operands above differ from these in one entry.
        assert np.all(np.isfinite(sample_heisenberg(H4, O4, PSI4, TIMES).means))
        assert np.all(np.isfinite(sample_entanglement(H4, PSI4, (2, 2), TIMES).means))
