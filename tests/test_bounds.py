import math

import numpy as np
import pytest
from conftest import random_hermitian, random_state

from qslbound.bounds import (
    BoundCurve,
    correction_r,
    entanglement_rate_bound,
    lambda_form_bound,
    norm_rate_comparison,
    optimal_perpendicular_state,
    projector_speed_limit,
    qsl_integral,
    uncertainty_check,
)
from qslbound.dynamics import TimeGrid, propagator_family, track_observable
from qslbound.linalg import SIGMA_X, SIGMA_Z, spectral_norm, tensor_product
from qslbound.scenarios import battery_hamiltonians, general_product_state
from qslbound.states import DegenerateObservableError, moments

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET0 = np.array([1.0, 0.0], dtype=complex)


def battery_correction_at(t, omega=2.0, big_omega=1.0, j=1.0):
    h_b, _, _, h_t = battery_hamiltonians(omega, big_omega, j)
    psi0 = general_product_state(0.0, 0.0, 0.0, 0.0)
    u = propagator_family(h_t)(t)
    return correction_r(u.conj().T @ h_b @ u, h_t, psi0)


class TestCorrectionR:
    def test_commuting_pair_gives_r_one(self):
        sample = correction_r(SIGMA_X, SIGMA_X, KET0)
        assert sample.r == pytest.approx(1.0, abs=1e-12)
        assert sample.eta == pytest.approx(0.0, abs=1e-12)
        assert sample.saturated  # both sides vanish

    def test_battery_closed_form_value(self):
        # In-range branch of the piecewise coupled-battery form at t = 0.1.
        t = 0.1
        expected = 1.0 - math.sqrt(10.0) * abs(math.cos(math.sqrt(5.0) * t)) / math.sqrt(
            9.0 + math.cos(2.0 * math.sqrt(5.0) * t)
        )
        sample = battery_correction_at(t)
        assert sample.r == pytest.approx(expected, abs=1e-8)
        assert sample.saturated

    def test_battery_r_is_one_where_cos_vanishes(self):
        t = math.pi / (2.0 * math.sqrt(5.0))
        sample = battery_correction_at(t)
        assert sample.r == pytest.approx(1.0, abs=1e-9)

    def test_branch_follows_commutator_sign(self):
        before = battery_correction_at(math.pi / math.sqrt(5.0) - 0.05)
        after = battery_correction_at(math.pi / math.sqrt(5.0) + 0.05)
        assert {before.sign_branch, after.sign_branch} == {"plus", "minus"}

    def test_selected_r_in_range_randomized(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 300:
            d = int(rng.choice([2, 4, 8]))
            a = random_hermitian(rng, d)
            b = random_hermitian(rng, d)
            psi = random_state(rng, d)
            try:
                sample = correction_r(a, b, psi)
            except DegenerateObservableError:
                continue
            assert 0.0 <= sample.r <= 1.0 + 1e-9
            assert sample.eta == pytest.approx(1.0 - sample.r)
            checked += 1

    def test_degenerate_variance_raises(self):
        with pytest.raises(DegenerateObservableError):
            correction_r(SIGMA_Z, SIGMA_X, KET0)


class TestUncertaintyCheck:
    def test_holds_randomized(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 300:
            d = int(rng.choice([2, 4, 8]))
            a = random_hermitian(rng, d)
            b = random_hermitian(rng, d)
            psi = random_state(rng, d)
            try:
                chk = uncertainty_check(a, b, psi)
            except DegenerateObservableError:
                continue
            assert chk.holds
            checked += 1

    def test_optimal_branch_saturates_randomized(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 300:
            d = int(rng.choice([2, 4, 8]))
            a = random_hermitian(rng, d)
            b = random_hermitian(rng, d)
            psi = random_state(rng, d)
            try:
                chk = uncertainty_check(a, b, psi, perp="optimal")
            except DegenerateObservableError:
                continue
            assert abs(chk.lhs - chk.rhs) <= 1e-8
            assert chk.saturated
            checked += 1

    def test_identical_observables(self):
        chk = uncertainty_check(SIGMA_Z, SIGMA_Z, PLUS)
        assert chk.lhs == pytest.approx(0.0, abs=1e-12)
        assert chk.rhs == pytest.approx(0.0, abs=1e-12)
        assert chk.holds


class TestOptimalPerpendicularState:
    def test_orthogonal_and_normalized(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            d = int(rng.choice([2, 4]))
            a = random_hermitian(rng, d)
            b = random_hermitian(rng, d)
            psi = random_state(rng, d)
            try:
                perp = optimal_perpendicular_state(a, b, psi, "plus")
            except DegenerateObservableError:
                continue
            assert abs(np.vdot(perp, psi)) <= 1e-10
            assert np.linalg.norm(perp) == pytest.approx(1.0, abs=1e-10)


class TestQslIntegral:
    def grid(self):
        return TimeGrid(np.pi / 4.0, 300)

    def single_qubit_inputs(self):
        grid = self.grid()
        traj = track_observable(SIGMA_Z, SIGMA_X, PLUS, grid)
        u_of_t = propagator_family(SIGMA_Z)
        corrections = []
        for t in grid.points:
            u = u_of_t(t)
            o_t = u.conj().T @ SIGMA_X @ u
            try:
                corrections.append(correction_r(o_t, SIGMA_Z, PLUS).r)
            except DegenerateObservableError:
                corrections.append(np.nan)
        return traj, np.array(corrections)

    def test_single_qubit_saturates(self):
        traj, corrections = self.single_qubit_inputs()
        curve = qsl_integral(traj, corrections, 1.0)
        assert np.max(np.abs(curve.t_qslo - traj.grid.points)) <= 1e-6
        assert np.max(np.abs(curve.t_sqslo - traj.grid.points)) <= 1e-6
        # R vanishes identically here, so the running average stays at zero.
        assert np.max(curve.r_bar[1:]) <= 1e-9

    def test_identity_observable_gives_zero_bound(self):
        grid = TimeGrid(1.0, 20)
        traj = track_observable(SIGMA_Z, np.eye(2), PLUS, grid)
        curve = qsl_integral(traj, None, 1.0)
        assert np.allclose(curve.t_qslo, 0.0)
        assert np.allclose(curve.t_sqslo, 0.0)
        assert len(curve.warnings) == grid.points.size

    def test_random_system_hierarchy_and_monotonicity(self):
        rng = np.random.default_rng(47)
        h = random_hermitian(rng, 4)
        obs = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        grid = TimeGrid(1.0, 400)
        traj = track_observable(h, obs, psi, grid)
        u_of_t = propagator_family(h)
        corrections = []
        for t in grid.points:
            u = u_of_t(t)
            o_t = u.conj().T @ obs @ u
            try:
                corrections.append(correction_r(o_t, h, psi).r)
            except DegenerateObservableError:
                corrections.append(np.nan)
        curve = qsl_integral(traj, np.array(corrections), moments(h, psi).std_dev)
        tol = max(1e-6, 2.0 * curve.quad_error)
        assert np.all(curve.t_sqslo <= grid.points + tol)
        assert np.all(curve.t_sqslo >= curve.t_qslo - 1e-9)
        assert np.all(np.diff(curve.t_qslo) >= -1e-9)
        assert np.all(np.diff(curve.t_sqslo) >= -1e-9)

    def test_rejects_bad_delta_h(self):
        traj, corrections = self.single_qubit_inputs()
        with pytest.raises(ValueError, match="delta_h"):
            qsl_integral(traj, corrections, 0.0)

    def test_hierarchy_enforced_at_construction(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError, match="hierarchy"):
            BoundCurve(
                grid=grid,
                t_qslo=np.ones(5),
                t_sqslo=np.zeros(5),
                mean_values=np.zeros(5),
                r_bar=np.zeros(5),
                warnings=(),
                quad_error=0.0,
            )


class TestLambdaFormBound:
    def fixed_r_corrections(self, n, r):
        return np.full(n, r)

    def test_zero_r_matches_uncorrected(self):
        grid = TimeGrid(np.pi / 4.0, 300)
        traj = track_observable(SIGMA_Z, SIGMA_X, PLUS, grid)
        base = qsl_integral(traj, None, 1.0)
        val = lambda_form_bound(traj, self.fixed_r_corrections(grid.points.size, 0.0), 1.0)
        assert val == pytest.approx(base.t_qslo[-1], rel=1e-12)

    def test_constant_half_doubles(self):
        grid = TimeGrid(np.pi / 4.0, 300)
        traj = track_observable(SIGMA_Z, SIGMA_X, PLUS, grid)
        base = qsl_integral(traj, None, 1.0)
        val = lambda_form_bound(traj, self.fixed_r_corrections(grid.points.size, 0.5), 1.0)
        assert val == pytest.approx(2.0 * base.t_qslo[-1], rel=1e-12)

    def test_singular_average_reports_infinity(self):
        grid = TimeGrid(np.pi / 4.0, 300)
        traj = track_observable(SIGMA_Z, SIGMA_X, PLUS, grid)
        val = lambda_form_bound(traj, self.fixed_r_corrections(grid.points.size, 1.0), 1.0)
        assert math.isinf(val)

    def test_modular_window_lands_between_plain_bound_and_t(self):
        from qslbound.linalg import IDENTITY_2
        from qslbound.measures import modular_hamiltonian
        from qslbound.scenarios import initial_schmidt_state
        from qslbound.states import reduced_state

        p, theta, t_max = 0.1, 1.0, 0.5
        psi0 = initial_schmidt_state(p)
        h = theta * tensor_product(SIGMA_X, SIGMA_X)
        k0 = tensor_product(
            modular_hamiltonian(reduced_state(psi0, (2, 2), "A")), IDENTITY_2
        )
        grid = TimeGrid(t_max, 500)
        traj = track_observable(h, k0, psi0, grid)
        u_of_t = propagator_family(h)
        corrections = []
        for t in grid.points:
            u = u_of_t(t)
            try:
                corrections.append(correction_r(u.conj().T @ k0 @ u, h, psi0).r)
            except DegenerateObservableError:
                corrections.append(np.nan)
        delta_h = moments(h, psi0).std_dev
        plain = qsl_integral(traj, None, delta_h).t_qslo[-1]
        averaged = lambda_form_bound(traj, np.array(corrections), delta_h)
        assert plain - 1e-9 <= averaged <= t_max + 1e-6


class TestProjectorSpeedLimit:
    def test_full_decay(self):
        assert projector_speed_limit(1.0, 0.0, 1.0, 1.0) == pytest.approx(np.pi / 2.0)

    def test_no_change(self):
        assert projector_speed_limit(0.3, 0.3, 2.0, 1.5) == pytest.approx(0.0)

    def test_half_decay(self):
        assert projector_speed_limit(1.0, 0.5, 1.0, 1.0) == pytest.approx(np.pi / 4.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            projector_speed_limit(1.2, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            projector_speed_limit(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            projector_speed_limit(1.0, 0.0, 1.0, 0.5)


class TestEntanglementRateBound:
    def test_zero_capacity(self):
        assert entanglement_rate_bound(0.0, 1.0, 0.2) == 0.0

    def test_saturated_correction(self):
        assert entanglement_rate_bound(0.5, 1.0, 1.0) == 0.0

    def test_value(self):
        assert entanglement_rate_bound(0.25, 2.0, 0.5) == pytest.approx(1.0)

    def test_out_of_range_r(self):
        with pytest.raises(ValueError):
            entanglement_rate_bound(0.5, 1.0, 1.5)


class TestNormRateComparison:
    def test_xx_coupling(self):
        assert norm_rate_comparison(tensor_product(SIGMA_X, SIGMA_X), 2) == pytest.approx(
            np.log(2.0)
        )

    def test_zero_hamiltonian(self):
        assert norm_rate_comparison(np.zeros((4, 4)), 2) == 0.0

    def test_general_couplings(self):
        h = (
            tensor_product(SIGMA_X, SIGMA_X)
            + 0.5 * np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
            + 0.2 * tensor_product(SIGMA_Z, SIGMA_Z)
        )
        assert norm_rate_comparison(h, 2) == pytest.approx(spectral_norm(h) * np.log(2.0))
