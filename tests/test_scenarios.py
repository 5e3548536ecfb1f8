import math

import numpy as np
import pytest
from conftest import assert_check

from qslbound import verify
from qslbound.bounds import correction_r, qsl_integral
from qslbound.dynamics import TimeGrid, propagator_family, sample_heisenberg
from qslbound.linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, tensor_product
from qslbound.measures import (
    capacity_of_entanglement,
    entanglement_entropy,
    modular_hamiltonian,
)
from qslbound.scenarios import (
    _EMPTY_BATTERY,
    BatteryScenario,
    EntanglementScenario,
    battery_hamiltonians,
    canonical_hamiltonian,
    ce_see_closed_form,
    entanglement_setup,
    ergotropy_closed_form,
    initial_schmidt_state,
    modular_closed_form,
    run_battery_scenario,
    run_entanglement_scenario,
    run_modular_scenario,
)
from qslbound.states import moments, reduced_state, require_state

LN2 = math.log(2.0)
# Frozen scalar oracles for the p = 0.1 Schmidt spectrum.
S_19 = 0.3250829733914482
C_19 = 0.43450162589252944

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def small_grid(t_max=1.0, n=400):
    return TimeGrid(t_max, n)


# Parameter sets for the constant-operator forms: (mu1, mu2, mu3) of the
# canonical Hamiltonian and (omega, Omega, J) of the battery.
OPERATOR_PARAMS = [(1.0, 0.5, 0.25), (0.3, 0.3, 0.0), (2.7, 1.1, -0.4)]


class TestCanonicalHamiltonian:
    def test_zero(self):
        assert np.allclose(canonical_hamiltonian(0.0, 0.0, 0.0), np.zeros((4, 4)))

    def test_exchange_identity(self):
        h = canonical_hamiltonian(1.0, 1.0, 1.0)
        assert np.allclose(h, 2.0 * SWAP - np.eye(4))

    def test_single_coupling(self):
        assert np.allclose(
            canonical_hamiltonian(1.0, 0.0, 0.0), tensor_product(SIGMA_X, SIGMA_X)
        )

    def test_ordering_warning(self):
        with pytest.warns(UserWarning, match="ordering"):
            canonical_hamiltonian(0.1, 0.5, 0.0)

    @pytest.mark.filterwarnings("ignore:couplings")
    @pytest.mark.parametrize("mu", OPERATOR_PARAMS)
    def test_constant_products_equal_the_kronecker_form(self, mu):
        kron_form = (
            mu[0] * tensor_product(SIGMA_X, SIGMA_X)
            + mu[1] * tensor_product(SIGMA_Y, SIGMA_Y)
            + mu[2] * tensor_product(SIGMA_Z, SIGMA_Z)
        )
        assert np.array_equal(canonical_hamiltonian(*mu), kron_form)


class TestInitialSchmidtState:
    def test_product_limit(self):
        assert np.allclose(initial_schmidt_state(1.0), [1, 0, 0, 0])

    def test_bell_limit(self):
        psi = initial_schmidt_state(0.5)
        assert entanglement_entropy(reduced_state(psi, (2, 2), "A")) == pytest.approx(LN2)

    def test_reduced_spectrum(self):
        psi = initial_schmidt_state(0.1)
        lam = np.linalg.eigvalsh(reduced_state(psi, (2, 2), "A"))
        assert np.allclose(np.sort(lam), [0.1, 0.9])

    def test_range(self):
        with pytest.raises(ValueError):
            initial_schmidt_state(1.2)


class TestEntanglementSetup:
    @pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4])
    def test_closed_form_k0_equals_the_modular_hamiltonian(self, p):
        psi0, _, k0 = entanglement_setup(p, 1.0, 0.0)
        k_a = modular_hamiltonian(reduced_state(psi0, (2, 2), "A"))
        np.testing.assert_allclose(k0, tensor_product(k_a, IDENTITY_2), rtol=0.0, atol=1e-15)


class TestEntanglementClosedForms:
    def test_balanced_state_is_flat(self):
        for t in (0.0, 0.3, 1.1):
            c_e, s_ee = ce_see_closed_form(0.5, 1.0, t)
            assert c_e == pytest.approx(0.0, abs=1e-12)
            assert s_ee == pytest.approx(LN2, abs=1e-12)

    def test_quarter_period(self):
        c_e, s_ee = ce_see_closed_form(0.1, 1.0, math.pi / 4.0)
        assert c_e == pytest.approx(0.0, abs=1e-12)
        assert s_ee == pytest.approx(LN2, abs=1e-12)

    def test_initial_values_scalar_oracle(self):
        c_e, s_ee = ce_see_closed_form(0.1, 1.0, 0.0)
        assert c_e == pytest.approx(C_19, abs=1e-12)
        assert s_ee == pytest.approx(S_19, abs=1e-12)

    def test_rank_deficient_spectrum_returns_zero(self):
        # At p in {0, 1} the spectrum degenerates to {0, 1} whenever
        # cos(2 theta t) = +-1; the lambda log lambda convention gives (0, 0).
        assert ce_see_closed_form(0.0, 1.0, 0.0) == (0.0, 0.0)
        assert ce_see_closed_form(1.0, 1.0, 0.0) == (0.0, 0.0)
        assert ce_see_closed_form(1.0, 1.0, math.pi) == (0.0, 0.0)
        # Away from those times a product state does entangle.
        c_e, s_ee = ce_see_closed_form(0.0, 1.0, 0.2)
        lam = math.sin(0.2) ** 2
        expected_s = -(lam * math.log(lam) + (1 - lam) * math.log(1 - lam))
        assert s_ee == pytest.approx(expected_s, abs=1e-12)
        assert c_e > 0.0

    def test_matches_numeric_pipeline(self, run):
        assert_check(run, "scenarios/closed-forms")


class TestModularClosedForm:
    def test_initial_energy_equals_entropy(self):
        for p in (0.1, 0.3, 0.4):
            _, e_m = modular_closed_form(p, 1.0, 0.0)
            rho = np.diag([p, 1.0 - p]).astype(complex)
            assert e_m == pytest.approx(entanglement_entropy(rho), abs=1e-12)

    def test_initial_variance_equals_capacity(self):
        c_m, _ = modular_closed_form(0.1, 1.0, 0.0)
        assert c_m == pytest.approx(C_19, abs=1e-12)

    def test_quarter_period_value(self):
        c_m, _ = modular_closed_form(0.1, 1.0, math.pi / 4.0)
        assert c_m == pytest.approx(0.25 * math.log(9.0) ** 2, abs=1e-12)
        assert c_m == pytest.approx(1.206948960812582, abs=1e-12)

    def test_degenerate_p_rejected(self):
        for p in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError):
                modular_closed_form(p, 1.0, 0.1)

    def test_matches_numeric_pipeline(self, run):
        assert_check(run, "scenarios/closed-forms")


@pytest.mark.parametrize(
    "form, params",
    [
        (ce_see_closed_form, (0.1, 1.0)),
        # A product state: the rank-deficient samples at t = 0 and pi give (0, 0).
        (ce_see_closed_form, (0.0, 1.0)),
        (modular_closed_form, (0.3, 0.5)),
        (ergotropy_closed_form, (2.0, 1.0)),
    ],
    ids=["ce-see", "ce-see-product", "modular", "ergotropy"],
)
def test_closed_form_on_an_array_equals_its_scalar_calls(form, params):
    ts = np.linspace(0.0, math.pi, 41)
    on_array = np.array(form(*params, ts))
    elementwise = np.array([form(*params, t) for t in ts.tolist()])
    assert np.array_equal(on_array, elementwise.T)


class TestBatteryHamiltonians:
    def test_no_interaction_when_uncoupled(self):
        _, _, h_int, _ = battery_hamiltonians(2.0, 1.0, 0.0)
        assert np.allclose(h_int, 0.0)

    def test_sum_is_exact(self):
        h_b, h_c, h_int, h_t = battery_hamiltonians(2.0, 1.0, 1.0)
        assert np.array_equal(h_b + h_c + h_int, h_t)

    def test_stored_energy_window(self):
        h_b, _, _, _ = battery_hamiltonians(2.0, 1.0, 1.0)
        vals = np.linalg.eigvalsh(h_b)
        assert np.allclose(vals, [-4.0, 0.0, 0.0, 4.0])
        assert vals[-1] - vals[0] == pytest.approx(8.0)  # 4 * omega

    def test_total_spread_in_empty_state(self):
        _, _, _, h_t = battery_hamiltonians(2.0, 1.0, 1.0)
        assert moments(h_t, _EMPTY_BATTERY).std_dev == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("params", OPERATOR_PARAMS)
    def test_total_variance_in_empty_state_is_two_omega_squared(self, params):
        # The closed form behind BatteryScenario's eigenstate refusal.
        _, _, _, h_t = battery_hamiltonians(*params)
        variance = moments(h_t, _EMPTY_BATTERY).variance
        assert variance == pytest.approx(2.0 * params[1] ** 2, rel=1e-12)

    @pytest.mark.parametrize("params", OPERATOR_PARAMS)
    def test_constant_products_equal_the_kronecker_form(self, params):
        omega, big_omega, j = params
        x, y, z, i = SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2
        h_b = omega * (tensor_product(z, i) + tensor_product(i, z))
        h_c = big_omega * (tensor_product(x, i) + tensor_product(i, x))
        h_int = j * (tensor_product(x, x) + tensor_product(y, y) + tensor_product(z, z))
        expected = (h_b, h_c, h_int, h_b + h_c + h_int)
        for got, want in zip(battery_hamiltonians(*params), expected):
            assert np.array_equal(got, want)


class TestEmptyBattery:
    def test_is_the_basis_state_11(self):
        down = np.array([0.0, 1.0], dtype=complex)
        assert np.array_equal(require_state(_EMPTY_BATTERY), np.kron(down, down))

    def test_has_the_lowest_stored_energy(self):
        h_b, _, _, _ = battery_hamiltonians(2.0, 1.0, 1.0)
        assert np.array_equal(h_b @ _EMPTY_BATTERY, -4.0 * _EMPTY_BATTERY)
        assert np.min(np.linalg.eigvalsh(h_b)) == -4.0

    def test_unentangled(self):
        rho = reduced_state(_EMPTY_BATTERY, (2, 2), "A")
        assert capacity_of_entanglement(rho) <= 1e-12
        assert entanglement_entropy(rho) <= 1e-10


class TestErgotropy:
    def test_starts_empty(self):
        curve = run_battery_scenario(
            BatteryScenario(omega=2.0, big_omega=1.0, j=1.0, grid=small_grid(2.0))
        )
        assert curve.mean_values[0] == 0.0

    def test_peak_value(self):
        t_star = math.pi / (2.0 * math.sqrt(5.0))
        grid = TimeGrid(t_star, 100)
        curve = run_battery_scenario(
            BatteryScenario(omega=2.0, big_omega=1.0, j=1.0, grid=grid)
        )
        assert curve.mean_values[-1] == pytest.approx(1.6, abs=1e-10)
        assert ergotropy_closed_form(2.0, 1.0, t_star) == pytest.approx(1.6)

    def test_closed_form_and_j_independence(self, run):
        assert_check(run, "scenarios/closed-forms")
        assert_check(run, "scenarios/ergotropy-j-independence")

    def test_never_exceeds_capacity(self):
        for big_omega in (1.0, 4.0):
            grid = small_grid(3.0)
            curve = run_battery_scenario(
                BatteryScenario(omega=2.0, big_omega=big_omega, j=1.0, grid=grid)
            )
            assert np.max(curve.mean_values) <= 4.0 * 2.0 + 1e-9


class TestScenarioValidation:
    def test_degenerate_p_rejected(self):
        for p in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError, match="degenerate"):
                EntanglementScenario(p=p, theta=1.0, grid=small_grid())

    def test_zero_theta_rejected(self):
        with pytest.raises(ValueError):
            EntanglementScenario(p=0.1, theta=0.0, grid=small_grid())

    def test_battery_validation(self):
        with pytest.raises(ValueError):
            BatteryScenario(omega=-1.0, big_omega=1.0, j=0.0, grid=small_grid())

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["theta", "mu3"])
    def test_non_finite_entanglement_parameter_rejected(self, name, value):
        params = {"p": 0.1, "theta": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            EntanglementScenario(**params, grid=small_grid())

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "field, name", [("omega", "omega"), ("big_omega", "Omega"), ("j", "J")]
    )
    def test_non_finite_battery_parameter_rejected(self, field, name, value):
        params = {"omega": 2.0, "big_omega": 1.0, "j": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            BatteryScenario(**params, grid=small_grid(2.0))

    def test_battery_eigenstate_rejected(self):
        # With no drive the empty state is stationary under H_T.
        with pytest.raises(ValueError, match="eigenstate"):
            BatteryScenario(omega=2.0, big_omega=0.0, j=0.0, grid=small_grid(2.0))

    def test_battery_refusal_boundary(self):
        # Refused where Var(H_T) = 2 Omega^2 <= 1e-12.
        with pytest.raises(ValueError, match="eigenstate"):
            BatteryScenario(omega=2.0, big_omega=5e-7, j=1.0, grid=small_grid(2.0))
        BatteryScenario(omega=2.0, big_omega=1e-6, j=1.0, grid=small_grid(2.0))


class TestRunEntanglement:
    def test_hierarchy_and_strict_improvement(self):
        curve = run_entanglement_scenario(
            EntanglementScenario(p=0.1, theta=1.0, grid=small_grid())
        )
        ts = curve.grid.points
        tol = max(1e-6, 2.0 * curve.quad_error)
        assert np.all(curve.t_sqslo <= ts + tol)
        assert np.all(curve.t_sqslo[1:] > curve.t_qslo[1:])
        assert curve.t_sqslo[0] == 0.0 and curve.t_qslo[0] == 0.0

    def test_theta_sweep_hierarchy(self):
        for theta in (0.5, 1.5, 2.0):
            curve = run_entanglement_scenario(
                EntanglementScenario(p=0.1, theta=theta, grid=small_grid())
            )
            tol = max(1e-6, 2.0 * curve.quad_error)
            assert np.all(curve.t_sqslo <= curve.grid.points + tol)
            assert np.all(curve.t_sqslo >= curve.t_qslo - 1e-9)

    def test_mean_values_are_entropies(self):
        curve = run_entanglement_scenario(
            EntanglementScenario(p=0.1, theta=1.0, grid=small_grid(n=200))
        )
        _, expected = ce_see_closed_form(0.1, 1.0, curve.grid.points)
        assert np.allclose(curve.mean_values, expected, atol=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("run_scenario", [run_entanglement_scenario, run_modular_scenario])
    def test_an_overflowing_hamiltonian_is_refused(self, run_scenario):
        # theta + |mu3| overflows to inf, and inf * 0 in theta XX is NaN.
        scn = EntanglementScenario(p=0.1, theta=1e308, mu3=1e308, grid=small_grid(1.0, 16))
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            run_scenario(scn)

    def test_flat_spectrum_sample_is_excluded_with_warning(self):
        # A grid hitting t = pi/4 exactly lands on the zero of the capacity,
        # where no correction is defined; the sample must be warned about.
        grid = TimeGrid(math.pi / 2.0, 200)
        curve = run_entanglement_scenario(
            EntanglementScenario(p=0.1, theta=1.0, grid=grid)
        )
        warn_times = [t for t, reason in curve.warnings if "correction" in reason]
        assert any(abs(t - math.pi / 4.0) < 1e-12 for t in warn_times)
        tol = max(1e-6, 2.0 * curve.quad_error)
        assert np.all(curve.t_sqslo <= grid.points + tol)


class TestRunModular:
    def test_saturation(self, run):
        assert_check(run, "scenarios/modular-saturation")

    def test_uncorrected_bound_is_loose(self):
        curve = run_modular_scenario(
            EntanglementScenario(p=0.1, theta=1.0, grid=small_grid())
        )
        assert np.all(curve.t_qslo[1:] < curve.t_sqslo[1:])

    def test_initial_sample_is_excluded_with_warning(self):
        # At t = 0 the correction saturates (r = 1) while the mean is
        # stationary; the sample is filled from its neighbor and warned about.
        curve = run_modular_scenario(
            EntanglementScenario(p=0.1, theta=1.0, grid=small_grid(n=200))
        )
        assert any(t == 0.0 for t, _ in curve.warnings)
        assert curve.t_sqslo[1] == pytest.approx(curve.grid.points[1], rel=1e-6)

    def test_every_healthy_sample_saturates_relation(self):
        scn = EntanglementScenario(p=0.1, theta=1.0, grid=small_grid(n=200))
        psi0 = initial_schmidt_state(scn.p)
        h = canonical_hamiltonian(scn.theta, 0.0, 0.0)
        k0 = tensor_product(
            modular_hamiltonian(reduced_state(psi0, (2, 2), "A")), IDENTITY_2
        )
        u_of_t = propagator_family(h)
        for t in scn.grid.points[1:]:
            u = u_of_t(t)
            sample = correction_r(u.conj().T @ k0 @ u, h, psi0)
            assert sample.saturated


class TestRunBattery:
    def test_coupled_and_decoupled_saturate_and_overlap(self, run):
        assert_check(run, "scenarios/battery-saturation-overlap")

    def test_parallel_collective_qslo_overlap(self, run):
        assert_check(run, "scenarios/battery-qslo-parallel-collective")

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_hamiltonian_is_refused(self):
        # omega is finite; omega (Z x I + I x Z) overflows to inf.
        scn = BatteryScenario(omega=1e308, big_omega=1.0, j=0.0, grid=small_grid(1.0, 16))
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            run_battery_scenario(scn)

    def test_long_window_stays_on_diagonal(self):
        grid = small_grid(6.0, n=2400)
        curve = run_battery_scenario(
            BatteryScenario(omega=2.0, big_omega=1.0, j=1.0, grid=grid)
        )
        ts = grid.points
        mask = ts >= 0.05
        assert np.max(np.abs(curve.t_sqslo[mask] - ts[mask]) / ts[mask]) <= 1e-10

    def test_random_product_states_keep_hierarchy(self):
        # Away from the empty battery the dynamics leaves the effective
        # two-level subspace and the bound is not saturated, but the
        # hierarchy and monotonicity must survive.
        rng = np.random.default_rng(99)
        for _ in range(5):
            polar = rng.uniform(0.05, math.pi - 0.05, 2)
            phase = rng.uniform(0.0, 2.0 * math.pi, 2)
            h_b, _, _, h_t = battery_hamiltonians(
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(0.3, 3.0)),
                float(rng.uniform(-1.5, 1.5)),
            )
            # The product of one cell state (sin a e^{i phi}, cos a) per cell.
            cells = np.stack([np.sin(polar) * np.exp(1j * phase), np.cos(polar)], axis=1)
            psi0 = np.kron(cells[0], cells[1])
            grid = small_grid(2.0, n=600)
            samples = sample_heisenberg(h_t, h_b, psi0, grid.points)
            curve = qsl_integral(grid, samples, moments(h_t, psi0).std_dev)
            ts = curve.grid.points
            tol = max(1e-6, 2.0 * curve.quad_error)
            assert np.all(curve.t_sqslo <= ts + tol)
            assert np.all(curve.t_sqslo >= curve.t_qslo - 1e-9)
            assert np.all(np.diff(curve.t_qslo) >= -1e-9)
            assert np.all(np.diff(curve.t_sqslo) >= -1e-9)

    def test_every_healthy_sample_saturates_relation(self):
        from qslbound.states import DegenerateObservableError

        for big_omega in (1.0, 4.0):
            h_b, _, _, h_t = battery_hamiltonians(2.0, big_omega, 1.0)
            psi0 = _EMPTY_BATTERY
            u_of_t = propagator_family(h_t)
            healthy = 0
            for t in np.linspace(0.02, 2.0, 100):
                u = u_of_t(t)
                try:
                    sample = correction_r(u.conj().T @ h_b @ u, h_t, psi0)
                except DegenerateObservableError:
                    continue
                assert sample.saturated
                healthy += 1
            assert healthy >= 95


class TestRecordedForms:
    """The transcribed closed forms are fixtures: in-range samples must match
    the pipeline, and the one known-bad form must stay flagged.  Each test
    runs the ``fixtures/*`` check of the verify registry that holds it."""

    def test_coupled_battery_form_matches(self, run):
        assert_check(run, "fixtures/battery-coupled-r")

    def test_parallel_battery_form_matches_where_in_range(self, run):
        assert_check(run, "fixtures/battery-parallel-r")

    def test_decoupled_form_known_discrepancy(self, run):
        # The recorded decoupled expression does not match its labeled
        # parameters (Omega = 4); it reproduces an Omega = 2 run instead.
        assert_check(run, "fixtures/battery-decoupled-r", verify.KNOWN)

    def test_entanglement_r_form_matches_where_in_range(self, run):
        assert_check(run, "fixtures/entanglement-r")

    def test_entanglement_perp_overlap(self, run):
        assert_check(run, "fixtures/entanglement-perp")

    def test_modular_perp_overlap(self, run):
        assert_check(run, "fixtures/modular-perp")

    def test_battery_coupled_perp_overlap(self, run):
        assert_check(run, "fixtures/battery-coupled-perp")
