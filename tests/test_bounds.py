import math

import numpy as np
import pytest
from conftest import assert_check, random_hermitian, random_state
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qslbound.bounds import (
    BoundCurve,
    _correlation,
    _r_from_c,
    correction_r,
    entanglement_rate_bound,
    norm_rate_comparison,
    qsl_integral,
    ratio_form_curve,
)
from qslbound.dynamics import TimeGrid, propagator_family, sample_heisenberg
from qslbound.linalg import SIGMA_X, SIGMA_Z, spectral_norm, tensor_product
from qslbound.scenarios import _EMPTY_BATTERY, battery_hamiltonians
from qslbound.states import DegenerateObservableError, _moments, moments

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET0 = np.array([1.0, 0.0], dtype=complex)


def battery_correction_at(t, omega=2.0, big_omega=1.0, j=1.0):
    h_b, _, _, h_t = battery_hamiltonians(omega, big_omega, j)
    u = propagator_family(h_t)(t)
    return correction_r(u.conj().T @ h_b @ u, h_t, _EMPTY_BATTERY)


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

    def test_larger_saturating_branch_is_not_preferred_in_three_dimensions(self):
        # d = 3, psi = e0, (A - <A>) psi = e1, (B - <B>) psi = c e1 + sqrt(0.4) e2
        # with |c|^2 = 0.6 and Im c = 0.1: the branches are r = 0.8 -+ 0.1, both
        # in range, and the larger one (0.9) saturates the relation.  The
        # closed form (1 + |c|^2)/2 - |Im c| is the smaller r, which does not.
        c = math.sqrt(0.59) + 0.1j
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
        v = np.array([0.0, c, math.sqrt(0.4)], dtype=complex)
        a = np.outer(e1, psi.conj()) + np.outer(psi, e1.conj())
        b = np.outer(v, psi.conj()) + np.outer(psi, v.conj())
        sample = correction_r(a, b, psi)
        assert sample.sign_branch == "plus"
        assert sample.r == pytest.approx(0.7, abs=1e-12)
        assert sample.rhs == pytest.approx(0.1, abs=1e-12)
        assert (1.0 - 0.9) == pytest.approx(sample.rhs, abs=1e-12)  # the other branch
        assert sample.holds and not sample.saturated
        _, rows_c = _correlation(psi[None], (a @ psi)[None], *_moments(psi[None], (b @ psi)[None]))
        assert rows_c[0] == pytest.approx(c, abs=1e-12)
        assert _r_from_c(rows_c)[0] == pytest.approx(0.7, abs=1e-12)

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
    def test_holds_randomized(self, run):
        assert_check(run, "speed-limits/uncertainty-fuzz-holds")

    def test_optimal_branch_saturates_randomized(self, run):
        assert_check(run, "speed-limits/optimal-branch-saturation")

    def test_identical_observables(self):
        chk = correction_r(SIGMA_Z, SIGMA_Z, PLUS)
        assert chk.lhs == pytest.approx(0.0, abs=1e-12)
        assert chk.rhs == pytest.approx(0.0, abs=1e-12)
        assert chk.holds


def definition_r(a, b, psi) -> tuple[float, str]:
    """r = (1/2)|<psi_perp|(A/dA -+ i B/dB)|psi>|^2, psi_perp = (A - <A>) psi / dA,
    on the sign whose commutator side +- (i/2)<[A, B]> is positive, and that
    sign's name; the branches coincide where <[A, B]> vanishes."""
    dev_a = a @ psi - np.vdot(psi, a @ psi).real * psi
    dev_b = b @ psi - np.vdot(psi, b @ psi).real * psi
    d_a, d_b = np.linalg.norm(dev_a), np.linalg.norm(dev_b)
    commutator = np.vdot(psi, (a @ b - b @ a) @ psi)
    branches = {}
    for name, sign in (("minus", -1.0), ("plus", 1.0)):
        r = 0.5 * abs(np.vdot(dev_a / d_a, (a / d_a + sign * 1j * b / d_b) @ psi)) ** 2
        branches[name] = (r, (-sign * 0.5j * commutator).real)
    name = max(branches, key=lambda k: branches[k][1])
    return branches[name][0], name


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_closed_form_matches_the_definition(d, seed):
    rng = np.random.default_rng(seed)
    a, b = random_hermitian(rng, d), random_hermitian(rng, d)
    states = np.array([random_state(rng, d) for _ in range(3)])
    assume(all(moments(o, psi).variance > 1e-6 for o in (a, b) for psi in states))
    expected = [definition_r(a, b, psi) for psi in states]
    for psi, (r, name) in zip(states, expected):
        sample = correction_r(a, b, psi)
        assert abs(sample.r - r) <= 1e-12
        assert sample.sign_branch == name
    rows_r = _r_from_c(_correlation(states, states @ a.T, *_moments(states, states @ b.T))[1])
    np.testing.assert_allclose(rows_r, [r for r, _ in expected], rtol=0.0, atol=1e-12)
    assert list(correction_r(a, b, states).sign_branch) == [name for _, name in expected]


def propagated_c(h, obs, psi, times):
    """The kernel's c of (O(t), H) in psi, O(t) = U^dag O U from
    ``propagator_family`` rather than the sampler's eigen-amplitudes."""
    u = propagator_family(h)(times)
    o_t = u.conj().swapaxes(-2, -1) @ obs @ u
    return _correlation(psi, o_t @ psi, *_moments(psi, h @ psi))[1]


class TestQslIntegral:
    def grid(self):
        return TimeGrid(np.pi / 4.0, 300)

    def single_qubit_inputs(self):
        grid = self.grid()
        samples = sample_heisenberg(SIGMA_Z, SIGMA_X, PLUS, grid.points)
        return grid, samples._replace(c=propagated_c(SIGMA_Z, SIGMA_X, PLUS, grid.points))

    def test_single_qubit_saturates(self):
        grid, samples = self.single_qubit_inputs()
        curve = qsl_integral(grid, samples, 1.0)
        assert np.max(np.abs(curve.t_qslo - grid.points)) <= 1e-6
        assert np.max(np.abs(curve.t_sqslo - grid.points)) <= 1e-6
        # R vanishes identically here, so the running average stays at zero.
        assert np.max(curve.r_bar[1:]) <= 1e-9

    def test_identity_observable_gives_zero_bound(self):
        grid = TimeGrid(1.0, 20)
        curve = qsl_integral(grid, sample_heisenberg(SIGMA_Z, np.eye(2), PLUS, grid.points), 1.0)
        assert np.allclose(curve.t_qslo, 0.0)
        assert np.allclose(curve.t_sqslo, 0.0)
        assert len(curve.warnings) == grid.points.size

    def test_random_system_hierarchy_and_monotonicity(self):
        rng = np.random.default_rng(47)
        h = random_hermitian(rng, 4)
        obs = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        grid = TimeGrid(1.0, 400)
        samples = sample_heisenberg(h, obs, psi, grid.points)
        samples = samples._replace(c=propagated_c(h, obs, psi, grid.points))
        curve = qsl_integral(grid, samples, moments(h, psi).std_dev)
        tol = max(1e-6, 2.0 * curve.quad_error)
        assert np.all(curve.t_sqslo <= grid.points + tol)
        assert np.all(curve.t_sqslo >= curve.t_qslo - 1e-9)
        assert np.all(np.diff(curve.t_qslo) >= -1e-9)
        assert np.all(np.diff(curve.t_sqslo) >= -1e-9)

    def test_rejects_bad_delta_h(self):
        grid, samples = self.single_qubit_inputs()
        with pytest.raises(ValueError, match="delta_h"):
            qsl_integral(grid, samples, 0.0)

    @pytest.mark.parametrize("integrate", [qsl_integral, ratio_form_curve])
    def test_rejects_a_stationary_initial_state(self, integrate):
        # psi0 an eigenvector of a random H: dH is at rounding level and c NaN on every sample.
        rng = np.random.default_rng(23)
        h = random_hermitian(rng, 4)
        psi0 = np.linalg.eigh(h)[1][:, 1]
        grid = TimeGrid(2.0, 40)
        samples = sample_heisenberg(h, random_hermitian(rng, 4), psi0, grid.points)
        with pytest.raises(ValueError, match="initial state is stationary"):
            integrate(grid, samples, moments(h, psi0).std_dev)

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
        # NaN compares False either way: non-finite inputs are refused too.
        for c_e, delta_h, r in [
            (np.nan, 1.0, 0.5), (np.inf, 1.0, 0.5), (-0.1, 1.0, 0.5),
            (0.5, np.nan, 0.5), (0.5, np.inf, 0.5), (0.5, 1.0, np.nan),
        ]:
            with pytest.raises(ValueError):
                entanglement_rate_bound(c_e, delta_h, r)

    def test_arrays_match_scalar_calls(self):
        c_e = np.array([0.0, 0.5, 0.25, 0.1])
        r = np.array([0.2, 1.0, 0.5, -1e-10])
        expected = [entanglement_rate_bound(c, 2.0, x) for c, x in zip(c_e, r)]
        assert np.array_equal(entanglement_rate_bound(c_e, 2.0, r), expected)
        with pytest.raises(ValueError, match="correction r"):
            entanglement_rate_bound(c_e, 2.0, np.array([0.2, 1.0, 1.5, 0.0]))


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
