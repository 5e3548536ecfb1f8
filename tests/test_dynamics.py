import ast
import math
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_check, random_hermitian, random_state
from test_sampler import assert_matches, scalar_reference

import qslbound.dynamics as dynamics
from qslbound.dynamics import (
    MIN_GRID_STEPS,
    SAMPLE_BLOCK,
    TimeGrid,
    propagator_family,
    sample_entanglement,
    sample_heisenberg,
)
from qslbound.linalg import IDENTITY_2, SIGMA_X, SIGMA_Z, tensor_product
from qslbound.measures import modular_hamiltonian
from qslbound.presets import PRESETS
from qslbound.scenarios import entanglement_setup, initial_schmidt_state
from qslbound.states import moments, reduced_state

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
        # 5e-324 / 2 rounds to 0: every sample but the last would sit at T = 0.
        for make in (lambda: TimeGrid(5e-324, 2), lambda: TimeGrid.with_resolution(5e-324)):
            with pytest.raises(ValueError, match="underflows to 0"):
                make()
        assert TimeGrid(1e-320, 16).dx > 0.0

    def test_resolution_default(self):
        grid = TimeGrid.with_resolution(1.0)
        assert grid.n_steps == 2000
        assert TimeGrid.with_resolution(0.001).n_steps >= 16
        assert TimeGrid.with_resolution(1.0001).n_steps % 2 == 0

    @pytest.mark.parametrize("t_max", [np.inf, np.nan])
    def test_resolution_rejects_non_finite_window(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            TimeGrid.with_resolution(t_max)

    def test_points_are_linspace_bit_for_bit(self):
        # Every preset window at the default grid, 64 and 400 steps, the
        # coarsest default grid, and odd windows; n * (t_max / n) != t_max for
        # the last three, so their endpoint must be set.
        windows = {run.t_max for preset in PRESETS.values() for run in preset.runs}
        grids = [TimeGrid.with_resolution(t, n) for t in windows for n in (None, 64, 400)]
        grids.append(TimeGrid.with_resolution(1e-3))
        odd = [(math.pi, 17), (1.0 / 3.0, 999), (7.77, MIN_GRID_STEPS), (2.5e-7, 5), (1e15, 1001),
               (1.765, 6), (0.415, 41), (7.86, 27)]
        grids += [TimeGrid(t, n) for t, n in odd]
        assert any(grid.n_steps == MIN_GRID_STEPS for grid in grids)
        for grid in grids:
            expected = np.linspace(0.0, grid.t_max, grid.n_steps + 1)
            assert grid.points.tobytes() == expected.tobytes(), (grid.t_max, grid.n_steps)


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


class TestStationaryState:
    """psi0 an eigenvector of H: dH = 0, so c is undefined on every sample,
    and no observable moves."""

    @pytest.mark.parametrize("exact", [False, True], ids=["rounded", "exact"])
    def test_c_is_nan_and_derivatives_vanish_without_warnings(self, exact):
        # A random H and one of its eigenvectors (dH at rounding level), or a
        # diagonal H and a basis state (dH and (H - <H>) psi exactly 0).
        rng = np.random.default_rng(23)
        h = np.diag([0.3, -1.0, 2.0, 0.5]).astype(complex) if exact else random_hermitian(rng, 4)
        psi0 = np.eye(4, dtype=complex)[1] if exact else np.linalg.eigh(h)[1][:, 1]
        ts = TimeGrid(2.0, 40).points
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            heisenberg = sample_heisenberg(h, random_hermitian(rng, 4), psi0, ts)
            entanglement = sample_entanglement(h, psi0, (2, 2), ts)
            for samples in (heisenberg, entanglement):
                assert np.isnan(samples.c).all() and np.isnan(samples.r).all()
                np.testing.assert_allclose(samples.derivatives, 0.0, rtol=0.0, atol=1e-12)
        assert (heisenberg.std_devs > 1e-3).all()  # c is undefined through dH alone


def bell_under_local_h():
    # A local H keeps the Bell state maximally entangled.  This one is diagonal,
    # so rho_A = I/2 exactly (r = 0) at every sample: c is NaN and the derivative 0.
    h = 0.7 * tensor_product(SIGMA_Z, IDENTITY_2) + 0.4 * tensor_product(IDENTITY_2, SIGMA_Z)
    return h, np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0), (2, 2), [0.0, 0.3, 1.1]


def fig3_schmidt_crossing():
    # The 9 default-grid samples of fig3's theta = 1.5 curve nearest pi/(4 theta),
    # where the Schmidt weights cross and r passes through 0.
    psi0, h, _ = entanglement_setup(0.1, 1.5, 0.0)
    grid = TimeGrid.with_resolution(1.0)
    k = round(np.pi / 6.0 / grid.dx)
    return h, psi0, (2, 2), grid.points[k - 4 : k + 5]


def random_bipartite(dims):
    rng = np.random.default_rng(37 + dims[1])
    d = dims[0] * dims[1]
    return random_hermitian(rng, d), random_state(rng, d), dims, [0.0, 0.4, 1.7]


def product_state():
    # rho_A is pure at t = 0, so l- is clamped to LOG_EIG_FLOOR.
    h = random_hermitian(np.random.default_rng(3), 4)
    return h, np.eye(4, dtype=complex)[0], (2, 2), [0.0, 0.5]


TWO_LEVEL_CASES = {
    "bell": bell_under_local_h,
    "fig3-crossing": fig3_schmidt_crossing,
    "dims-2x3": lambda: random_bipartite((2, 3)),
    "dims-2x4": lambda: random_bipartite((2, 4)),
    "product": product_state,
}


@pytest.mark.parametrize("case", list(TWO_LEVEL_CASES))
def test_two_level_modular_operator_matches_the_eigh_reference(case, monkeypatch):
    """For d_A = 2 the sampler forms K psi in closed form: it matches -log rho_A
    from ``modular_hamiltonian``, and its only eigendecomposition is H's."""
    h, psi0, dims, ts = TWO_LEVEL_CASES[case]()
    u_of_t = propagator_family(h)
    expected = []
    for t in ts:
        psi_t = u_of_t(t) @ psi0
        k = modular_hamiltonian(reduced_state(psi_t, dims, "A"))
        expected.append(scalar_reference(tensor_product(k, np.eye(dims[1])), h, psi_t))
    calls, real = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(a) or real(a, *args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = sample_entanglement(h, psi0, dims, ts)
    monkeypatch.undo()
    assert len(calls) == 1 and np.array_equal(calls[0], h)
    assert_matches(samples, expected)


@pytest.mark.parametrize("picture", ["heisenberg", "entanglement"])
def test_grid_blocks_reuse_the_first_blocks_phases(picture):
    """On a TimeGrid the core shifts block 0's phases by exp(-iE t_start) for
    each later block; the public samplers take every time directly."""
    rng = np.random.default_rng(41)
    h, obs, psi0 = random_hermitian(rng, 4), random_hermitian(rng, 4), random_state(rng, 4)
    if picture == "heisenberg":
        core, public = partial(dynamics._heisenberg, h, obs, psi0), partial(sample_heisenberg, h, obs, psi0)
    else:
        core, public = partial(dynamics._entanglement, h, psi0, (2, 2)), partial(sample_entanglement, h, psi0, (2, 2))
    grid = TimeGrid(3.0, 2 * SAMPLE_BLOCK + 6)  # three blocks, the last one short
    shifted, direct = core(grid), public(grid.points)
    assert shifted.delta_h == direct.delta_h
    shifted, direct = np.array(shifted[:-1]), np.array(direct[:-1])  # the per-sample columns
    np.testing.assert_allclose(shifted, direct, rtol=0.0, atol=1e-13)
    assert shifted[:, :SAMPLE_BLOCK].tobytes() == direct[:, :SAMPLE_BLOCK].tobytes()
    one_block = TimeGrid(1.0, 100)
    assert np.array(core(one_block)[:-1]).tobytes() == np.array(public(one_block.points)[:-1]).tobytes()


def identity_gaps() -> list:
    """The largest |d<O>/dt - 2 dO dH Im c| of each sampled run, for random
    (H, O, psi0) of d = 2..8 in both pictures.  In the Heisenberg picture the derivative
    comes from the commutator rows and c from the deviation rows, so each checks the other;
    in the entanglement picture both come from the K psi and deviation rows, and the gap
    checks only the arithmetic that c's kernel does on them."""
    rng = np.random.default_rng(29)
    ts = np.linspace(0.0, 2.0, 9)
    bipartitions = {4: (2, 2), 6: (2, 3), 8: (4, 2)}
    gaps = []
    for d in range(2, 9):
        h, obs, psi0 = random_hermitian(rng, d), random_hermitian(rng, d), random_state(rng, d)
        delta_h = moments(h, psi0).std_dev
        runs = [sample_heisenberg(h, obs, psi0, ts)]
        if d in bipartitions:
            runs.append(sample_entanglement(h, psi0, bipartitions[d], ts))
        for s in runs:
            gaps.append(np.abs(s.derivatives - 2.0 * s.std_devs * delta_h * s.c.imag).max())
    return gaps


class TestRateIdentity:
    """d<O>/dt = i<[H, O]> = 2 Im <(O - <O>) psi|(H - <H>) psi> = 2 dO dH Im c."""

    def test_derivative_equals_the_signed_correlation(self):
        assert max(identity_gaps()) <= 1e-10

    def test_a_deviation_row_scaled_the_wrong_way_fails(self, monkeypatch):
        # Multiplies (H - <H>) psi by dH where the kernel divides by it.
        real = dynamics._correlation
        monkeypatch.setattr(
            dynamics, "_correlation", lambda psi, a_psi, dev_b, mb: real(psi, a_psi, dev_b * mb.variance, mb)
        )
        assert max(identity_gaps()) > 1e-3


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

    @pytest.mark.parametrize("times", [[[0.0, 1.0]], [0.0, np.nan], [np.inf]])
    def test_times(self, times):
        with pytest.raises(ValueError, match="sample times"):
            sample_heisenberg(H4, O4, PSI4, times)
        with pytest.raises(ValueError, match="sample times"):
            sample_entanglement(H4, PSI4, (2, 2), times)

    def test_valid_operands_are_sampled(self):
        # The spoiled operands above differ from these in one entry.
        assert np.all(np.isfinite(sample_heisenberg(H4, O4, PSI4, TIMES).means))
        assert np.all(np.isfinite(sample_entanglement(H4, PSI4, (2, 2), TIMES).means))


# The package's layers, lowest first: the sampler sits below the bounds.
LAYERS = (
    "linalg", "states", "measures", "dynamics", "quadrature", "bounds",
    "scenarios", "presets", "emit", "reference_forms", "verify", "cli",
)


def package_imports(source: str) -> set:
    """The qslbound modules that the import statements of ``source`` name,
    at module level or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["qslbound" if node.level else "", node.module]))
            paths = [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        else:
            continue
        found |= {path.split(".")[1] for path in paths if path.startswith("qslbound.")}
    return found


def test_each_module_imports_only_the_layers_below_it():
    package = Path(dynamics.__file__).parent
    assert {p.stem for p in package.glob("*.py")} - {"__init__"} == set(LAYERS)
    for rank, name in enumerate(LAYERS):
        above = package_imports((package / f"{name}.py").read_text(encoding="utf-8")) - set(LAYERS[:rank])
        assert not above, f"{name} imports {sorted(above)}"
