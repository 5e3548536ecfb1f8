"""Machine-checkable invariant suite behind ``qslbound verify``.

Every check returns pass/fail with a one-line detail; recorded closed-form
fixtures that are known to disagree with the pipeline report the separate
status ``known-discrepancy`` so they are bookkept apart from failures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import reference_forms as ref
from .bounds import (
    correction_r,
    entanglement_rate_bound,
    norm_rate_comparison,
    qsl_integral,
    uncertainty_check,
)
from .emit import render_csv
from .dynamics import (
    TimeGrid,
    propagator_family,
    sample_entanglement,
    sample_heisenberg,
    track_observable,
)
from .linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    hermitian_eig,
    partial_trace,
    tensor_product,
)
from .measures import capacity_of_entanglement, modular_hamiltonian
from .presets import PRESETS, build_preset_curves
from .scenarios import (
    BatteryScenario,
    EntanglementScenario,
    battery_hamiltonians,
    entanglement_closed_form_reports,
    ergotropy_closed_form_report,
    general_product_state,
    initial_schmidt_state,
    modular_closed_form_reports,
    run_battery_scenario,
    run_modular_scenario,
)
from .states import (
    DegenerateObservableError,
    moments,
    perpendicular_state,
    reduced_state,
    require_state,
)

DEFAULT_SEED = 20240801


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "known-discrepancy"
    detail: str


def _random_hermitian(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def _random_state(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _random_density(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _grid_for(t_max: float, n_steps: Optional[int]) -> TimeGrid:
    if n_steps is not None:
        return TimeGrid(t_max, n_steps)
    return TimeGrid.with_resolution(t_max)


def _check(name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    try:
        ok, detail = fn()
    except Exception as exc:  # surfaced as a failed check, not a crash
        return CheckResult(name, "fail", f"raised {type(exc).__name__}: {exc}")
    return CheckResult(name, "pass" if ok else "fail", detail)


def run_verify(n_steps: Optional[int] = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every invariant check; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    add = results.append

    def eig_reconstruction():
        worst = 0.0
        for _ in range(250):
            for d in (2, 4, 8, 16):
                m = _random_hermitian(rng, d)
                vals, vecs = hermitian_eig(m)
                worst = max(
                    worst,
                    float(np.max(np.abs((vecs * vals) @ vecs.conj().T - m))),
                    float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(d)))),
                )
        return worst <= 1e-10, f"max reconstruction/unitarity defect {worst:.2e}"

    add(_check("operator-core/eig-reconstruction", eig_reconstruction))

    def propagator_unitarity():
        worst = 0.0
        for _ in range(100):
            d = int(rng.choice([2, 4, 8]))
            u_of_t = propagator_family(_random_hermitian(rng, d))
            t = float(rng.uniform(-100.0, 100.0))
            u = u_of_t(t)
            worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(d)))))
        return worst <= 1e-10, f"max unitarity defect {worst:.2e}"

    add(_check("operator-core/propagator-unitarity", propagator_unitarity))

    def partial_trace_density():
        worst_tr, worst_eig = 0.0, 0.0
        for _ in range(200):
            rho = _random_density(rng, 4)
            for keep in ("A", "B"):
                red = partial_trace(rho, (2, 2), keep)
                worst_tr = max(worst_tr, abs(np.trace(red).real - 1.0))
                worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(red)[0]))
        ok = worst_tr <= 1e-12 and worst_eig <= 1e-12
        return ok, f"trace defect {worst_tr:.2e}, negativity {worst_eig:.2e}"

    add(_check("operator-core/partial-trace-density", partial_trace_density))

    def tensor_trace():
        worst = 0.0
        for _ in range(200):
            a = _random_hermitian(rng, 2)
            b = _random_hermitian(rng, 3)
            worst = max(
                worst,
                abs(np.trace(tensor_product(a, b)) - np.trace(a) * np.trace(b)),
            )
        return worst <= 1e-12, f"max trace defect {worst:.2e}"

    add(_check("operator-core/tensor-product-trace", tensor_trace))

    def perpendicular_orthogonality():
        worst = 0.0
        trials = 0
        while trials < 1000:
            d = int(rng.choice([2, 3, 4, 8]))
            obs = _random_hermitian(rng, d)
            psi = _random_state(rng, d)
            if moments(obs, psi).variance <= 1e-6:
                continue
            perp = perpendicular_state(obs, psi)
            worst = max(
                worst,
                abs(np.vdot(perp, psi)),
                abs(np.linalg.norm(perp) - 1.0),
            )
            trials += 1
        return worst <= 1e-10, f"max overlap/norm defect {worst:.2e}"

    add(_check("quantum-state/perpendicular-orthogonality", perpendicular_orthogonality))

    def moments_density_crosscheck():
        from .states import density_from_pure

        worst = 0.0
        for _ in range(500):
            d = int(rng.choice([2, 3, 4]))
            obs = _random_hermitian(rng, d)
            psi = _random_state(rng, d)
            m = moments(obs, psi)
            rho = density_from_pure(psi)
            mean = np.trace(rho @ obs).real
            var = np.trace(rho @ obs @ obs).real - mean * mean
            worst = max(worst, abs(m.mean - mean), abs(m.variance - var))
        return worst <= 1e-10, f"max deviation {worst:.2e}"

    add(_check("quantum-state/moments-density-crosscheck", moments_density_crosscheck))

    def schmidt_rank():
        worst = 0.0
        for _ in range(200):
            psi = _random_state(rng, 4)
            lam = np.linalg.eigvalsh(reduced_state(psi, (2, 2), "A"))
            worst = max(worst, abs(float(lam.sum()) - 1.0))
        return worst <= 1e-12, f"max weight-sum defect {worst:.2e}"

    add(_check("quantum-state/two-qubit-schmidt-rank", schmidt_rank))

    def capacity_equals_variance():
        worst = 0.0
        for _ in range(500):
            d = int(rng.choice([2, 3, 4]))
            rho = _random_density(rng, d)
            k = modular_hamiltonian(rho)
            var = float(np.trace(rho @ k @ k).real - np.trace(rho @ k).real ** 2)
            worst = max(worst, abs(var - capacity_of_entanglement(rho)))
        return worst <= 1e-9, f"max deviation {worst:.2e}"

    add(_check("info-measures/capacity-equals-modular-variance", capacity_equals_variance))

    def entropy_unitary_invariance():
        from .measures import entanglement_entropy

        worst = 0.0
        for _ in range(200):
            d = int(rng.choice([2, 3, 4]))
            rho = _random_density(rng, d)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, r = np.linalg.qr(g)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            worst = max(
                worst,
                abs(
                    entanglement_entropy(u @ rho @ u.conj().T)
                    - entanglement_entropy(rho)
                ),
            )
        return worst <= 1e-10, f"max deviation {worst:.2e}"

    add(_check("info-measures/entropy-unitary-invariance", entropy_unitary_invariance))

    def ergotropy_bruteforce():
        import itertools

        from .measures import ergotropy_max

        worst = 0.0
        for _ in range(100):
            d = int(rng.choice([2, 3, 4]))
            rho = _random_density(rng, d)
            h = _random_hermitian(rng, d)
            pops = np.linalg.eigvalsh(rho)
            energies = np.linalg.eigvalsh(h)
            best = min(
                float(np.dot(pops[list(perm)], energies))
                for perm in itertools.permutations(range(d))
            )
            expected = np.trace(rho @ h).real - best
            worst = max(worst, abs(ergotropy_max(rho, h) - expected))
        return worst <= 1e-10, f"max deviation {worst:.2e}"

    add(_check("info-measures/ergotropy-bruteforce", ergotropy_bruteforce))

    def picture_equivalence():
        worst = 0.0
        for _ in range(500):
            h = _random_hermitian(rng, 4)
            obs = _random_hermitian(rng, 4)
            psi = _random_state(rng, 4)
            t = float(rng.uniform(-5.0, 5.0))
            u = propagator_family(h)(t)
            heis = np.vdot(psi, (u.conj().T @ obs @ u) @ psi).real
            schro = np.vdot(u @ psi, obs @ (u @ psi)).real
            worst = max(worst, abs(heis - schro))
        return worst <= 1e-10, f"max picture mismatch {worst:.2e}"

    add(_check("dynamics/picture-equivalence", picture_equivalence))

    def derivative_consistency():
        grid = TimeGrid(1.0, 400)
        traj = track_observable(SIGMA_Z, SIGMA_X, np.array([1, 1]) / np.sqrt(2), grid)
        dx = grid.dx
        fd = (traj.means[2:] - traj.means[:-2]) / (2.0 * dx)
        worst = float(np.max(np.abs(fd - traj.derivatives[1:-1])))
        # scale: the third derivative of <O(t)> is capped by (2||H||)^3 ||O||.
        return worst <= 10.0 * dx * dx * 8.0, f"max FD mismatch {worst:.2e}"

    add(_check("dynamics/derivative-consistency", derivative_consistency))

    def energy_conservation():
        h = _random_hermitian(rng, 4)
        psi = _random_state(rng, 4)
        traj = track_observable(h, h, psi, TimeGrid(2.0, 100))
        drift = float(np.max(np.abs(traj.means - traj.means[0])))
        zero = float(np.max(np.abs(traj.derivatives)))
        return drift <= 1e-10 and zero <= 1e-10, f"drift {drift:.2e}"

    add(_check("dynamics/energy-conservation", energy_conservation))

    def uncertainty_fuzz():
        worst_violation = -math.inf
        trials = 0
        while trials < 1000:
            d = int(rng.choice([2, 4, 8]))
            a = _random_hermitian(rng, d)
            b = _random_hermitian(rng, d)
            psi = _random_state(rng, d)
            try:
                chk = uncertainty_check(a, b, psi)
            except DegenerateObservableError:
                continue
            worst_violation = max(worst_violation, chk.rhs - chk.lhs)
            trials += 1
        return worst_violation <= 1e-9, f"worst rhs - lhs = {worst_violation:.2e}"

    add(_check("speed-limits/uncertainty-fuzz-holds", uncertainty_fuzz))

    def optimal_saturation():
        worst = 0.0
        trials = 0
        while trials < 1000:
            d = int(rng.choice([2, 4, 8]))
            a = _random_hermitian(rng, d)
            b = _random_hermitian(rng, d)
            psi = _random_state(rng, d)
            try:
                chk = uncertainty_check(a, b, psi, perp="optimal")
            except DegenerateObservableError:
                continue
            worst = max(worst, abs(chk.lhs - chk.rhs))
            trials += 1
        return worst <= 1e-8, f"worst |lhs - rhs| = {worst:.2e}"

    add(_check("speed-limits/optimal-branch-saturation", optimal_saturation))

    def single_qubit_saturation():
        grid = _grid_for(math.pi / 4.0, n_steps)
        psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
        traj = track_observable(SIGMA_Z, SIGMA_X, psi, grid)
        curve = qsl_integral(traj, traj.r, moments(SIGMA_Z, psi).std_dev)
        worst = float(np.max(np.abs(curve.t_qslo[1:] - grid.points[1:])))
        worst_s = float(np.max(np.abs(curve.t_sqslo[1:] - grid.points[1:])))
        return max(worst, worst_s) <= 1e-6, f"max |bound - T| = {max(worst, worst_s):.2e}"

    add(_check("speed-limits/single-qubit-saturation", single_qubit_saturation))

    def closed_forms():
        worst = 0.0
        grid = _grid_for(1.0, n_steps)
        for p in (0.1, 0.3, 0.4):
            for theta in (0.5, 1.0):
                for rep in entanglement_closed_form_reports(p, theta, grid):
                    worst = max(worst, rep.max_abs_error)
                for rep in modular_closed_form_reports(p, theta, grid):
                    worst = max(worst, rep.max_abs_error)
        for omega, big_omega, j in ((2.0, 1.0, 1.0), (2.0, 4.0, 1.0), (2.0, 1.0, 0.0)):
            rep = ergotropy_closed_form_report(omega, big_omega, j, _grid_for(2.0, n_steps))
            worst = max(worst, rep.max_abs_error)
        return worst <= 1e-8, f"max closed-form error {worst:.2e}"

    add(_check("scenarios/closed-forms", closed_forms))

    preset_curves: dict[str, list] = {}

    def hierarchy_presets():
        worst_rel = 0.0
        for name in sorted(PRESETS):
            start = time.monotonic()
            curves = build_preset_curves(name, n_steps=n_steps)
            elapsed = time.monotonic() - start
            preset_curves[name] = curves
            if elapsed > 60.0:
                return False, f"preset {name} took {elapsed:.1f}s (> 60s)"
            for _, _, curve in curves:
                tol = max(1e-6, 2.0 * curve.quad_error)
                ts = curve.grid.points
                if np.any(curve.t_sqslo > ts + tol):
                    worst = float(np.max(curve.t_sqslo - ts))
                    return False, f"preset {name}: t_sqslo exceeds T by {worst:.2e}"
                if np.any(curve.t_sqslo < curve.t_qslo - 1e-9):
                    return False, f"preset {name}: t_sqslo below t_qslo"
                # Monotonicity is guaranteed only for the cumulative-integral
                # curves; ratio-form bounds dip after the mean turns around.
                if PRESETS[name].kind != "entanglement" and (
                    np.any(np.diff(curve.t_qslo) < -1e-9)
                    or np.any(np.diff(curve.t_sqslo) < -1e-9)
                ):
                    return False, f"preset {name}: bound curve not monotone"
                worst_rel = max(worst_rel, float(np.max(curve.t_sqslo - ts)))
        return True, f"max t_sqslo - T = {worst_rel:.2e} across presets"

    add(_check("scenarios/hierarchy-presets", hierarchy_presets))

    def modular_saturation():
        worst = 0.0
        for theta in (0.5, 1.0):
            curve = None
            for label, params, c in preset_curves.get("fig6", ()):
                if abs(params["theta"] - theta) < 1e-12:
                    curve = c
                    break
            if curve is None:
                grid = _grid_for(1.0, n_steps)
                curve = run_modular_scenario(
                    EntanglementScenario(p=0.1, theta=theta, grid=grid)
                )
            ts = curve.grid.points
            mask = ts >= 0.05
            worst = max(
                worst, float(np.max(np.abs(curve.t_sqslo[mask] - ts[mask]) / ts[mask]))
            )
        return worst <= 0.02, f"max relative saturation gap {worst:.2e}"

    add(_check("scenarios/modular-saturation", modular_saturation))

    def battery_saturation_overlap():
        curves = preset_curves.get("fig7") or build_preset_curves("fig7", n_steps=n_steps)
        by_label = {label: c for label, _, c in curves}
        worst = 0.0
        for label in ("coupled", "decoupled"):
            curve = by_label[label]
            ts = curve.grid.points
            mask = ts >= 0.05
            worst = max(
                worst, float(np.max(np.abs(curve.t_sqslo[mask] - ts[mask]) / ts[mask]))
            )
        a, b = by_label["coupled"], by_label["decoupled"]
        mask = a.grid.points >= 0.05
        overlap = float(
            np.max(
                np.abs(a.t_sqslo[mask] - b.t_sqslo[mask])
                / np.maximum(a.t_sqslo[mask], 1e-12)
            )
        )
        ok = worst <= 0.02 and overlap <= 0.02
        return ok, f"saturation gap {worst:.2e}, curve overlap gap {overlap:.2e}"

    add(_check("scenarios/battery-saturation-overlap", battery_saturation_overlap))

    def battery_qslo_modes():
        grid = _grid_for(2.0, n_steps)
        parallel = run_battery_scenario(
            BatteryScenario(omega=2.0, big_omega=1.0, j=0.0, mode="parallel", grid=grid)
        )
        collective = run_battery_scenario(
            BatteryScenario(omega=2.0, big_omega=1.0, j=1.0, mode="collective", grid=grid)
        )
        gap = float(np.max(np.abs(parallel.t_qslo - collective.t_qslo)))
        e_cap = float(np.max(parallel.mean_values))
        ok = gap <= 1e-8 and e_cap <= 4.0 * 2.0 + 1e-9
        return ok, f"qslo gap {gap:.2e}, max stored energy {e_cap:.6f}"

    add(_check("scenarios/battery-qslo-parallel-collective", battery_qslo_modes))

    def ergotropy_j_independence():
        grid = _grid_for(2.0, n_steps)
        rep0 = ergotropy_closed_form_report(2.0, 1.0, 0.0, grid)
        rep1 = ergotropy_closed_form_report(2.0, 1.0, 1.0, grid)
        gap = float(np.max(np.abs(rep0.numeric - rep1.numeric)))
        return gap <= 1e-10, f"max |E_J=0 - E_J=1| = {gap:.2e}"

    add(_check("scenarios/ergotropy-j-independence", ergotropy_j_independence))

    def entanglement_rate():
        p, theta = 0.1, 1.0
        grid = _grid_for(1.0, n_steps)
        psi0 = initial_schmidt_state(p)
        h = theta * tensor_product(SIGMA_X, SIGMA_X)
        delta_h = moments(h, psi0).std_dev
        cap = norm_rate_comparison(h, 2)
        samples = sample_entanglement(h, psi0, (2, 2), grid.points)
        gamma = np.abs(samples.derivatives)
        worst_norm = float(np.max(gamma - 2.0 * cap))
        healthy = ~np.isnan(samples.r)
        limits = np.array([
            entanglement_rate_bound(std * std, delta_h, r)
            for std, r in zip(samples.std_devs[healthy], samples.r[healthy])
        ])
        worst_violation = float(np.max(gamma[healthy] - limits, initial=-math.inf))
        ok = worst_violation <= 1e-9 and worst_norm <= 1e-9
        return ok, f"worst rate excess {worst_violation:.2e}"

    add(_check("scenarios/entanglement-rate-bound", entanglement_rate))

    def determinism():
        meta = [("scenario", "entanglement"), ("p", "0.1"), ("theta", "1.0")]
        first, second = (
            render_csv(build_preset_curves("fig2", n_steps=n_steps)[0][2], meta)
            for _ in range(2)
        )
        ok = first == second
        return ok, "byte-identical render" if ok else "renders differ"

    add(_check("cli/determinism", determinism))

    results.extend(_fixture_checks(n_steps))
    return results


def _battery_r_gaps(omega, big_omega, j, times, branches) -> np.ndarray:
    """Distance from the pipeline's r of the empty battery to the nearest
    in-range recorded branch value per sample; NaN where either is missing."""
    h_b, _, _, h_t = battery_hamiltonians(omega, big_omega, j)
    pipeline = sample_heisenberg(h_t, h_b, general_product_state(0.0, 0.0, 0.0, 0.0), times).r
    gaps = np.full(len(times), np.nan)
    for k, t in enumerate(times):
        values = [v for v in branches(t) if ref.in_range(v)]
        if values and not np.isnan(pipeline[k]):
            gaps[k] = min(abs(pipeline[k] - v) for v in values)
    return gaps


def _fixture_checks(n_steps: Optional[int]) -> list[CheckResult]:
    """Compare the recorded closed forms against the pipeline.

    Forms that match on their in-range samples report pass; recorded forms
    known to disagree report ``known-discrepancy`` with the measured gap.
    """
    results = []
    times = np.linspace(0.03, 1.9, 61)

    gaps = _battery_r_gaps(2.0, 1.0, 1.0, times, ref.r_battery_coupled_branches)
    used = int(np.sum(~np.isnan(gaps)))
    worst = float(np.nanmax(gaps)) if used else math.inf
    results.append(
        CheckResult(
            "fixtures/battery-coupled-r",
            "pass" if worst <= 1e-6 else "fail",
            f"{used} in-range samples, max deviation {worst:.2e}",
        )
    )

    recorded = ref.r_battery_decoupled_printed
    gaps, gaps_22 = (_battery_r_gaps(2.0, w, 1.0, times, recorded) for w in (4.0, 2.0))
    dev_recorded = float(np.nanmax(gaps, initial=0.0))
    dev_22 = float(np.nanmax(gaps_22, initial=0.0))
    if dev_recorded > 1e-6 and dev_22 <= 1e-6:
        results.append(
            CheckResult(
                "fixtures/battery-decoupled-r",
                "known-discrepancy",
                f"recorded form deviates {dev_recorded:.2e} from the labeled "
                f"(Omega=4) run but matches an (Omega=2) run to {dev_22:.2e}",
            )
        )
    else:
        status = "pass" if dev_recorded <= 1e-6 else "fail"
        results.append(
            CheckResult(
                "fixtures/battery-decoupled-r", status, f"max deviation {dev_recorded:.2e}"
            )
        )

    gaps = _battery_r_gaps(
        2.0, 1.0, 0.0, times, lambda t: (ref.r_battery_parallel_printed(t),)
    )
    used = int(np.sum(~np.isnan(gaps)))
    worst = float(np.nanmax(gaps)) if used else math.inf
    results.append(
        CheckResult(
            "fixtures/battery-parallel-r",
            "pass" if worst <= 1e-6 else "known-discrepancy",
            f"{used} in-range samples, max deviation {worst:.2e}",
        )
    )

    p, theta = 0.1, 1.0
    psi0 = initial_schmidt_state(p)
    h = theta * tensor_product(SIGMA_X, SIGMA_X)
    u_of_t = propagator_family(h)
    devs, used = [], 0
    perp_dev = 0.0
    for t in np.linspace(0.05, 1.0, 40):
        psi_t = require_state(u_of_t(t) @ psi0)
        rho_a = reduced_state(psi_t, (2, 2), "A")
        k_ab = tensor_product(modular_hamiltonian(rho_a), IDENTITY_2)
        if moments(k_ab, psi_t).variance <= 1e-12:
            continue
        sample = correction_r(k_ab, h, psi_t)
        printed = ref.r_entanglement_printed(p, theta, t)
        if ref.in_range(printed):
            devs.append(abs(sample.r - printed))
            used += 1
        recorded = ref.perp_entanglement_printed(p, theta, 0.0, t)
        mine = perpendicular_state(k_ab, psi_t)
        perp_dev = max(
            perp_dev, abs(1.0 - abs(np.vdot(mine, recorded / np.linalg.norm(recorded))))
        )
    worst = max(devs) if devs else math.inf
    results.append(
        CheckResult(
            "fixtures/entanglement-r",
            "pass" if worst <= 1e-6 else "known-discrepancy",
            f"{used} in-range samples, max deviation {worst:.2e}",
        )
    )
    results.append(
        CheckResult(
            "fixtures/entanglement-perp",
            "pass" if perp_dev <= 1e-6 else "known-discrepancy",
            f"max overlap defect {perp_dev:.2e} (recorded arctan read as arctanh)",
        )
    )

    k0 = tensor_product(modular_hamiltonian(reduced_state(psi0, (2, 2), "A")), IDENTITY_2)
    perp_dev = 0.0
    for t in np.linspace(0.05, 1.0, 40):
        u = u_of_t(t)
        k_t = u.conj().T @ k0 @ u
        mine = perpendicular_state(k_t, psi0)
        recorded = ref.perp_modular_printed(p, theta, t)
        perp_dev = max(
            perp_dev, abs(1.0 - abs(np.vdot(mine, recorded / np.linalg.norm(recorded))))
        )
    results.append(
        CheckResult(
            "fixtures/modular-perp",
            "pass" if perp_dev <= 1e-6 else "known-discrepancy",
            f"max overlap defect {perp_dev:.2e}",
        )
    )

    h_b, _, _, h_t = battery_hamiltonians(2.0, 1.0, 1.0)
    psi0 = general_product_state(0.0, 0.0, 0.0, 0.0)
    u_of_t = propagator_family(h_t)
    perp_dev = 0.0
    for t in np.linspace(0.1, 1.3, 25):
        u = u_of_t(t)
        o_t = u.conj().T @ h_b @ u
        if moments(o_t, psi0).variance <= 1e-12:
            continue
        mine = perpendicular_state(o_t, psi0)
        recorded = ref.perp_battery_coupled_printed(t)
        norm = np.linalg.norm(recorded)
        if norm < 1e-12:
            continue
        perp_dev = max(perp_dev, abs(1.0 - abs(np.vdot(mine, recorded / norm))))
    results.append(
        CheckResult(
            "fixtures/battery-coupled-perp",
            "pass" if perp_dev <= 1e-6 else "known-discrepancy",
            f"max overlap defect {perp_dev:.2e}",
        )
    )
    return results


def format_report(results: list[CheckResult]) -> str:
    """One line per check: STATUS  name  detail."""
    label = {"pass": "PASS", "fail": "FAIL", "known-discrepancy": "KNOWN-DISCREPANCY"}
    lines = [f"{label[r.status]:<18} {r.name}  {r.detail}" for r in results]
    n_fail = sum(r.status == "fail" for r in results)
    n_kd = sum(r.status == "known-discrepancy" for r in results)
    lines.append(
        f"{len(results)} checks: {len(results) - n_fail - n_kd} passed, "
        f"{n_fail} failed, {n_kd} known discrepancies"
    )
    return "\n".join(lines) + "\n"
