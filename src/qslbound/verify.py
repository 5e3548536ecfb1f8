"""Machine-checkable invariant suite behind ``qslbound verify`` and the tests.

``CHECKS`` is one ordered registry of named checks; ``run_verify`` and the
test suite both run it.  Each check is a plain function of its own random
generator, derived from the run's seed and the check's name, and of the
run's ``RunContext``.  It returns (outcome, detail): outcome True or False
for pass or fail, or ``KNOWN`` for a recorded closed-form fixture that is
known to disagree with the pipeline, bookkept apart from failures.
Random checks draw blocks, a few generator calls per chunk of draws, and
evaluate stacks (``_draws``): one validated library call per dimension and chunk.
"""

from __future__ import annotations

import itertools
import math
import time
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import reference_forms as ref
from .bounds import (
    CorrectionSample,
    correction_r,
    entanglement_rate_bound,
    norm_rate_comparison,
    qsl_integral,
)
from .dynamics import TimeGrid, propagator_family, sample_entanglement, sample_heisenberg
from .emit import render_csv
from .linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    _vdot,
    hermitian_eig,
    partial_trace,
    spectral_norm,
    tensor_product,
)
from .measures import (
    capacity_of_entanglement,
    entanglement_entropy,
    ergotropy_max,
    modular_hamiltonian,
)
from .presets import PRESETS, build_preset_curves
from .scenarios import (
    _EMPTY_BATTERY,
    BatteryScenario,
    battery_hamiltonians,
    ce_see_closed_form,
    entanglement_setup,
    ergotropy_closed_form,
    modular_closed_form,
    run_battery_scenario,
)
from .states import (
    VARIANCE_FLOOR,
    density_from_pure,
    moments,
    perpendicular_state,
    reduced_state,
)

DEFAULT_SEED = 20240801

KNOWN = "known-discrepancy"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "known-discrepancy"
    detail: str
    seconds: float  # wall time of the check, generator included


class Check(NamedTuple):
    name: str
    fn: Callable


CHECKS: list[Check] = []


def _check(name: str):
    def register(fn):
        CHECKS.append(Check(name, fn))
        return fn

    return register


class RunContext:
    """What the checks of one run share: the grid resolution and the preset
    curves built so far.  A new run starts from nothing."""

    def __init__(self, n_steps: Optional[int] = None):
        self.n_steps = n_steps
        self._curves: dict[str, list] = {}

    def grid(self, t_max: float) -> TimeGrid:
        return TimeGrid.with_resolution(t_max, self.n_steps)

    def preset_curves(self, name: str) -> list:
        if name not in self._curves:
            self._curves[name] = build_preset_curves(PRESETS[name], self.n_steps)
        return self._curves[name]


def run_check(check: Check, run: RunContext, seed: int = DEFAULT_SEED) -> CheckResult:
    """Run one check with its own generator; an exception fails the check."""
    start = time.perf_counter()
    rng = np.random.default_rng([seed, zlib.crc32(check.name.encode())])
    try:
        outcome, detail = check.fn(rng, run)
    except Exception as exc:  # surfaced as a failed check, not a crash
        outcome, detail = False, f"raised {type(exc).__name__}: {exc}"
    status = outcome if isinstance(outcome, str) else ("pass" if outcome else "fail")
    return CheckResult(check.name, status, detail, time.perf_counter() - start)


def run_verify(n_steps: Optional[int] = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every invariant check; deterministic for a fixed seed."""
    run = RunContext(n_steps)
    return [run_check(check, run, seed) for check in CHECKS]


def _dag(a):
    return a.conj().swapaxes(-2, -1)


def _apply(a, v):
    return (a @ v[..., None])[..., 0]


def _trace(a):
    return np.trace(a, axis1=-2, axis2=-1)


def _norm(v):
    """np.linalg.norm of each vector, bit for bit: sqrt(re.re + im.im)."""
    return np.sqrt(_vdot(v.real, v.real) + _vdot(v.imag, v.imag))


def _hermitian(g):
    """A draw maps complex Gaussians g, one draw or a stack, to its matrices."""
    return (g + _dag(g)) / 2.0


def _state(g):
    return g / _norm(g)[..., None]


def _density(g):
    rho = g @ _dag(g)
    return rho / _trace(rho).real[..., None, None]


def _unitary(g):
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _random(kind, rng, d: int) -> np.ndarray:
    """One draw of ``kind``: real parts, then imaginary parts, then the map."""
    shape = (d,) if kind is _state else (d, d)
    return kind(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _gaussians(x, *shapes) -> list:
    """Split float rows x (..., k) into complex Gaussian stacks, one per
    shape, as consecutive ``_random`` draws of those shapes make them."""
    sizes = [math.prod(shape) for shape in shapes]
    parts = np.split(x, np.cumsum([2 * size for size in sizes])[:-1], axis=-1)
    return [
        (p[..., :size] + 1j * p[..., size:]).reshape(*x.shape[:-1], *shape)
        for p, size, shape in zip(parts, sizes, shapes)
    ]


_DRAW_CHUNK = 250  # draws per stack; bounds a check's working memory


def _draws(rng, n: int, dims, kinds, floor=None, span=None):
    """Yield (d, stacks) of n draws, _DRAW_CHUNK at a time, grouped by d.  A
    chunk of m draws takes its dims from rng.integers(len(dims), size=m), with
    ``span`` its times from rng.uniform(*span, size=m) (stacked last), then per
    d in ``dims`` order one rng.standard_normal((count, k)), split by
    ``_gaussians`` into a stack per kind.  With ``floor``, a draw where an
    observable has variance <= floor in the state (the last kind) is dropped;
    chunks follow until n draws are kept."""
    shapes = {d: [(d,) if k is _state else (d, d) for k in kinds] for d in dims}
    while n > 0:
        which = rng.integers(len(dims), size=min(n, _DRAW_CHUNK))
        times = rng.uniform(*span, size=which.size) if span else None
        for d, picked in zip(dims, np.arange(len(dims))[:, None] == which):
            if not np.any(picked):
                continue
            x = rng.standard_normal((np.sum(picked), 2 * sum(map(math.prod, shapes[d]))))
            stacks = [k(g) for k, g in zip(kinds, _gaussians(x, *shapes[d]))]
            mask = np.ones(len(x), bool)
            for obs in stacks[:-1] if floor else ():
                mask &= moments(obs, stacks[-1]).variance > floor
            stacks += [times[picked]] if span else []
            n -= int(np.sum(mask))
            if np.all(mask):
                yield d, stacks
            elif np.any(mask):
                yield d, [s[mask] for s in stacks]


def _worst(worst: float, *deviations) -> float:
    """The largest of ``worst`` and every |deviation|; NaN if any is NaN."""
    return float(np.max([worst, *(np.max(np.abs(x)) for x in deviations)]))


# The direct-integral SQSLO integrand is constant: its saturation gap is
# rounding, at most 6e-14 at 64 steps, 400 steps and the default grid.
_SATURATION_RTOL = 1e-10


def _saturation_gap(curve) -> float:
    """max |t_sqslo - T| / T over T >= 0.05."""
    ts = curve.grid.points
    mask = ts >= 0.05
    return float(np.max(np.abs(curve.t_sqslo[mask] - ts[mask]) / ts[mask]))


@_check("operator-core/eig-reconstruction")
def _eig_reconstruction(rng, run):
    worst, dims = 0.0, (2, 4, 8, 16)
    for _ in range(25):  # 10 draws a chunk: a stack of 16 x 16 matrices is large
        x = rng.standard_normal((10, sum(2 * d * d for d in dims)))
        for d, g in zip(dims, _gaussians(x, *((d, d) for d in dims))):
            m = _hermitian(g)
            vals, vecs = hermitian_eig(m)
            recon = (vecs * vals[..., None, :]) @ _dag(vecs)
            worst = _worst(worst, recon - m, _dag(vecs) @ vecs - np.eye(d))
    return worst <= 1e-10, f"max reconstruction/unitarity defect {worst:.2e}"


@_check("operator-core/propagator-unitarity")
def _propagator_unitarity(rng, run):
    worst = 0.0
    for d, (h, t) in _draws(rng, 100, (2, 4, 8), (_hermitian,), span=(-100.0, 100.0)):
        u = propagator_family(h)(t)
        worst = _worst(worst, _dag(u) @ u - np.eye(d))
    return worst <= 1e-10, f"max unitarity defect {worst:.2e}"


@_check("operator-core/partial-trace-density")
def _partial_trace_density(rng, run):
    worst_tr, worst_eig = 0.0, 0.0
    rho4, rho6 = map(_density, _gaussians(rng.standard_normal((200, 104)), (4, 4), (6, 6)))
    for rho, dims in ((rho4, (2, 2)), (rho6, (2, 3)), (rho6, (3, 2))):
        for keep in ("A", "B"):
            red = partial_trace(rho, dims, keep)
            worst_tr = _worst(worst_tr, _trace(red).real - 1.0)
            worst_eig = _worst(worst_eig, np.maximum(-np.linalg.eigvalsh(red)[:, 0], 0.0))
    ok = worst_tr <= 1e-12 and worst_eig <= 1e-12
    return ok, f"trace defect {worst_tr:.2e}, negativity {worst_eig:.2e}"


@_check("operator-core/tensor-product-trace")
def _tensor_trace(rng, run):
    a, b = map(_hermitian, _gaussians(rng.standard_normal((200, 26)), (2, 2), (3, 3)))
    worst = _worst(0.0, _trace(tensor_product(a, b)) - _trace(a) * _trace(b))
    return worst <= 1e-12, f"max trace defect {worst:.2e}"


@_check("quantum-state/perpendicular-orthogonality")
def _perpendicular_orthogonality(rng, run):
    worst = 0.0
    for _, (obs, psi) in _draws(rng, 1000, (2, 3, 4, 8), (_hermitian, _state), 1e-6):
        perp = perpendicular_state(obs, psi)
        worst = _worst(worst, _vdot(perp, psi), _norm(perp) - 1.0)
    return worst <= 1e-10, f"max overlap/norm defect {worst:.2e}"


@_check("quantum-state/moments-density-crosscheck")
def _moments_density_crosscheck(rng, run):
    worst = 0.0
    for _, (obs, psi) in _draws(rng, 500, (2, 3, 4), (_hermitian, _state)):
        m = moments(obs, psi)
        rho = density_from_pure(psi)
        mean = _trace(rho @ obs).real
        var = _trace(rho @ obs @ obs).real - mean * mean
        worst = _worst(worst, m.mean - mean, m.variance - var)
    return worst <= 1e-10, f"max deviation {worst:.2e}"


@_check("quantum-state/two-qubit-schmidt-rank")
def _schmidt_rank(rng, run):
    (g,) = _gaussians(rng.standard_normal((200, 8)), (4,))
    lam = np.linalg.eigvalsh(reduced_state(_state(g), (2, 2), "A"))
    worst = _worst(0.0, lam.sum(axis=-1) - 1.0) if lam.shape[-1] == 2 else math.inf
    return worst <= 1e-12, f"max weight-sum defect {worst:.2e}"


@_check("info-measures/capacity-equals-modular-variance")
def _capacity_equals_variance(rng, run):
    worst = 0.0
    for _, (rho,) in _draws(rng, 500, (2, 3, 4), (_density,)):
        k = modular_hamiltonian(rho)
        var = _trace(rho @ k @ k).real - _trace(rho @ k).real ** 2
        worst = _worst(worst, var - capacity_of_entanglement(rho))
    return worst <= 1e-9, f"max deviation {worst:.2e}"


@_check("info-measures/entropy-unitary-invariance")
def _entropy_unitary_invariance(rng, run):
    worst = 0.0
    for _, (rho, u) in _draws(rng, 200, (2, 3, 4), (_density, _unitary)):
        worst = _worst(worst, entanglement_entropy(u @ rho @ _dag(u)) - entanglement_entropy(rho))
    return worst <= 1e-10, f"max deviation {worst:.2e}"


@_check("info-measures/ergotropy-bruteforce")
def _ergotropy_bruteforce(rng, run):
    worst = 0.0
    for d, (rho, h) in _draws(rng, 100, (2, 3, 4), (_density, _hermitian)):
        pops, energies = np.linalg.eigvalsh(rho), np.linalg.eigvalsh(h)
        orders = [list(perm) for perm in itertools.permutations(range(d))]
        best = np.min([_vdot(pops[:, order], energies) for order in orders], axis=0)
        expected = _trace(rho @ h).real - best
        worst = _worst(worst, ergotropy_max(rho, h) - expected)
    return worst <= 1e-10, f"max deviation {worst:.2e}"


@_check("dynamics/picture-equivalence")
def _picture_equivalence(rng, run):
    """propagator_family(h) against H, not its eigensystem: (U(t + dt) - U(t - dt)) / 2dt
    is -i H U(t) within the truncation cap ||H||^3 dt^2 / 6 (Frobenius norms)."""
    worst, kinds, dt = 0.0, (_hermitian, _hermitian, _state), 1e-3
    for _, (h, _, _, t) in _draws(rng, 500, (4,), kinds, span=(-5.0, 5.0)):
        before, now, after = map(propagator_family(h), (t - dt, t, t + dt))
        residual = np.linalg.norm((after - before) / (2.0 * dt) + 1j * h @ now, axis=(-2, -1))
        worst = _worst(worst, residual / (np.linalg.norm(h, axis=(-2, -1)) ** 3 * dt * dt / 6.0))
    return worst <= 1.0, f"max propagator residual {worst:.2e} of its truncation cap"


@_check("dynamics/derivative-consistency")
def _derivative_consistency(rng, run):
    grid = TimeGrid(1.0, 400)
    dx = grid.dx
    systems = (
        (SIGMA_Z, SIGMA_X, np.array([1, 1]) / np.sqrt(2)),
        (_random(_hermitian, rng, 4), _random(_hermitian, rng, 4), _random(_state, rng, 4)),
    )
    worst = 0.0
    for h, obs, psi in systems:
        samples = sample_heisenberg(h, obs, psi, grid.points)
        fd = (samples.means[2:] - samples.means[:-2]) / (2.0 * dx)
        # The third derivative of <O(t)> is capped by (2||H||)^3 ||O||.
        cap = 10.0 * dx * dx * (2.0 * spectral_norm(h)) ** 3 * spectral_norm(obs)
        worst = _worst(worst, (fd - samples.derivatives[1:-1]) / cap)
    return worst <= 1.0, f"max FD mismatch {worst:.2e} of its truncation cap"


@_check("dynamics/energy-conservation")
def _energy_conservation(rng, run):
    h = _random(_hermitian, rng, 4)
    samples = sample_heisenberg(h, h, _random(_state, rng, 4), TimeGrid(3.0, 150).points)
    drift = float(np.max(np.abs(samples.means - samples.means[0])))
    zero = float(np.max(np.abs(samples.derivatives)))
    return drift <= 1e-10 and zero <= 1e-10, f"drift {drift:.2e}"


def _random_pairs(rng, n: int, fn) -> list:
    """fn(A, B, psi) on stacks of n random triples with d in {2, 4, 8},
    skipping draws where A or B has no spread (``correction_r`` raises)."""
    kinds = (_hermitian, _hermitian, _state)
    return [fn(*stacks) for _, stacks in _draws(rng, n, (2, 4, 8), kinds, VARIANCE_FLOOR)]


@_check("speed-limits/uncertainty-fuzz-holds")
def _uncertainty_fuzz(rng, run):
    start = time.monotonic()
    worst = float(np.max([np.max(c.rhs - c.lhs) for c in _random_pairs(rng, 1000, correction_r)]))
    elapsed = time.monotonic() - start
    if elapsed > 30.0:
        return False, f"1000 draws took {elapsed:.1f}s (> 30s)"
    return worst <= 1e-9, f"worst rhs - lhs = {worst:.2e}"


def _optimal_perp_sample(a, b, psi) -> CorrectionSample:
    """The relation on Maccone and Pati's optimal psi_perp, the normalized
    part of vec = (A/dA -+ i B/dB) psi orthogonal to psi, where
    r = |<psi_perp|vec>|^2 / 2; the sign and commutator side are
    ``correction_r``'s, the spreads computed here."""
    chk = correction_r(a, b, psi)
    a_psi, b_psi = _apply(a, psi), _apply(b, psi)
    d_a, d_b = (_norm(o - _vdot(psi, o).real[..., None] * psi)[..., None] for o in (a_psi, b_psi))
    sign = np.where(chk.sign_branch == "plus", 1.0, -1.0)[..., None]
    vec = a_psi / d_a + 1j * sign * b_psi / d_b
    perp = vec - _vdot(psi, vec)[..., None] * psi
    r = 0.5 * np.abs(_vdot(perp / _norm(perp)[..., None], vec)) ** 2
    eta = 1.0 - r
    return CorrectionSample(r, eta, chk.sign_branch, d_a[..., 0] * d_b[..., 0] * eta, chk.rhs)


@_check("speed-limits/optimal-branch-saturation")
def _optimal_saturation(rng, run):
    draws = _random_pairs(rng, 1000, _optimal_perp_sample)
    worst = _worst(0.0, *(chk.lhs - chk.rhs for chk in draws))
    unflagged = sum(int(np.sum(~chk.saturated)) for chk in draws)
    ok = worst <= 1e-8 and unflagged == 0
    return ok, f"worst |lhs - rhs| = {worst:.2e}, {unflagged} not flagged saturated"


@_check("speed-limits/single-qubit-saturation")
def _single_qubit_saturation(rng, run):
    grid = run.grid(math.pi / 4.0)
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    samples = sample_heisenberg(SIGMA_Z, SIGMA_X, psi, grid.points)
    curve = qsl_integral(grid, samples, moments(SIGMA_Z, psi).std_dev)
    worst = _worst(0.0, *(bound[1:] - grid.points[1:] for bound in (curve.t_qslo, curve.t_sqslo)))
    return worst <= 1e-6, f"max |bound - T| = {worst:.2e}"


@_check("scenarios/closed-forms")
def _closed_forms(rng, run):
    pairs, over_cap = [], 0
    ts = run.grid(1.0).points
    for p in (0.1, 0.3, 0.4):
        for theta in (0.5, 1.0):
            psi0, h, k0 = entanglement_setup(p, theta, 0.0)
            ent = sample_entanglement(h, psi0, (2, 2), ts)
            mod = sample_heisenberg(h, k0, psi0, ts)
            c_e, s_ee = ce_see_closed_form(p, theta, ts)
            c_m, e_m = modular_closed_form(p, theta, ts)
            pairs += [(c_e, ent.std_devs**2), (s_ee, ent.means)]
            pairs += [(c_m, mod.std_devs**2), (e_m, mod.means)]
    grid = run.grid(2.0)
    for omega, big_omega, j in ((2.0, 1.0, 1.0), (2.0, 4.0, 1.0), (2.0, 1.0, 0.0)):
        scn = BatteryScenario(omega=omega, big_omega=big_omega, j=j, grid=grid)
        stored = run_battery_scenario(scn).mean_values
        pairs.append((ergotropy_closed_form(omega, big_omega, grid.points), stored))
        over_cap += bool(np.max(stored) > 4.0 * omega + 1e-9)
    worst = _worst(0.0, *(analytic - numeric for analytic, numeric in pairs))
    # The coupled battery's stored energy peaks at 1.6 at t* = pi / (2 sqrt 5).
    t_star = math.pi / (2.0 * math.sqrt(5.0))
    scn = BatteryScenario(omega=2.0, big_omega=1.0, j=1.0, grid=run.grid(t_star))
    peak = float(run_battery_scenario(scn).mean_values[-1])
    ok = (
        worst <= 1e-8
        and over_cap == 0
        and abs(ergotropy_closed_form(2.0, 1.0, t_star) - 1.6) <= 1e-12
        and abs(peak - 1.6) <= 1e-8
    )
    return ok, (
        f"max closed-form error {worst:.2e}, {over_cap} runs above 4*omega, "
        f"stored-energy peak {peak:.12f}"
    )


@_check("scenarios/hierarchy-presets")
def _hierarchy_presets(rng, run):
    worst_rel = 0.0
    for name in sorted(PRESETS):
        start = time.monotonic()
        curves = run.preset_curves(name)
        elapsed = time.monotonic() - start
        if elapsed > 60.0:
            return False, f"preset {name} took {elapsed:.1f}s (> 60s)"
        for _, _, curve in curves:
            tol = max(1e-6, 2.0 * curve.quad_error)
            ts = curve.grid.points
            if not np.all(curve.t_sqslo <= ts + tol):
                worst = float(np.max(curve.t_sqslo - ts))
                return False, f"preset {name}: t_sqslo exceeds T by {worst:.2e}"
            if not np.all(curve.t_sqslo >= curve.t_qslo - 1e-9):
                return False, f"preset {name}: t_sqslo below t_qslo"
            # Monotonicity is guaranteed only for the cumulative-integral
            # curves; ratio-form bounds dip after the mean turns around.
            if PRESETS[name].kind != "entanglement" and (
                not np.all(np.diff(curve.t_qslo) >= -1e-9)
                or not np.all(np.diff(curve.t_sqslo) >= -1e-9)
            ):
                return False, f"preset {name}: bound curve not monotone"
            worst_rel = float(np.max([worst_rel, np.max(curve.t_sqslo - ts)]))
    # The corrected entanglement bound improves on the plain one (fig2).
    fig2 = run.preset_curves("fig2")[0][2]
    ratio = float(fig2.t_sqslo[-1] / fig2.t_qslo[-1])
    if not (np.all(fig2.t_sqslo[1:] > fig2.t_qslo[1:]) and ratio > 1.05):
        return False, f"fig2: t_sqslo not above t_qslo everywhere, ratio at T=1 {ratio:.3f}"
    return True, f"max t_sqslo - T = {worst_rel:.2e} across presets, fig2 ratio {ratio:.3f}"


@_check("scenarios/modular-saturation")
def _modular_saturation(rng, run):
    worst = _worst(0.0, *(_saturation_gap(curve) for _, _, curve in run.preset_curves("fig6")))
    return worst <= _SATURATION_RTOL, f"max relative saturation gap {worst:.2e}"


@_check("scenarios/battery-saturation-overlap")
def _battery_saturation_overlap(rng, run):
    by_label = {label: c for label, _, c in run.preset_curves("fig7")}
    worst = _worst(0.0, *(_saturation_gap(curve) for curve in by_label.values()))
    a, b = by_label["coupled"], by_label["decoupled"]
    # Relative to the smaller of T and t_sqslo, the stricter of the two scales.
    mask = a.grid.points >= 0.05
    scale = np.maximum(np.minimum(a.grid.points, a.t_sqslo), 1e-12)
    overlap = float(np.max(np.abs(a.t_sqslo - b.t_sqslo)[mask] / scale[mask]))
    ok = worst <= _SATURATION_RTOL and overlap <= _SATURATION_RTOL
    return ok, f"saturation gap {worst:.2e}, curve overlap gap {overlap:.2e}"


@_check("scenarios/battery-qslo-parallel-collective")
def _battery_qslo_modes(rng, run):
    grid = run.grid(2.0)
    parallel = run_battery_scenario(
        BatteryScenario(omega=2.0, big_omega=1.0, j=0.0, grid=grid)
    )
    collective = run_battery_scenario(
        BatteryScenario(omega=2.0, big_omega=1.0, j=1.0, grid=grid)
    )
    gap = float(np.max(np.abs(parallel.t_qslo - collective.t_qslo)))
    e_cap = float(np.max(parallel.mean_values))
    ok = gap <= 1e-8 and e_cap <= 4.0 * 2.0 + 1e-9
    return ok, f"qslo gap {gap:.2e}, max stored energy {e_cap:.6f}"


@_check("scenarios/ergotropy-j-independence")
def _ergotropy_j_independence(rng, run):
    grid = run.grid(2.0)
    e0, e1 = (
        run_battery_scenario(BatteryScenario(omega=2.0, big_omega=1.0, j=j, grid=grid)).mean_values
        for j in (0.0, 1.0)
    )
    gap = float(np.max(np.abs(e0 - e1)))
    return gap <= 1e-10, f"max |E_J=0 - E_J=1| = {gap:.2e}"


@_check("scenarios/entanglement-rate-bound")
def _entanglement_rate(rng, run):
    grid = run.grid(1.0)
    psi0, h, _ = entanglement_setup(0.1, 1.0, 0.0)
    delta_h = moments(h, psi0).std_dev
    samples = sample_entanglement(h, psi0, (2, 2), grid.points)
    gamma = np.abs(samples.derivatives)
    worst_norm = float(np.max(gamma - 2.0 * norm_rate_comparison(h, 2)))
    healthy = ~np.isnan(samples.r)
    limits = entanglement_rate_bound(samples.std_devs[healthy] ** 2, delta_h, samples.r[healthy])
    worst_violation = float(np.max(gamma[healthy] - limits, initial=-math.inf))
    share = float(np.mean(healthy))
    ok = worst_violation <= 1e-9 and worst_norm <= 1e-9 and share > 0.99
    return ok, f"worst rate excess {worst_violation:.2e} over {share:.2%} healthy samples"


@_check("cli/determinism")
def _determinism(rng, run):
    meta = [("scenario", "entanglement"), ("p", "0.1"), ("theta", "1.0")]
    first, second = (
        render_csv(build_preset_curves(PRESETS["fig2"], run.n_steps)[0][2], meta)
        for _ in range(2)
    )
    ok = first == second
    return ok, "byte-identical render" if ok else "renders differ"


# Recorded closed forms against the pipeline: an r form passes when it matches
# to 1e-8 on enough in-range samples and misses none it must cover, a
# perpendicular state when its overlap defect is within 1e-6 at every
# sample; else it fails.  The decoupled form reports KNOWN only while it
# misses its labeled run by > 1e-3 and matches Omega=2.

_FIXTURE_TIMES = np.linspace(0.03, 1.9, 61)
_PERP_TIMES = np.linspace(0.05, 1.0, 40)


def _battery_r_gaps(omega, big_omega, j, branches, every_sample=False) -> np.ndarray:
    """Distance from the pipeline's r of the empty battery to the nearest
    in-range recorded branch value per sample; NaN where either is missing,
    except inf where only the pipeline has r and ``every_sample`` is set."""
    h_b, _, _, h_t = battery_hamiltonians(omega, big_omega, j)
    pipeline = sample_heisenberg(h_t, h_b, _EMPTY_BATTERY, _FIXTURE_TIMES).r
    values = np.array(branches(_FIXTURE_TIMES))
    gaps = np.min(np.where(ref.in_range(values), np.abs(pipeline - values), math.inf), axis=0)
    return np.where(~np.isnan(pipeline) & (np.isfinite(gaps) | every_sample), gaps, np.nan)


def _r_form_outcome(gaps: np.ndarray, floor: int):
    """Pass when at least ``floor`` samples are compared (non-NaN gaps) and
    every gap is within 1e-8."""
    used = int(np.sum(~np.isnan(gaps)))
    worst = float(np.nanmax(gaps)) if used else math.inf
    return worst <= 1e-8 and used >= floor, f"{used} in-range samples, max deviation {worst:.2e}"


def _overlap_defect(mine, recorded) -> float:
    return abs(1.0 - abs(np.vdot(mine, recorded / np.linalg.norm(recorded))))


@_check("fixtures/battery-coupled-r")
def _battery_coupled_r(rng, run):
    gaps = _battery_r_gaps(2.0, 1.0, 1.0, ref.r_battery_coupled_branches, every_sample=True)
    return _r_form_outcome(gaps, 50)


@_check("fixtures/battery-decoupled-r")
def _battery_decoupled_r(rng, run):
    recorded = ref.r_battery_decoupled_printed
    gaps, gaps_22 = (_battery_r_gaps(2.0, w, 1.0, recorded) for w in (4.0, 2.0))
    dev_recorded = float(np.nanmax(gaps, initial=0.0))
    dev_22 = float(np.nanmax(gaps_22, initial=0.0))
    enough = all(np.sum(~np.isnan(g)) >= 50 for g in (gaps, gaps_22))
    if enough and dev_recorded > 1e-3 and dev_22 <= 1e-8:
        return KNOWN, (
            f"recorded form deviates {dev_recorded:.2e} from the labeled "
            f"(Omega=4) run but matches an (Omega=2) run to {dev_22:.2e}"
        )
    return enough and dev_recorded <= 1e-8, f"max deviation {dev_recorded:.2e}"


@_check("fixtures/battery-parallel-r")
def _battery_parallel_r(rng, run):
    gaps = _battery_r_gaps(2.0, 1.0, 0.0, lambda t: (ref.r_battery_parallel_printed(t),))
    return _r_form_outcome(gaps, 15)


@_check("fixtures/entanglement-r")
def _entanglement_r(rng, run):
    p, theta = 0.1, 1.0
    psi0, h, _ = entanglement_setup(p, theta, 0.0)
    pipeline = sample_entanglement(h, psi0, (2, 2), _PERP_TIMES).r
    printed = ref.r_entanglement_printed(p, theta, _PERP_TIMES)
    # An in-range printed value where the pipeline has no r is a miss.
    gaps = np.where(np.isnan(pipeline), math.inf, np.abs(pipeline - printed))
    return _r_form_outcome(np.where(ref.in_range(printed), gaps, np.nan), 5)


def _perp_outcome(mine, times, recorded, note=""):
    """Pass when each row of ``mine`` is within 1e-6 of its recorded state."""
    worst = float(np.max([_overlap_defect(m, recorded(t)) for m, t in zip(mine, times)]))
    return worst <= 1e-6, f"max overlap defect {worst:.2e}{note}"


@_check("fixtures/entanglement-perp")
def _entanglement_perp(rng, run):
    p, theta = 0.1, 1.0
    psi0, h, _ = entanglement_setup(p, theta, 0.0)
    psi_t = _apply(propagator_family(h)(_PERP_TIMES), psi0)
    k_ab = tensor_product(modular_hamiltonian(reduced_state(psi_t, (2, 2), "A")), IDENTITY_2)
    mine = perpendicular_state(k_ab, psi_t)
    recorded = lambda t: ref.perp_entanglement_printed(p, theta, 0.0, t)  # noqa: E731
    return _perp_outcome(mine, _PERP_TIMES, recorded, " (recorded arctan read as arctanh)")


@_check("fixtures/modular-perp")
def _modular_perp(rng, run):
    p, theta = 0.1, 1.0
    psi0, h, k0 = entanglement_setup(p, theta, 0.0)
    u = propagator_family(h)(_PERP_TIMES)
    mine = perpendicular_state(_dag(u) @ k0 @ u, psi0)
    return _perp_outcome(mine, _PERP_TIMES, lambda t: ref.perp_modular_printed(p, theta, t))


@_check("fixtures/battery-coupled-perp")
def _battery_coupled_perp(rng, run):
    h_b, _, _, h_t = battery_hamiltonians(2.0, 1.0, 1.0)
    times = np.linspace(0.1, 1.3, 25)
    u = propagator_family(h_t)(times)
    mine = perpendicular_state(_dag(u) @ h_b @ u, _EMPTY_BATTERY)
    return _perp_outcome(mine, times, ref.perp_battery_coupled_printed)


def format_report(results: list[CheckResult]) -> str:
    """One line per check: STATUS  name  detail."""
    label = {"pass": "PASS", "fail": "FAIL", KNOWN: "KNOWN-DISCREPANCY"}
    lines = [f"{label[r.status]:<18} {r.name}  {r.detail}" for r in results]
    n_fail = sum(r.status == "fail" for r in results)
    n_kd = sum(r.status == KNOWN for r in results)
    lines.append(
        f"{len(results)} checks: {len(results) - n_fail - n_kd} passed, "
        f"{n_fail} failed, {n_kd} known discrepancies"
    )
    return "\n".join(lines) + "\n"
