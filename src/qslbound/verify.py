"""Machine-checkable invariant suite behind ``qslbound verify`` and the tests.

``CHECKS`` is one ordered registry of named checks; ``run_verify`` and the
test suite both run it.  Each check is a plain function of its own random
generator, derived from the run's seed and the check's name, and of the
run's ``RunContext``.  It returns (outcome, detail): outcome True or False
for pass or fail, or ``KNOWN`` for a recorded closed-form fixture that is
known to disagree with the pipeline, bookkept apart from failures.
Random checks draw whole stacks (``_random``), a few generator calls per
chunk of draws, and evaluate them with one validated library call per
dimension and chunk (``_draws``), the one place a stack is validated.
No verdict reads the clock: a check's ``seconds`` is reported, never gated.
"""

from __future__ import annotations

import itertools
import math
import time
import zlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import emit
from . import reference_forms as ref
from .bounds import (
    HIERARCHY_ATOL,
    CorrectionSample,
    correction_r,
    entanglement_rate_bound,
    norm_rate_comparison,
    qsl_integral,
)
from .dynamics import TimeGrid, propagator_family, sample_entanglement, sample_heisenberg
from .linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    _vdot,
    partial_trace,
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
    _ratio_sqslo_closed_form,
    battery_hamiltonians,
    ce_see_closed_form,
    entanglement_setup,
    ergotropy_closed_form,
    modular_closed_form,
    run_battery_scenario,
)
from .states import (
    VARIANCE_FLOOR,
    _moments,
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
    """What the checks of one run share: the grid resolution and one memo of
    the curves built so far, each built by the first check that asks for it:
    the preset curves, keyed by preset name, and the (omega, Omega, J) =
    (2, Omega, J) battery runs, keyed by (Omega, J, t_max).  A new run
    starts from nothing."""

    def __init__(self, n_steps: Optional[int] = None):
        self.n_steps = n_steps
        self._curves: dict = {}

    def grid(self, t_max: float) -> TimeGrid:
        return TimeGrid.with_resolution(t_max, self.n_steps)

    def preset_curves(self, name: str) -> list:
        if name not in self._curves:
            self._curves[name] = build_preset_curves(PRESETS[name], self.n_steps)
        return self._curves[name]

    def battery_run(self, big_omega: float, j: float, t_max: float = 2.0):
        key = (big_omega, j, t_max)
        if key not in self._curves:
            scn = BatteryScenario(omega=2.0, big_omega=big_omega, j=j, grid=self.grid(t_max))
            self._curves[key] = run_battery_scenario(scn)
        return self._curves[key]


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


def _random(kind, rng, d: int, *count) -> np.ndarray:
    """A stack of ``count`` draws of ``kind`` (one draw without it): the real
    parts of the whole stack, then its imaginary parts, then the map."""
    shape = (*count, d) if kind is _state else (*count, d, d)
    return kind(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


_DRAW_CHUNK = 250  # draws per stack; bounds a check's working memory


def _draws(rng, n: int, dims, kinds, floor=None, span=None):
    """Yield (d, stacks) of n kept draws, at most _DRAW_CHUNK per stack and
    grouped by d, which each draw takes from ``dims``.  A stack holds one
    ``_random`` stack per kind, and with ``span`` each draw's time in it
    (stacked last).  With ``floor``, a draw where an observable has variance
    <= floor in the state (the last kind) is dropped; chunks follow until n
    draws are kept.  The floor reads the unvalidated ``_moments``: the API
    under test validates each kept stack, once."""
    while n > 0:
        which = rng.integers(len(dims), size=min(n, _DRAW_CHUNK))
        times = rng.uniform(*span, size=which.size) if span else None
        for d, picked in zip(dims, np.arange(len(dims))[:, None] == which):
            count = int(np.sum(picked))
            if not count:
                continue
            stacks = [_random(k, rng, d, count) for k in kinds]
            mask = np.ones(count, bool)
            for obs in stacks[:-1] if floor else ():
                mask &= _moments(stacks[-1], _apply(obs, stacks[-1]))[1].variance > floor
            stacks += [times[picked]] if span else []
            n -= int(np.sum(mask))
            if np.all(mask):
                yield d, stacks
            elif np.any(mask):
                yield d, [s[mask] for s in stacks]


def _worst(worst: float, *deviations) -> float:
    """The largest of ``worst`` and every |deviation|; NaN if any is NaN."""
    return float(np.max([worst, *(np.max(np.abs(x)) for x in deviations)]))


# A saturated bound integrates the constant 1, so its gap is rounding.  The
# largest over fig5-fig8 reads 4.2e-15 at 36 steps, 5.3e-15 at 64, 5.9e-14 at
# 400, 2.6e-13 on the default grid and 8.3e-12 at 100,000 steps; the
# single-qubit check reads 5.8e-16, 8.8e-16, 4.7e-15, 2.5e-14 and 1.4e-12.
_SATURATION_RTOL = 1e-10


def _saturation_gap(ts, values) -> float:
    """max |values - T| / T over every T > 0; NaN if a value is NaN."""
    mask = ts > 0.0
    return float(np.max(np.abs(values[mask] - ts[mask]) / ts[mask]))


def _hierarchy_tol(curve) -> float:
    """How far t_sqslo may exceed T: the curve's quadrature error, twice, or 1e-6."""
    return max(1e-6, 2.0 * curve.quad_error)


def _hierarchy_fault(curve, monotone: bool) -> Optional[str]:
    """The first way ``curve`` breaks T >= t_sqslo >= t_qslo, and with
    ``monotone`` the growth of both bounds, or None."""
    ts = curve.grid.points
    if not np.all(curve.t_sqslo <= ts + _hierarchy_tol(curve)):
        return f"t_sqslo exceeds T by {float(np.max(curve.t_sqslo - ts)):.2e}"
    if not np.all(curve.t_sqslo >= curve.t_qslo - HIERARCHY_ATOL):
        return "t_sqslo below t_qslo"
    if monotone and not all(np.all(np.diff(bound) >= -1e-9) for bound in (curve.t_qslo, curve.t_sqslo)):
        return "bound curve not monotone"
    return None


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
    rho4, rho6 = (_random(_density, rng, d, 200) for d in (4, 6))
    for rho, dims in ((rho4, (2, 2)), (rho6, (2, 3)), (rho6, (3, 2))):
        for keep in ("A", "B"):
            red = partial_trace(rho, dims, keep)
            worst_tr = _worst(worst_tr, _trace(red).real - 1.0)
            worst_eig = _worst(worst_eig, np.maximum(-np.linalg.eigvalsh(red)[:, 0], 0.0))
    ok = worst_tr <= 1e-12 and worst_eig <= 1e-12
    return ok, f"trace defect {worst_tr:.2e}, negativity {worst_eig:.2e}"


@_check("operator-core/tensor-product-trace")
def _tensor_trace(rng, run):
    a, b = (_random(_hermitian, rng, d, 200) for d in (2, 3))
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
    psi = _random(_state, rng, 4, 200)
    lam_a, lam_b = (np.linalg.eigvalsh(reduced_state(psi, (2, 2), keep)) for keep in "AB")
    # The Schmidt weights: rho_A and rho_B share them, and they sum to 1.
    worst = _worst(0.0, lam_a.sum(axis=-1) - 1.0, lam_a - lam_b) if lam_a.shape[-1] == 2 else math.inf
    return worst <= 1e-12, f"max Schmidt-weight defect {worst:.2e}"


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
    is -i H U(t) within the truncation cap ||H||^3 dt^2 / 6 (Frobenius norms), and
    U(0) = I, which pins U = exp(-iHt): V exp(-iEt) V^T solves the same equation
    and is unitary, but starts at V V^T, not I, for complex eigenvectors V."""
    worst = start_defect = 0.0
    kinds, dt = (_hermitian, _hermitian, _state), 1e-3
    for _, (h, _, _, t) in _draws(rng, 500, (4,), kinds, span=(-5.0, 5.0)):
        before, now, after, start = map(propagator_family(h), (t - dt, t, t + dt, 0.0 * t))
        residual = np.linalg.norm((after - before) / (2.0 * dt) + 1j * h @ now, axis=(-2, -1))
        worst = _worst(worst, residual / (np.linalg.norm(h, axis=(-2, -1)) ** 3 * dt * dt / 6.0))
        start_defect = _worst(start_defect, start - np.eye(4))
    ok = worst <= 1.0 and start_defect <= 1e-10
    return ok, f"max propagator residual {worst:.2e} of its truncation cap, max |U(0) - I| {start_defect:.2e}"


@_check("dynamics/derivative-consistency")
def _derivative_consistency(rng, run):
    """d<O>/dt from the commutator against central differences of <O> at nine
    centres, and against c from the deviation rows: d<O>/dt = 2 dH dO Im c,
    within 1e-12 of 2 dH max dO, also in the entanglement picture.  The random
    draw takes d in 2..8, the entanglement draw one of three bipartitions."""
    dx, centres = 1.0 / 400.0, np.linspace(0.1, 1.7, 9)
    d, (d_a, d_b) = int(rng.integers(2, 9)), ((2, 2), (2, 3), (4, 2))[rng.integers(3)]
    systems = (
        (SIGMA_Z, SIGMA_X, np.array([1, 1]) / np.sqrt(2)),
        tuple(_random(kind, rng, d) for kind in (_hermitian, _hermitian, _state)),
    )
    worst, runs = 0.0, []
    for h, obs, psi in systems:
        samples = sample_heisenberg(h, obs, psi, (centres[:, None] + [-dx, 0.0, dx]).ravel())
        means = samples.means.reshape(-1, 3)
        # The third derivative of <O(t)> is capped by (2||H||)^3 ||O||; the norms are max |eigenvalue|.
        norm_h, norm_o = np.abs(np.linalg.eigvalsh(np.stack([h, obs]))).max(axis=1)
        cap = 10.0 * dx * dx * (2.0 * norm_h) ** 3 * norm_o
        worst = _worst(worst, ((means[:, 2] - means[:, 0]) / (2.0 * dx) - samples.derivatives[1::3]) / cap)
        runs.append(samples)
    h, psi = _random(_hermitian, rng, d_a * d_b), _random(_state, rng, d_a * d_b)
    runs.append(sample_entanglement(h, psi, (d_a, d_b), centres))
    gap = _worst(0.0, *((s.derivatives / (2.0 * s.delta_h) - s.std_devs * s.c.imag) / s.std_devs.max() for s in runs))
    ok = worst <= 1.0 and gap <= 1e-12
    return ok, f"max FD mismatch {worst:.2e} of its truncation cap, rate-identity gap {gap:.2e} of 2 dH max dO"


@_check("dynamics/energy-conservation")
def _energy_conservation(rng, run):
    h = _random(_hermitian, rng, 4)
    samples = sample_heisenberg(h, h, _random(_state, rng, 4), TimeGrid(3.0, 150).points)
    drift = float(np.max(np.abs(samples.means - samples.means[0])))
    zero = float(np.max(np.abs(samples.derivatives)))
    return drift <= 1e-10 and zero <= 1e-10, f"drift {drift:.2e}, max |d<H>/dt| {zero:.2e}"


def _random_pairs(rng, n: int, fn) -> list:
    """fn(A, B, psi) on stacks of n random triples with d in {2, 4, 8},
    skipping draws where A or B has no spread (``correction_r`` raises)."""
    kinds = (_hermitian, _hermitian, _state)
    return [fn(*stacks) for _, stacks in _draws(rng, n, (2, 4, 8), kinds, VARIANCE_FLOOR)]


@_check("speed-limits/uncertainty-fuzz-holds")
def _uncertainty_fuzz(rng, run):
    worst = float(np.max([np.max(c.rhs - c.lhs) for c in _random_pairs(rng, 1000, correction_r)]))
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
    return worst <= 1e-8, f"worst |lhs - rhs| = {worst:.2e}"


@_check("speed-limits/single-qubit-saturation")
def _single_qubit_saturation(rng, run):
    grid = run.grid(math.pi / 4.0)
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    samples = sample_heisenberg(SIGMA_Z, SIGMA_X, psi, grid.points)
    curve = qsl_integral(grid, samples)
    worst = _worst(0.0, *(_saturation_gap(grid.points, bound) for bound in (curve.t_qslo, curve.t_sqslo)))
    return worst <= _SATURATION_RTOL, f"max |bound - T| / T = {worst:.2e}"


@_check("scenarios/closed-forms")
def _closed_forms(rng, run):
    pairs = []
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
    for big_omega, j in ((1.0, 1.0), (4.0, 1.0), (1.0, 0.0)):
        # The form is at most 4 omega, so its 1e-12 gate caps the stored energy too.
        pairs.append((ergotropy_closed_form(2.0, big_omega, grid.points), run.battery_run(big_omega, j).mean_values))
    worst = _worst(0.0, *(analytic - numeric for analytic, numeric in pairs))
    # The entanglement presets' entropy, and their ratio-form t_sqslo against its saturated form.
    entropy_gap = ratio_gap = 0.0
    for _, params, curve in run.preset_curves("fig2") + run.preset_curves("fig3"):
        p, theta, ts = params["p"], params["theta"], curve.grid.points
        entropy_gap = _worst(entropy_gap, ce_see_closed_form(p, theta, ts)[1] - curve.mean_values)
        gap = _worst(0.0, _ratio_sqslo_closed_form(p, theta, ts) - curve.t_sqslo)
        ratio_gap = _worst(ratio_gap, gap / curve.quad_error)
    # The coupled battery's stored energy peaks at 1.6 at t* = pi / (2 sqrt 5).
    t_star = math.pi / (2.0 * math.sqrt(5.0))
    peak = float(run.battery_run(1.0, 1.0, t_star).mean_values[-1])
    ok = (
        worst <= 1e-12
        and entropy_gap <= 1e-12
        and ratio_gap <= 2.0
        and abs(ergotropy_closed_form(2.0, 1.0, t_star) - 1.6) <= 1e-12
        and abs(peak - 1.6) <= 1e-12
    )
    return ok, (
        f"max closed-form error {worst:.2e}, "
        f"stored-energy peak {peak:.12f}, entanglement-preset entropy error {entropy_gap:.2e}, "
        f"ratio-form t_sqslo gap {ratio_gap:.2f} quad_error (at most 2)"
    )


# The one excluded sample of each direct-integral preset curve, at t = 0: r = 1 or dO = 0.
_PRESET_WARNINGS = {"entanglement": (), "modular": ((0.0, "correction saturates r=1"),),
                    "battery": ((0.0, "zero-variance sample"),)}


@_check("scenarios/hierarchy-presets")
def _hierarchy_presets(rng, run):
    worst_rel = 0.0
    for name in sorted(PRESETS):
        for _, _, curve in run.preset_curves(name):
            if curve.warnings != _PRESET_WARNINGS[PRESETS[name].kind]:
                return False, f"preset {name}: warnings {curve.warnings}"
            # Monotonicity is guaranteed only for the cumulative-integral
            # curves; ratio-form bounds dip after the mean turns around.
            if fault := _hierarchy_fault(curve, monotone=PRESETS[name].kind != "entanglement"):
                return False, f"preset {name}: {fault}"
            worst_rel = float(np.max([worst_rel, np.max(curve.t_sqslo - curve.grid.points)]))
    # The corrected entanglement bound improves on the plain one (fig2).
    fig2 = run.preset_curves("fig2")[0][2]
    ratio = float(fig2.t_sqslo[-1] / fig2.t_qslo[-1])
    if not (np.all(fig2.t_sqslo[1:] > fig2.t_qslo[1:]) and ratio > 1.05):
        return False, f"fig2: t_sqslo not above t_qslo everywhere, ratio at T=1 {ratio:.3f}"
    return True, f"max t_sqslo - T = {worst_rel:.2e} across presets, fig2 ratio {ratio:.3f}"


@_check("scenarios/direct-form-saturation")
def _direct_form_saturation(rng, run):
    """t_sqslo = T on every direct-form preset, and the battery presets' coupled and decoupled t_sqslo
    overlap, relative to min(T, t_sqslo), the stricter scale, at every T.  A NaN gap is the worst."""
    gaps = {"saturation": {}, "overlap": {}}
    for name in (name for name in sorted(PRESETS) if PRESETS[name].kind != "entanglement"):
        curves = {label: c for label, _, c in run.preset_curves(name)}
        gaps["saturation"][name] = _worst(0.0, *(_saturation_gap(c.grid.points, c.t_sqslo) for c in curves.values()))
        if PRESETS[name].kind == "battery":
            a, b = curves["coupled"], curves["decoupled"]
            scale = np.maximum(np.minimum(a.grid.points, a.t_sqslo), 1e-12)
            gaps["overlap"][name] = _worst(0.0, (a.t_sqslo - b.t_sqslo) / scale)
    worst = {kind: max(by_name.items(), key=lambda item: (math.isnan(item[1]), item[1])) for kind, by_name in gaps.items()}
    ok = all(gap <= _SATURATION_RTOL for _, gap in worst.values())
    return ok, ", ".join(f"max {kind} gap {gap:.2e} ({name})" for kind, (name, gap) in worst.items())


@_check("scenarios/battery-qslo-parallel-collective")
def _battery_qslo_modes(rng, run):
    parallel, collective = (run.battery_run(1.0, j) for j in (0.0, 1.0))
    gap = float(np.max(np.abs(parallel.t_qslo - collective.t_qslo)))
    return gap <= 1e-8, f"qslo gap {gap:.2e}"


@_check("scenarios/ergotropy-j-independence")
def _ergotropy_j_independence(rng, run):
    e0, e1 = (run.battery_run(1.0, j).mean_values for j in (0.0, 1.0))
    gap = float(np.max(np.abs(e0 - e1)))
    return gap <= 1e-10, f"max |E_J=0 - E_J=1| = {gap:.2e}"


# (p, theta, mu3) of fig2 (fig3's theta = 1), the other fig3 curves and a
# plain run with mu3 != 0.
_RATE_CASES = ((0.1, 0.5, 0.0), (0.1, 1.0, 0.0), (0.1, 1.5, 0.0), (0.1, 2.0, 0.0), (0.8, 1.2, 0.4))


@_check("scenarios/entanglement-rate-bound")
def _entanglement_rate(rng, run):
    grid = run.grid(1.0)
    worst_violation = worst_norm = -math.inf
    gap = c_defect = drift = 0.0
    share, dead = 1.0, []
    for p, theta, mu3 in _RATE_CASES:
        psi0, h, _ = entanglement_setup(p, theta, mu3)
        samples = sample_entanglement(h, psi0, (2, 2), grid.points)
        gamma = np.abs(samples.derivatives)
        worst_norm = float(np.max(gamma - 2.0 * norm_rate_comparison(h, 2), initial=worst_norm))
        healthy = ~np.isnan(samples.r)
        limits = entanglement_rate_bound(samples.std_devs[healthy] ** 2, samples.delta_h, samples.r[healthy])
        worst_violation = float(np.max(gamma[healthy] - limits, initial=worst_violation))
        share = min(share, float(np.mean(healthy)))
        live = limits > 1e-6  # psi_t stays in span{|00>, |11>}, so |c| = 1 and the bound is tight
        dead += [] if live.any() else [(p, theta, mu3)]
        gap = float(np.max(np.abs(gamma[healthy] - limits)[live] / limits[live], initial=gap))
        c_defect = float(np.max(np.abs(np.abs(samples.c[healthy]) - 1.0), initial=c_defect))
        # The same equality, integrated: the direct-form SQSLO integrand |Im c| / eta is 1, so t_sqslo = T.
        t_sqslo = qsl_integral(grid, samples).t_sqslo
        drift = float(np.max(np.abs(t_sqslo - grid.points), initial=drift))
    ok = worst_violation <= 1e-9 and worst_norm <= 1e-9 and share > 0.99 and not dead
    ok = ok and gap <= 1e-10 and c_defect <= 1e-12 and drift <= 1e-12
    detail = f"tightness gap {gap:.2e}, max ||c| - 1| {c_defect:.2e}, max |t_sqslo - T| {drift:.2e}"
    detail += f" over {share:.2%} healthy samples, norm-cap excess {worst_norm:.2e}"
    return ok, f"worst rate excess {worst_violation:.2e}, {detail}" + (f", no live sample on {dead}" if dead else "")


def _rows_by_field(curve) -> str:
    """The CSV rows of ``curve`` with every field formatted on its own."""
    counts = np.searchsorted(np.sort([t for t, _ in curve.warnings]), curve.grid.points, "right")
    columns = (curve.grid.points, curve.mean_values, curve.t_qslo, curve.t_sqslo, curve.r_bar)
    rows = zip(*(c.tolist() for c in columns), counts.tolist())
    return "".join(["%.17g,%.17g,%.17g,%.17g,%.17g,%d\n" % row for row in rows])


def _envelope_by_column(x, y) -> list:
    """emit._column_envelope one pixel column at a time: the first sample,
    the first lowest, the first highest and the last, or only the first and
    last where the column holds a NaN."""
    kept, values = [], y.tolist()
    for _, column in itertools.groupby(range(len(values)), np.floor(x).tolist().__getitem__):
        members = list(column)
        ys = [values[i] for i in members]
        picks = {members[0], members[-1]}
        if not any(map(math.isnan, ys)):
            picks |= {members[ys.index(min(ys))], members[ys.index(max(ys))]}
        kept += sorted(picks)
    return kept


def _points_by_field(xy) -> str:
    """'%.2f,%.2f' of each (x, y) row on its own, the rows joined by spaces."""
    return " ".join("%.2f,%.2f" % (x, y) for x, y in xy.tolist())


_POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-11, 17)])
# Floats where render_csv's kernel changes course: neighbours of 10**k, the
# 1e-4 / 1e-5 notation cut-over, exact 17-digit ties (the second rounds up,
# to even), the smallest subnormal, signed zeros and the non-finite values.
_KERNEL_EDGES = np.concatenate((
    _POWERS_OF_TEN, np.nextafter(_POWERS_OF_TEN, 0.0), np.nextafter(_POWERS_OF_TEN, np.inf),
    [1e-4, np.nextafter(1e-4, 0.0), 1e-5, np.nextafter(1e-5, 0.0), 9.99999999999999e-5, 100000000001 / 1024,
     100000000003 / 1024, 2.5e-11, 1.5, 0.1 + 0.2, 5e-324, 0.0, -0.0, np.nan, np.inf, -np.inf],
))
_EDGE_COUNTS = (0, 9, 10, 9999, 10000, 10001)  # warnings_count at its digit boundaries
# '%.2f' edges of the SVG point kernel: exact binary ties, which '%.2f' rounds
# to even, one ulp either side of them and of decimal .xx5 points, the ends of
# the plot, and fields it leaves to '%.2f' (9999.995 and up, -0.0, negative).
_POINT_TIES = np.array([0.125, 0.375, 60.125, 100.625, 419.375, 579.875, 9999.875])
_POINT_PROBES = np.concatenate((
    _POINT_TIES, np.nextafter(_POINT_TIES, 0.0), np.nextafter(_POINT_TIES, np.inf),
    [0.005, 60.005, np.nextafter(60.005, 0.0), np.nextafter(60.005, np.inf), 0.0, 60.0, 580.0, 9999.99,
     9999.995, 1e4, 12345.678, 1e20, -0.0, -1e-9, -0.125, -3.2, -419.375],
))


def _curve_of(columns, warnings=()):
    """A stand-in for render_csv: any floats as T, mean_value, t_qslo, t_sqslo and r_bar, and ``warnings``."""
    ts, mean_values, t_qslo, t_sqslo, r_bar = np.asarray(columns, float)
    return SimpleNamespace(grid=SimpleNamespace(points=ts), mean_values=mean_values, t_qslo=t_qslo,
                           t_sqslo=t_sqslo, r_bar=r_bar, warnings=tuple(warnings))


def _emit_mismatches(curves) -> list[str]:
    """What of render_csv, at stride 1 and 2, and render_svg differs from its
    reference on ``curves`` and the edge probes; envelopes also of the bounds
    rounded to 0.1, with a NaN, on columns a quarter of the run wide, so that
    extremes tie in many samples."""
    drawn = []
    for curve in curves:
        ts = curve.grid.points
        for y in (curve.t_qslo, curve.t_sqslo):
            rounded = np.where(np.arange(ts.size) == ts.size // 2, np.nan, np.round(y, 1))
            drawn += [(60.0 + 520.0 * ts / ts[-1], y), (4.0 * ts / ts[-1], rounded)]
    # Each kernel edge in every column, the positive ones with counts render_csv takes from
    # a table (0, 9, 10), the negative ones with those it writes as floats; rows T = 0, 1, .. count them.
    probes = []
    for edges, counts in ((_KERNEL_EDGES, _EDGE_COUNTS[:3]), (-_KERNEL_EDGES, _EDGE_COUNTS[3:])):
        ts = np.concatenate((np.arange(len(counts)), edges))
        warned = sum((((t, "w"),) * n for t, n in zip(ts.tolist(), np.diff(counts, prepend=0).tolist())), ())
        probes.append(_curve_of([np.roll(ts, k) for k in range(5)], warned))
    polylines = [np.column_stack((_POINT_PROBES, _POINT_PROBES[::-1])), *(xy for c in curves for xy in emit._polylines(c))]
    rows = [(c, _rows_by_field(c).splitlines(True)) for c in [*curves, *probes]]
    return [text for ok, text in (
        (all(emit.render_csv(c, [], s).partition("\n")[2] == "".join(by_field[::s])
             for c, by_field in rows for s in (1, 2)), "byte-identical render, differs from a field-by-field one"),
        (all(emit._points(xy) == _points_by_field(xy) for xy in polylines), "SVG points differ from a '%.2f,%.2f' join"),
        (all(emit._column_envelope(x, y).tolist() == _envelope_by_column(x, y) for x, y in drawn),
         "SVG envelopes differ from a per-column reference"),
    ) if not ok]


@_check("cli/determinism")
def _determinism(rng, run):
    meta = [("scenario", "entanglement"), ("p", "0.1"), ("theta", "1.0")]
    # Two separate builds: the run's shared fig2 and one more.
    curve, again = run.preset_curves("fig2")[0][2], build_preset_curves(PRESETS["fig2"], run.n_steps)[0][2]
    if emit.render_csv(curve, meta) != emit.render_csv(again, meta):
        return False, "renders differ"
    wrong = "; ".join(_emit_mismatches([curve]))
    return not wrong, wrong or "byte-identical render, equal to a field-by-field one; SVG points and envelopes too"


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


def _compared(gaps: np.ndarray) -> tuple[int, float]:
    """How many samples ``gaps`` compares (non-NaN gaps), and the largest gap, inf if none."""
    used = int(np.sum(~np.isnan(gaps)))
    return used, float(np.nanmax(gaps)) if used else math.inf


def _r_form_outcome(gaps: np.ndarray, floor: int):
    """Pass when at least ``floor`` samples are compared and every gap is within 1e-8."""
    used, worst = _compared(gaps)
    return worst <= 1e-8 and used >= floor, f"{used} in-range samples, max deviation {worst:.2e}"


@_check("fixtures/battery-coupled-r")
def _battery_coupled_r(rng, run):
    gaps = _battery_r_gaps(2.0, 1.0, 1.0, ref.r_battery_coupled_branches, every_sample=True)
    return _r_form_outcome(gaps, 50)


@_check("fixtures/battery-decoupled-r")
def _battery_decoupled_r(rng, run):
    recorded = ref.r_battery_decoupled_printed
    (used, dev_recorded), (used_22, dev_22) = (_compared(_battery_r_gaps(2.0, w, 1.0, recorded)) for w in (4.0, 2.0))
    enough = min(used, used_22) >= 50
    counts = f" over {used} and {used_22} in-range samples"
    if enough and dev_recorded > 1e-3 and dev_22 <= 1e-8:
        return KNOWN, (
            f"recorded form deviates {dev_recorded:.2e} from the labeled "
            f"(Omega=4) run but matches an (Omega=2) run to {dev_22:.2e}{counts}"
        )
    return enough and dev_recorded <= 1e-8, f"max deviation {dev_recorded:.2e}{counts}"


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


def _perp_outcome(mine, recorded, note=""):
    """Pass when each row of ``mine`` is within 1e-6 of the same row of ``recorded``."""
    worst = _worst(0.0, 1.0 - np.abs(_vdot(mine, recorded / _norm(recorded)[..., None])))
    return worst <= 1e-6, f"max overlap defect {worst:.2e}{note}"


@_check("fixtures/entanglement-perp")
def _entanglement_perp(rng, run):
    p, theta = 0.1, 1.0
    psi0, h, _ = entanglement_setup(p, theta, 0.0)
    psi_t = _apply(propagator_family(h)(_PERP_TIMES), psi0)
    k_ab = tensor_product(modular_hamiltonian(reduced_state(psi_t, (2, 2), "A")), IDENTITY_2)
    mine = perpendicular_state(k_ab, psi_t)
    recorded = ref.perp_entanglement_printed(p, theta, 0.0, _PERP_TIMES)
    return _perp_outcome(mine, recorded, " (recorded arctan read as arctanh)")


@_check("fixtures/modular-perp")
def _modular_perp(rng, run):
    p, theta = 0.1, 1.0
    psi0, h, k0 = entanglement_setup(p, theta, 0.0)
    u = propagator_family(h)(_PERP_TIMES)
    mine = perpendicular_state(_dag(u) @ k0 @ u, psi0)
    return _perp_outcome(mine, ref.perp_modular_printed(p, theta, _PERP_TIMES))


@_check("fixtures/battery-coupled-perp")
def _battery_coupled_perp(rng, run):
    h_b, _, _, h_t = battery_hamiltonians(2.0, 1.0, 1.0)
    times = np.linspace(0.1, 1.3, 25)
    u = propagator_family(h_t)(times)
    mine = perpendicular_state(_dag(u) @ h_b @ u, _EMPTY_BATTERY)
    return _perp_outcome(mine, ref.perp_battery_coupled_printed(times))


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
