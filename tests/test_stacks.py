"""Stacked evaluation: the same draws, the same bits, one validated call.

The random-draw checks of ``verify`` draw their operators as whole stacks
and evaluate them.  These tests pin that a single draw is the reference draw,
that the stacked draws keep their count, dimensions, chunk size, floor and
span, that every member of a stacked library call has the bits of its single
call, that a stack with one bad member is refused and that each stacked check
stays small in memory.  ``MUTANTS`` pairs every check of the registry with a
plausible mutant that must make it fail on its comparison.
"""

import dataclasses
import itertools
import re
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from qslbound import bounds, dynamics, emit, presets, verify
from qslbound import reference_forms as ref
from qslbound.bounds import correction_r
from qslbound.dynamics import propagator_family
from qslbound.linalg import (
    _as_complex_matrix,
    partial_trace,
    require_hermitian,
    tensor_product,
)
from qslbound.measures import (
    capacity_of_entanglement,
    entanglement_entropy,
    ergotropy_max,
    modular_hamiltonian,
)
from qslbound.states import (
    DegenerateObservableError,
    _moments,
    _operands,
    density_from_pure,
    moments,
    perpendicular_state,
    reduced_state,
    require_density,
    require_state,
)

# The single draws as the invariant suite first wrote them: the reference.


def ref_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def ref_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def ref_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def ref_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


REFERENCE = {
    verify._hermitian: ref_hermitian,
    verify._state: ref_state,
    verify._density: ref_density,
    verify._unitary: ref_unitary,
}
KINDS = tuple(REFERENCE)


def assert_same_stream(a, b):
    assert a.standard_normal() == b.standard_normal()


class TestSameDraws:
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_a_single_draw_is_the_reference(self, d):
        mine, ref = np.random.default_rng(d), np.random.default_rng(d)
        for kind in KINDS:
            assert np.array_equal(verify._random(kind, mine, d), REFERENCE[kind](ref, d))
        assert_same_stream(mine, ref)

    @pytest.mark.parametrize("dims", [(2, 3, 4, 8), (4,)], ids=["choice", "one-dim"])
    def test_draws_keep_their_count_dims_chunks_floor_and_span(self, dims):
        # 600 kept draws take at least three chunks; the floor drops a few.
        n, floor, span = 2 * verify._DRAW_CHUNK + 100, 0.1, (-1.0, 2.0)
        kinds = (verify._hermitian, verify._state)
        kept, seen = 0, set()
        for d, (obs, psi, t) in verify._draws(np.random.default_rng(5), n, dims, kinds, floor, span):
            assert d in dims and 0 < len(t) <= verify._DRAW_CHUNK
            assert obs.shape == (len(t), d, d) and psi.shape == (len(t), d)
            assert np.all(moments(obs, psi).variance > floor)
            assert np.all((span[0] <= t) & (t < span[1]))
            kept, seen = kept + len(t), seen | {d}
        assert kept == n and seen == set(dims)

    @pytest.mark.parametrize("dims", [(2, 3, 4, 8), (4,)], ids=["choice", "one-dim"])
    def test_the_floor_keeps_exactly_the_draws_the_public_filter_keeps(self, dims):
        # The floor reads unvalidated moments; a filter through the public,
        # validating moments must keep and drop the same draws, bit for bit.
        n, floor = 2 * verify._DRAW_CHUNK + 100, 0.1
        kinds = (verify._hermitian, verify._hermitian, verify._state)
        mine = list(verify._draws(np.random.default_rng(7), n, dims, kinds, floor))
        public = list(public_floor_draws(np.random.default_rng(7), n, dims, kinds, floor))
        assert len(mine) == len(public)
        for (d, stacks), (d_ref, stacks_ref) in zip(mine, public):
            assert d == d_ref and all(np.array_equal(a, b) for a, b in zip(stacks, stacks_ref, strict=True))

    def test_a_floored_draw_is_dropped_until_n_are_kept(self):
        # A floor most two-level draws miss; every draw takes one index.
        floor, n, dims = 0.5, 400, (2, 3)
        rng, drawn = np.random.default_rng(9), []

        class Counting:
            def integers(self, high, size):
                drawn.append(size)
                return rng.integers(high, size=size)

            def __getattr__(self, name):
                return getattr(rng, name)

        kinds = (verify._hermitian, verify._state)
        draws = verify._draws(Counting(), n, dims, kinds, floor)
        kept = [row for _, stacks in draws for row in zip(*stacks)]
        assert len(kept) == n
        assert all(moments(obs, psi).variance > floor for obs, psi in kept)
        assert sum(drawn) - n > 50


def public_floor_draws(rng, n, dims, kinds, floor):
    # verify._draws with a floor, filtered through the public moments.
    while n > 0:
        which = rng.integers(len(dims), size=min(n, verify._DRAW_CHUNK))
        for d, picked in zip(dims, np.arange(len(dims))[:, None] == which):
            if not picked.any():
                continue
            stacks = [verify._random(k, rng, d, int(picked.sum())) for k in kinds]
            mask = np.all([moments(obs, stacks[-1]).variance > floor for obs in stacks[:-1]], axis=0)
            n -= int(mask.sum())
            if mask.any():
                yield d, [s[mask] for s in stacks]


def stack(rng, make, d, n=4):
    return np.array([make(rng, d) for _ in range(n)])


def fields(result):
    if dataclasses.is_dataclass(result):
        return [getattr(result, f.name) for f in dataclasses.fields(result)]
    return list(result) if isinstance(result, tuple) else [result]


# Generalized function -> argument makers, one stack each.
STACKED = {
    "as_complex_matrix": (_as_complex_matrix, (ref_hermitian,)),
    "require_hermitian": (require_hermitian, (ref_hermitian,)),
    "tensor_product": (tensor_product, (ref_hermitian, ref_hermitian)),
    "require_state": (require_state, (ref_state,)),
    "require_density": (require_density, (ref_density,)),
    "density_from_pure": (density_from_pure, (ref_state,)),
    "moments": (moments, (ref_hermitian, ref_state)),
    "perpendicular_state": (perpendicular_state, (ref_hermitian, ref_state)),
    "correction_r": (correction_r, (ref_hermitian, ref_hermitian, ref_state)),
    "entanglement_entropy": (entanglement_entropy, (ref_density,)),
    "modular_hamiltonian": (modular_hamiltonian, (ref_density,)),
    "capacity_of_entanglement": (capacity_of_entanglement, (ref_density,)),
    "ergotropy_max": (ergotropy_max, (ref_density, ref_hermitian)),
    "propagator_family": (lambda h, t: propagator_family(h)(t), (ref_hermitian, None)),
}


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("name", list(STACKED))
def test_each_member_of_a_stacked_call_is_its_single_call(name, d):
    fn, makers = STACKED[name]
    rng = np.random.default_rng(d)
    args = [rng.uniform(-5.0, 5.0, 4) if make is None else stack(rng, make, d) for make in makers]
    stacked = fields(fn(*args))
    for k in range(4):
        single = fields(fn(*(a[k] for a in args)))
        assert all(np.array_equal(s[k], one) for s, one in zip(stacked, single, strict=True))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("keep", ["A", "B"])
def test_each_member_of_a_stacked_partial_trace_is_its_single_call(dims, keep):
    rng = np.random.default_rng(sum(dims))
    rho = stack(rng, ref_density, dims[0] * dims[1])
    psi = stack(rng, ref_state, dims[0] * dims[1])
    for fn, arg in ((partial_trace, rho), (reduced_state, psi)):
        out = fn(arg, dims, keep)
        assert all(np.array_equal(out[k], fn(arg[k], dims, keep)) for k in range(4))


class TestStackRefusals:
    """One bad member refuses the stack, whichever its place, and the message
    quotes the worst member; a milder bad member sits next to it."""

    N = 5

    def members(self, make, d=3):
        return stack(np.random.default_rng(1), make, d, self.N)

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_non_hermitian(self, at):
        a = self.members(ref_hermitian)
        a[(at + 1) % self.N, 0, 1] += 1e-6
        a[at, 0, 1] += 1e-3
        worst = np.max(np.abs(a[at] - a[at].conj().T))
        with pytest.raises(ValueError, match=re.escape(f"not Hermitian: defect {worst:.3e}")):
            require_hermitian(a)

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_nan(self, at):
        a, psi = self.members(ref_hermitian), self.members(ref_state)
        a[at, 1, 1], psi[at, 2] = np.nan, np.nan
        with pytest.raises(ValueError, match="finite"):
            _as_complex_matrix(a)
        with pytest.raises(ValueError, match="finite"):
            moments(a, self.members(ref_state))
        with pytest.raises(ValueError, match="finite"):
            require_state(psi)

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_unnormalized(self, at):
        psi = self.members(ref_state)
        psi[(at + 1) % self.N] *= 1.1
        psi[at] *= 1.5
        norm = np.linalg.norm(psi, axis=-1)[at]
        with pytest.raises(ValueError, match=re.escape(f"||psi|| = {norm!r}")):
            perpendicular_state(self.members(ref_hermitian), psi)

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_non_square(self, at):
        members = list(self.members(ref_hermitian))
        members[at] = np.zeros((3, 4))
        with pytest.raises(ValueError):
            require_hermitian(members)
        with pytest.raises(ValueError, match="square"):
            require_hermitian(np.zeros((self.N, 3, 4)))

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_not_unit_trace(self, at):
        rho = self.members(ref_density)
        rho[(at + 1) % self.N] *= 1.1
        rho[at] *= 1.3
        trace = np.trace(rho[at]).real
        with pytest.raises(ValueError, match=re.escape(f"trace is {trace!r}")):
            entanglement_entropy(rho)

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_degenerate_member(self, at):
        a, b, psi = (self.members(make) for make in (ref_hermitian, ref_hermitian, ref_state))
        a[at] = np.diag([1.0, 2.0, 3.0])
        psi[at] = [0.0, 1.0, 0.0]
        with pytest.raises(DegenerateObservableError):
            perpendicular_state(a, psi)
        with pytest.raises(DegenerateObservableError):
            correction_r(a, b, psi)


def run_named(name, run=None):
    check = next(check for check in verify.CHECKS if check.name == name)
    return verify.run_check(check, run or verify.RunContext())


STACKED_CHECKS = [
    "operator-core/propagator-unitarity",
    "operator-core/partial-trace-density",
    "operator-core/tensor-product-trace",
    "quantum-state/perpendicular-orthogonality",
    "quantum-state/moments-density-crosscheck",
    "quantum-state/two-qubit-schmidt-rank",
    "info-measures/capacity-equals-modular-variance",
    "info-measures/entropy-unitary-invariance",
    "info-measures/ergotropy-bruteforce",
    "dynamics/picture-equivalence",
    "speed-limits/uncertainty-fuzz-holds",
    "speed-limits/optimal-branch-saturation",
    "fixtures/entanglement-perp",
    "fixtures/modular-perp",
    "fixtures/battery-coupled-perp",
]


@pytest.mark.parametrize("name", STACKED_CHECKS)
def test_a_stacked_check_peaks_below_a_megabyte(name):
    run = verify.RunContext()
    run_named(name, run)  # first call: imports and LAPACK workspaces
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = run_named(name, run)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result.status == "pass", result.detail
    assert peak <= 1_000_000


def wrong_axes_trace(real):
    # Sums every entry of the traced-out blocks, not their diagonals.
    def trace(m, dims, keep):
        blocks = np.asarray(m).reshape(*np.shape(m)[:-2], *dims, *dims)
        return np.einsum("...ijkl->...ik" if keep == "A" else "...ijkl->...jl", blocks)

    return trace


def row_major_kron(real):
    # Lays a_ij b_kl out in (i, j, k, l) order: the right entries in the wrong places.
    def kron(a, b):
        d = a.shape[-1] * b.shape[-1]
        return (a[..., :, :, None, None] * b[..., None, None, :, :]).reshape(*a.shape[:-2], d, d)

    return kron


def unnormalized_perp(real):
    return lambda obs, psi: _moments(*_operands(psi, obs))[0]


def uncentred_moments(real):
    def m(obs, psi):
        out = real(obs, psi)
        return dataclasses.replace(out, variance=out.variance + out.mean**2)

    return m


def diagonal_reduced(real):
    # Keeps the populations of the reduced state and drops its coherences.
    def rho(psi, dims, keep):
        out = real(psi, dims, keep)
        return out * np.eye(out.shape[-1])

    return rho


def diagonal_entropy(real):
    def s(rho):
        p = np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 1e-300, 1.0)
        return -np.sum(p * np.log(p), axis=-1)

    return s


def eigen_propagator(phases, right=lambda vecs: vecs.conj().swapaxes(-2, -1)):
    # A propagator_family of h = V diag(E) V^dag that returns V phases(E t) right(V).
    def mutate(real):
        def family(h):
            vals, vecs = np.linalg.eigh(h)
            return lambda t: (vecs * phases(vals * np.asarray(t)[..., None])[..., None, :]) @ right(vecs)

        return family

    return mutate


# exp(+iEt) for exp(-iEt): still unitary, but it runs time backwards.
backward_propagator = eigen_propagator(lambda et: np.exp(1j * et))
# cos(Et) for exp(-iEt): the phases lose their sine, and U its unitarity.
cosine_propagator = eigen_propagator(np.cos)
# V exp(-iEt) V^T: unitary and a solution of dU/dt = -iHU, but U(0) = V V^T.
transposed_propagator = eigen_propagator(lambda et: np.exp(-1j * et), right=lambda vecs: vecs.swapaxes(-2, -1))


def real_phases(real):
    # exp(-Et) for exp(-iEt): the amplitudes grow and decay instead of turning.
    return lambda t, vals: np.exp(-vals * t[:, None]).astype(complex)


def ascending_ergotropy(real):
    # Populations paired ascending with energies: the most energy that stays, not the least.
    def ergotropy(rho, h):
        left = np.sum(np.linalg.eigvalsh(rho) * np.linalg.eigvalsh(h), axis=-1)
        return np.trace(rho @ h, axis1=-2, axis2=-1).real - left

    return ergotropy


def flipped_derivative(real):
    def sample(*args):
        samples = real(*args)
        return samples._replace(derivatives=-samples.derivatives)

    return sample


def replaced(curve, columns):
    return dataclasses.replace(curve, **{name: value(curve) for name, value in columns.items()})


def bound_mutant(**columns):
    # qsl_integral with each named column of its curve set to columns[name](curve).
    def mutate(real):
        return lambda grid, samples: replaced(real(grid, samples), columns)

    return mutate


def plus_im_c(real):
    # r = (1 + |c|^2)/2 + |Im c|: eta and lhs drop by 2|Im c| and 2 rhs.
    def r(a, b, psi):
        out = real(a, b, psi)
        shift = 2.0 * out.rhs / (out.lhs / out.eta)
        return dataclasses.replace(out, r=out.r + shift, eta=out.eta - shift, lhs=out.lhs - 2.0 * out.rhs)

    return r


def flipped_sign(real):
    def r(a, b, psi):
        out = real(a, b, psi)
        return dataclasses.replace(out, sign_branch=np.where(out.sign_branch == "plus", "minus", "plus"))

    return r


def conjugated_c(real):
    # c* for c in the sampler: Im c, and with it 2 dO dH Im c, flips sign against d<O>/dt.
    def correlation(psi, a_psi, dev_b, mb):
        moments_a, c = real(psi, a_psi, dev_b, mb)
        return moments_a, c.conj()

    return correlation


def variance_scaled_deviation(real):
    # Multiplies (H - <H>) psi by dH^2 in the sampler: c comes out dH^2 too large.
    return lambda psi, a_psi, dev_b, mb: real(psi, a_psi, dev_b * mb.variance, mb)


def preset_mutant(names, **columns):
    # Each named column of every curve of the named presets set to columns[name](curve).
    def mutate(real):
        def build(preset, n_steps):
            curves = real(preset, n_steps)
            if preset not in [presets.PRESETS[name] for name in names]:
                return curves
            return [(label, params, replaced(c, columns)) for label, params, c in curves]

        return build

    return mutate


# The ratio form is the entanglement presets' form, the direct form every other preset's.
ratio_form_mutant = partial(preset_mutant, ("fig2", "fig3"))
MODULAR, BATTERY = ("fig5", "fig6"), ("fig7", "fig8")


def early_excess(curve):
    # t_sqslo a relative 1e-9 above T where T < 0.05, which a gap taken over T >= 0.05 misses.
    return np.where(curve.grid.points < 0.05, (1.0 + 1e-9) * curve.t_sqslo, curve.t_sqslo)


def detuned_by_exchange(real):
    # The exchange J read as a detuning of each cell, omega + J for omega: J now moves the charging.
    return lambda scn: real(dataclasses.replace(scn, omega=scn.omega + scn.j))


def drifting_runner(real):
    # Each curve's mean 1e-12 further off than the last one built: two builds differ.
    calls = itertools.count()

    def run(kind, scenario):
        curve = real(kind, scenario)
        return dataclasses.replace(curve, mean_values=curve.mean_values + 1e-12 * next(calls))

    return run


def late_strided_r_bar(real):
    # At a stride above 1, r_bar read one sample late, from the rows the stride skips; stride-1 renders stay right.
    def render(curve, metadata, stride=1):
        if stride > 1:
            curve = SimpleNamespace(**{**vars(curve), "r_bar": np.roll(curve.r_bar, -1)})
        return real(curve, metadata, stride)

    return render


def shifted_derivative(real):
    # Every d<O>/dt 1e-6 off: the means, and so the drift of <H>, stay as they are.
    def sample(*args):
        samples = real(*args)
        return samples._replace(derivatives=samples.derivatives + 1e-6)

    return sample


def shrunk_norm_cap(real):
    # The cap ||H|| log d at a tenth of its size, below |dS/dt|; the rate bound and its tightness stay.
    return lambda h, d: 0.1 * real(h, d)


def shifted_form(real):
    # A recorded form off by 0.01.
    return lambda *args: real(*args) + 0.01


def first_sample_out_of_range(real):
    # The pipeline has r at the first sample, but the recorded form offers no in-range branch there.
    def branches(t):
        at_first = t == verify._FIXTURE_TIMES[0]
        return tuple(np.where(at_first, bad, v) for bad, v in zip((2.0, 3.0), real(t)))

    return branches


def losing_one_r(real):
    # A NaN pipeline r (through its c) at the first time where the printed value is in range.
    def sample(*args):
        samples = real(*args)
        c = samples.c.copy()
        c[np.flatnonzero(ref.in_range(ref.r_entanglement_printed(0.1, 1.0, args[-1])))[0]] = np.nan
        return samples._replace(c=c)

    return sample


# An entry names its check, followed by the mutant where one check has two, and
# the function it breaks: a name in verify, or one in dynamics, emit, ref or presets;
# then the mutant, and any text that the failing detail must hold.
MUTANTS = {
    "operator-core/propagator-unitarity": ("propagator_family", cosine_propagator),
    "operator-core/partial-trace-density": ("partial_trace", wrong_axes_trace),
    "operator-core/tensor-product-trace": ("tensor_product", row_major_kron),
    # A NaN deviation must fail the check, not drop out of its maximum.
    "operator-core/tensor-product-trace (all NaN)": ("tensor_product", lambda real: lambda a, b: np.full((6, 6), np.nan)),
    "quantum-state/perpendicular-orthogonality": ("perpendicular_state", unnormalized_perp),
    "quantum-state/moments-density-crosscheck": ("moments", uncentred_moments),
    "quantum-state/two-qubit-schmidt-rank": ("reduced_state", diagonal_reduced),
    "info-measures/capacity-equals-modular-variance": (
        "capacity_of_entanglement",
        lambda real: entanglement_entropy,
    ),
    "info-measures/entropy-unitary-invariance": ("entanglement_entropy", diagonal_entropy),
    "info-measures/ergotropy-bruteforce": ("ergotropy_max", ascending_ergotropy),
    "dynamics/picture-equivalence": ("propagator_family", backward_propagator),
    "dynamics/picture-equivalence (transposed right factor)": ("propagator_family", transposed_propagator),
    "dynamics/derivative-consistency": ("sample_heisenberg", flipped_derivative),
    "dynamics/derivative-consistency (conjugated c)": ("dynamics._correlation", conjugated_c),
    "dynamics/derivative-consistency (scaled deviation row)": ("dynamics._correlation", variance_scaled_deviation),
    "dynamics/energy-conservation": ("dynamics._phases", real_phases),
    "dynamics/energy-conservation (derivative)": ("sample_heisenberg", shifted_derivative),
    "speed-limits/uncertainty-fuzz-holds": ("correction_r", plus_im_c),
    "speed-limits/optimal-branch-saturation": ("correction_r", flipped_sign),
    "speed-limits/single-qubit-saturation": ("qsl_integral", bound_mutant(t_qslo=lambda c: 0.99 * c.t_qslo)),
    "scenarios/closed-forms (t_sqslo)": ("build_preset_curves", ratio_form_mutant(t_sqslo=lambda c: 0.99 * c.t_sqslo)),
    "scenarios/closed-forms (mean_values)": ("build_preset_curves", ratio_form_mutant(mean_values=lambda c: 1.01 * c.mean_values)),
    "scenarios/hierarchy-presets": ("build_preset_curves", ratio_form_mutant(t_sqslo=lambda c: c.t_qslo)),
    "scenarios/hierarchy-presets (warnings)": ("build_preset_curves", preset_mutant(MODULAR + BATTERY, warnings=lambda c: ())),
    "scenarios/direct-form-saturation (modular)": ("build_preset_curves", preset_mutant(MODULAR, t_sqslo=early_excess)),
    "scenarios/direct-form-saturation (battery)": ("build_preset_curves", preset_mutant(BATTERY, t_sqslo=early_excess)),
    # fig8 alone: its t_sqslo a relative 1e-9 above T, well inside hierarchy-presets' gate.
    "scenarios/direct-form-saturation (fig8)": ("build_preset_curves", preset_mutant(("fig8",), t_sqslo=lambda c: (1.0 + 1e-9) * c.t_sqslo)),
    "scenarios/battery-qslo-parallel-collective": ("run_battery_scenario", detuned_by_exchange),
    "scenarios/ergotropy-j-independence": ("run_battery_scenario", detuned_by_exchange),
    # t_sqslo := t_qslo drops the SQSLO integrand's 1/eta.
    "scenarios/entanglement-rate-bound": ("qsl_integral", bound_mutant(t_sqslo=lambda c: c.t_qslo)),
    "scenarios/entanglement-rate-bound (norm cap)": ("norm_rate_comparison", shrunk_norm_cap),
    "cli/determinism": ("presets.run_scenario", drifting_runner),
    # The path of every preset's CSV on the default grid, which the unstrided render never takes.
    "cli/determinism (strided render)": ("emit.render_csv", late_strided_r_bar),
    "fixtures/battery-coupled-r": ("ref.r_battery_coupled_branches", first_sample_out_of_range),
    # Every recorded value out of [0, 1], or every recorded state NaN: nothing
    # is left to compare, which must not read as a match.
    "fixtures/battery-decoupled-r": (
        "ref.r_battery_decoupled_printed",
        lambda real: lambda t: (np.full_like(t, 2.0), np.full_like(t, 3.0)),
        "max deviation inf over 0 and 0 in-range samples",
    ),
    "fixtures/battery-parallel-r": ("ref.r_battery_parallel_printed", shifted_form),
    "fixtures/entanglement-r": ("sample_entanglement", losing_one_r),
    "fixtures/entanglement-perp": ("ref.perp_entanglement_printed", shifted_form),
    "fixtures/modular-perp": ("ref.perp_modular_printed", shifted_form),
    "fixtures/battery-coupled-perp": ("ref.perp_battery_coupled_printed", lambda real: lambda t: np.full(np.shape(t) + (4,), np.nan)),
}
OWNERS = {"": verify, "dynamics": dynamics, "emit": emit, "ref": ref, "presets": presets}


def test_every_check_has_a_mutant():
    assert {name.split(" (")[0] for name in MUTANTS} == {check.name for check in verify.CHECKS}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_a_broken_covered_function_fails_its_stacked_check(name, run, monkeypatch):
    # The check passes, or reports its known discrepancy, on the session's
    # unbroken run, and fails on its comparison, not by raising, once broken,
    # with a detail that differs from the unbroken one.
    check = next(check for check in verify.CHECKS if check.name == name.split(" (")[0])
    target, mutant, *texts = MUTANTS[name]
    owner, _, attr = target.rpartition(".")
    unbroken = run.result(check)
    assert unbroken.status != "fail"
    monkeypatch.setattr(OWNERS[owner], attr, mutant(getattr(OWNERS[owner], attr)))
    result = verify.run_check(check, verify.RunContext())
    assert result.status == "fail" and not result.detail.startswith("raised "), result.detail
    assert result.detail != unbroken.detail and all(text in result.detail for text in texts), result.detail


def unconjugated_correlation(psi, a_psi, dev_b, mb):
    # c = <(A - <A>) psi|(B - <B>) psi> / (dA dB) with the conjugate dropped.
    dev_a, ma = _moments(psi, a_psi)
    return ma, np.sum(dev_a * dev_b, axis=-1) / (ma.std_dev * mb.std_dev)


@pytest.mark.parametrize(
    "name", ["speed-limits/uncertainty-fuzz-holds", "fixtures/battery-coupled-r", "fixtures/entanglement-r"]
)
def test_a_broken_kernel_fails_the_scalar_and_the_sampled_checks(name, monkeypatch):
    # correction_r and the sampler hold the one kernel, so one broken c
    # fails the scalar fuzz check and the checks fed by the sampler.
    assert dynamics._correlation is bounds._correlation
    assert run_named(name).status == "pass"
    for module in (bounds, dynamics):
        monkeypatch.setattr(module, "_correlation", unconjugated_correlation)
    result = run_named(name)
    assert result.status == "fail" and not result.detail.startswith("raised "), result.detail
