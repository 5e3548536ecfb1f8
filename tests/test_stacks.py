"""Stacked evaluation: the same draws, the same bits, one validated call.

The random-draw checks of ``verify`` draw their operators in blocks and
evaluate stacks of them.  These tests pin that the stacked draws are the
documented block calls, each row a single reference draw, that every member
of a stacked library call has the bits of its single call, that a stack with
one bad member is refused, that each stacked check stays small in memory and
that it fails when the function it covers is broken.
"""

import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from qslbound import bounds, dynamics, verify
from qslbound.bounds import correction_r
from qslbound.dynamics import propagator_family
from qslbound.linalg import (
    EigenSystem,
    as_complex_matrix,
    hermitian_eig,
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
    def test_stacked_draws_are_the_documented_block_calls(self, dims):
        # 300 draws make a chunk of 250 and one of 50; a single dimension
        # draws no index.  Each standard_normal block is its rows' single
        # reference draws in turn.
        n, span = verify._DRAW_CHUNK + 50, (-1.0, 2.0)
        mine, ref = np.random.default_rng(5), np.random.default_rng(5)
        expected = []
        for m in (verify._DRAW_CHUNK, 50):
            which, times = ref.integers(len(dims), size=m), ref.uniform(*span, size=m)
            for i, d in enumerate(dims):
                for t in times[which == i]:
                    expected.append((d, [REFERENCE[kind](ref, d) for kind in KINDS] + [t]))
        got = [
            (d, row)
            for d, stacks in verify._draws(mine, n, dims, KINDS, span=span)
            for row in zip(*stacks)
        ]
        assert len(got) == len(expected) == n
        for (d, row), (ref_d, ref_row) in zip(got, expected):
            assert d == ref_d
            assert all(np.array_equal(a, b) for a, b in zip(row, ref_row, strict=True))
        assert_same_stream(mine, ref)

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
        assert sum(drawn) - n > 100

    def test_fixed_layout_rows_are_consecutive_draws(self):
        # The layout of operator-core/eig-reconstruction: one row per loop pass.
        dims = (2, 4, 8, 16)
        mine, ref = np.random.default_rng(3), np.random.default_rng(3)
        x = mine.standard_normal((6, sum(2 * d * d for d in dims)))
        stacks = [verify._hermitian(g) for g in verify._gaussians(x, *((d, d) for d in dims))]
        for k in range(6):
            for d, stack in zip(dims, stacks):
                assert np.array_equal(stack[k], ref_hermitian(ref, d))
        assert_same_stream(mine, ref)


def stack(rng, make, d, n=4):
    return np.array([make(rng, d) for _ in range(n)])


def fields(result):
    if dataclasses.is_dataclass(result):
        return [getattr(result, f.name) for f in dataclasses.fields(result)]
    return list(result) if isinstance(result, tuple) else [result]


# Generalized function -> argument makers, one stack each.
STACKED = {
    "as_complex_matrix": (as_complex_matrix, (ref_hermitian,)),
    "require_hermitian": (require_hermitian, (ref_hermitian,)),
    "hermitian_eig": (hermitian_eig, (ref_hermitian,)),
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
            hermitian_eig(a)

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_nan(self, at):
        a, psi = self.members(ref_hermitian), self.members(ref_state)
        a[at, 1, 1], psi[at, 2] = np.nan, np.nan
        with pytest.raises(ValueError, match="finite"):
            as_complex_matrix(a)
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
    "operator-core/eig-reconstruction",
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


def perturbed_eig(real):
    def eig(m):
        vals, vecs = real(m)
        vecs = vecs.copy()
        vecs[..., :, 0] *= 1.0 + 1e-6
        return EigenSystem(vals, vecs)

    return eig


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


def diagonal_entropy(real):
    def s(rho):
        p = np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 1e-300, 1.0)
        return -np.sum(p * np.log(p), axis=-1)

    return s


def backward_propagator(real):
    # exp(+iEt) for exp(-iEt): still unitary, but it runs time backwards.
    def family(h):
        vals, vecs = hermitian_eig(h)
        vecs_h = vecs.conj().swapaxes(-2, -1)
        return lambda t: (vecs * np.exp(1j * vals * np.asarray(t)[..., None])[..., None, :]) @ vecs_h

    return family


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


MUTANTS = {
    "operator-core/eig-reconstruction": ("hermitian_eig", perturbed_eig),
    "operator-core/partial-trace-density": ("partial_trace", wrong_axes_trace),
    "operator-core/tensor-product-trace": ("tensor_product", row_major_kron),
    "quantum-state/perpendicular-orthogonality": ("perpendicular_state", unnormalized_perp),
    "quantum-state/moments-density-crosscheck": ("moments", uncentred_moments),
    "info-measures/capacity-equals-modular-variance": (
        "capacity_of_entanglement",
        lambda real: entanglement_entropy,
    ),
    "info-measures/entropy-unitary-invariance": ("entanglement_entropy", diagonal_entropy),
    "dynamics/picture-equivalence": ("propagator_family", backward_propagator),
    "speed-limits/uncertainty-fuzz-holds": ("correction_r", plus_im_c),
    "speed-limits/optimal-branch-saturation": ("correction_r", flipped_sign),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_a_broken_covered_function_fails_its_stacked_check(name, monkeypatch):
    attr, mutate = MUTANTS[name]
    assert run_named(name).status == "pass"
    monkeypatch.setattr(verify, attr, mutate(getattr(verify, attr)))
    result = run_named(name)
    assert result.status == "fail" and not result.detail.startswith("raised "), result.detail


def unconjugated_correlation(psi, a_psi, b_psi):
    # c = <(A - <A>) psi|(B - <B>) psi> / (dA dB) with the conjugate dropped.
    dev_a, ma = _moments(psi, a_psi)
    dev_b, mb = _moments(psi, b_psi)
    return ma, mb, np.sum(dev_a * dev_b, axis=-1) / (ma.std_dev * mb.std_dev)


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


def test_the_draw_index_consumes_the_generator_as_choice_does():
    a, b = np.random.default_rng(2), np.random.default_rng(2)
    for dims in itertools.islice(itertools.cycle([(2, 4, 8), (2, 3, 4, 8), (2, 3, 4), (4,)]), 400):
        assert dims[a.integers(len(dims))] == int(b.choice(dims))
    assert_same_stream(a, b)
