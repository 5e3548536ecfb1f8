"""Unitary dynamics on time grids, sampled in the Hamiltonian's eigenbasis.

One sampler serves every curve.  It diagonalizes H = V diag(E) V^dag once and
evolves the amplitudes c_t = exp(-iEt) * V^dag psi0 in blocks of SAMPLE_BLOCK
times, so its working memory is set by the block, not the grid.  The rows
psi_t, O psi_t and H psi_t of a block go through ``bounds._correlation``, the
one kernel ``correction_r`` runs too, for the mean and spread of O and the
correlation c of the pair (O, H); ``Samples`` carry c and derive r from it.
``sample_heisenberg`` takes <psi0|U^dag O U|psi0> as <psi_t|O|psi_t> with its
rows in H's eigenbasis, and d<O>/dt = <c_t| i[diag(E), V^dag O V] |c_t> from
one commutator per curve; ``sample_entanglement`` rebuilds
O = -log rho_A(t) (x) I_B at every sample from a stacked eigendecomposition
of the d_A x d_A reduced states (Schroedinger picture).  Derivatives come
from the commutator identity, never from finite differences, so quadrature
is the only discretization error downstream.  The public samplers validate
H, O and psi0 once, on entry, and then run the core (``_heisenberg``,
``_entanglement``).  The scenario runners call the core directly: their
operators are Hermitian and normalized by construction, from validated
parameters and constant Pauli products, so the core checks only that H is
finite, and returns dH of H in psi0 with the samples.  hbar = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bounds import _correlation, _r_from_c
from .linalg import commutator, hermitian_eig, require_hermitian
from .measures import _clamped_log
from .states import _moments, require_state

# Default sampling density for bound integrals.
STEPS_PER_UNIT_TIME = 2000
MIN_GRID_STEPS = 16

# Sample times per block of the sampler; bounds its working memory.
SAMPLE_BLOCK = 1024


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time samples on [0, t_max] with n_steps intervals."""

    t_max: float
    n_steps: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max!r}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 2:
            raise ValueError(f"n_steps must be an integer >= 2, got {self.n_steps!r}")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(
            self, "points", np.linspace(0.0, self.t_max, self.n_steps + 1)
        )

    @property
    def dx(self) -> float:
        return self.t_max / self.n_steps

    @classmethod
    def with_resolution(cls, t_max: float, n_steps: Optional[int] = None) -> "TimeGrid":
        """Grid with n_steps intervals if given, else ~STEPS_PER_UNIT_TIME per
        unit time (an even count, at least MIN_GRID_STEPS)."""
        if n_steps is not None:
            return cls(t_max, n_steps)
        steps = t_max * STEPS_PER_UNIT_TIME
        if not (t_max > 0.0 and math.isfinite(steps)):
            raise ValueError(
                f"t_max must be positive, and finite at {STEPS_PER_UNIT_TIME} steps per"
                f" unit time, got {t_max!r}"
            )
        n = max(MIN_GRID_STEPS, math.ceil(steps))
        return cls(t_max, n + n % 2)


class Samples(NamedTuple):
    """Per-time mean, spread and d<O>/dt of O, and c of (O, H), NaN where undefined."""

    means: np.ndarray
    std_devs: np.ndarray
    derivatives: np.ndarray
    c: np.ndarray

    @property
    def r(self) -> np.ndarray:
        """The correction factor of (O, H) per sample, NaN where c is."""
        return _r_from_c(self.c)[0]


def propagator_family(h) -> Callable[[float], np.ndarray]:
    """U(t) = exp(-iHt) from one eigendecomposition of ``h``; a stack takes a t each."""
    vals, vecs = hermitian_eig(h)
    vecs_h = vecs.conj().swapaxes(-2, -1)

    def u_of_t(t) -> np.ndarray:
        return (vecs * np.exp(-1j * vals * np.asarray(t)[..., None])[..., None, :]) @ vecs_h

    return u_of_t


def expectation_derivative(h, obs_t, psi) -> float:
    """d<O>/dt = i <psi| [H, O(t)] |psi>, evaluated exactly.

    Both pictures share this form: in the Heisenberg picture O(t) evolves,
    in the Schroedinger picture ``psi`` is the evolved state and O(t) the
    frozen current operator.
    """
    hm = require_hermitian(h)
    o = require_hermitian(obs_t)
    v = require_state(psi)
    if hm.shape != o.shape or hm.shape[0] != v.size:
        raise ValueError("dimension mismatch in expectation derivative")
    return float((1j * np.vdot(v, commutator(hm, o) @ v)).real)


def _validated(h, psi0) -> tuple[np.ndarray, np.ndarray]:
    """The public samplers' checks of H and psi0: Hermitian, normalized, sized alike."""
    hm = require_hermitian(h)
    v = require_state(psi0)
    if hm.shape != (v.size, v.size):
        raise ValueError("dimension mismatch between Hamiltonian and state")
    return hm, v


def _eigen_start(h, psi0) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(E, V, V^dag psi0) of a Hermitian H and a normalized psi0, and the
    spread dH of H in psi0 by ``states.moments``' arithmetic.  Only H's
    finiteness is checked: the runners build H from finite parameters, and
    a product of them may still overflow."""
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs, vecs.conj().T @ psi0, _moments(psi0, (h @ psi0[..., None])[..., 0])[1].std_dev


def _phases(t, vals) -> np.ndarray:
    """exp(-iEt) for every (t, E), written as cos and -sin into one complex array."""
    angle = np.outer(t, vals)
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(-angle, out=out.imag)
    return out


def _sample(times, vals, c0, rows) -> Samples:
    """Run ``rows`` over blocks of eigen-amplitudes c_t.

    ``rows(c)`` returns (psi, O psi, H psi, d<O>/dt) for a block of c_t.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        raise ValueError("sample times must be a finite 1-D array")
    out, corr = np.empty((3, t.size)), np.empty(t.size, dtype=complex)
    for start in range(0, t.size, SAMPLE_BLOCK):
        block = slice(start, start + SAMPLE_BLOCK)
        psi, o_psi, h_psi, derivs = rows(_phases(t[block], vals) * c0)
        m, _, corr[block] = _correlation(psi, o_psi, h_psi)
        out[:, block] = m.mean, m.std_dev, derivs
    return Samples(*out, corr)


def sample_heisenberg(h, obs0, psi0, times) -> Samples:
    """Samples of the Heisenberg-evolved observable U^dag O U in psi0."""
    hm, v = _validated(h, psi0)
    o = require_hermitian(obs0)
    if o.shape != hm.shape:
        raise ValueError("dimension mismatch between Hamiltonian and observable")
    return _heisenberg(hm, o, v, times)[0]


def _heisenberg(h, obs0, psi0, times) -> tuple[Samples, float]:
    """``sample_heisenberg`` of operands valid by construction, and the
    spread dH of H in psi0."""
    vals, vecs, c0, delta_h = _eigen_start(h, psi0)
    o_eig = vecs.conj().T @ obs0 @ vecs
    rate = 1j * commutator(np.diag(vals), o_eig)

    def rows(c):
        return c, c @ o_eig.T, c * vals, np.sum(c.conj() * (c @ rate.T), axis=1).real

    return _sample(times, vals, c0, rows), delta_h


def sample_entanglement(h, psi0, dims: tuple[int, int], times) -> Samples:
    """Samples of the modular Hamiltonian O = -log rho_A(t) (x) I_B of the
    evolved bipartite state (Schroedinger picture): the means are entanglement
    entropies, the variances capacities of entanglement, and the derivatives
    i<[H, O]> = 2 Im <O psi_t|H psi_t> with O frozen at each sample."""
    return _entanglement(*_validated(h, psi0), dims, times)[0]


def _entanglement(h, psi0, dims: tuple[int, int], times) -> tuple[Samples, float]:
    """``sample_entanglement`` of operands valid by construction, and the
    spread dH of H in psi0."""
    vals, vecs, c0, delta_h = _eigen_start(h, psi0)
    d_a, d_b = int(dims[0]), int(dims[1])
    if d_a < 1 or d_b < 1 or d_a * d_b != vals.size:
        raise ValueError(f"dims {dims} inconsistent with state size {vals.size}")

    def rows(c):
        psi = c @ vecs.T
        h_psi = (c * vals) @ vecs.T
        amps = psi.reshape(-1, d_a, d_b)
        weights, basis = np.linalg.eigh(amps @ amps.conj().transpose(0, 2, 1))
        modular = (basis * -_clamped_log(weights)[:, None, :]) @ basis.conj().transpose(0, 2, 1)
        k_psi = (modular @ amps).reshape(psi.shape)
        return psi, k_psi, h_psi, 2.0 * np.sum(k_psi.conj() * h_psi, axis=1).imag

    return _sample(times, vals, c0, rows), delta_h
