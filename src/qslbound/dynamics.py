"""Unitary dynamics on time grids, sampled in the Hamiltonian's eigenbasis.

One sampler serves every curve.  It diagonalizes H = V diag(E) V^dag once and
evolves the amplitudes c_t = exp(-iEt) * V^dag psi0 in blocks of SAMPLE_BLOCK
times, so its working memory is set by the block, not the grid.  On a
``TimeGrid`` the blocks reuse one phase table, block 0's c_t: a block
starting at t_start is its rows times exp(-iE t_start); arbitrary times take
their phases directly.  <H> and dH are constants of the motion, taken once
per curve from psi0.  The rows psi_t, O psi_t and (H - <H>) psi_t =
V (c_t * (E - <H>)) of a block go through ``bounds._correlation``, the one
kernel ``correction_r`` runs too, for the mean and spread of O and the
correlation c of the pair (O, H); ``Samples`` carry c and derive r from it.  ``sample_heisenberg`` takes
<psi0|U^dag O U|psi0> as <psi_t|O|psi_t> with its rows in H's eigenbasis, and
d<O>/dt = <c_t| i[diag(E), V^dag O V] |c_t> from one commutator per curve;
``sample_entanglement`` rebuilds O = -log rho_A(t) (x) I_B at every sample
(Schroedinger picture): for d_A = 2 in closed form, O = alpha I - g rho_A
from rho_A's two eigenvalues, so O psi_t takes only multiply-adds on the two
amplitude rows; otherwise from a stacked eigendecomposition of the d_A x d_A
reduced states, whose products (rho_A, O, O psi_t) are broadcast
multiply-adds over the contracted axis: a stacked matmul pays a fixed cost
per matrix.  Derivatives come from the commutator identity, never from finite
differences or from c, so quadrature is the only discretization error
downstream and each of derivative and c checks the other.  The public
samplers validate H, O, psi0 and the times once, on entry, and then run the
core (``_heisenberg``, ``_entanglement``).  The scenario runners call the
core directly: their operators are Hermitian and normalized by construction,
from validated parameters and constant Pauli products, so the core checks
only that H is finite, and returns dH of H in psi0 with the samples.
hbar = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bounds import _correlation, _r_from_c
from .linalg import LOG_EIG_FLOOR, _vdot, commutator, require_hermitian
from .measures import _clamped_log
from .states import ObservableMoments, _moments, require_state

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
        # np.linspace's arithmetic, bit for bit, without its per-call overhead.
        points = np.arange(self.n_steps + 1) * (self.t_max / self.n_steps)
        points[-1] = self.t_max
        object.__setattr__(self, "points", points)

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
        return _r_from_c(self.c)


def propagator_family(h) -> Callable[[float], np.ndarray]:
    """U(t) = exp(-iHt) from one eigendecomposition of ``h``; a stack takes a t each."""
    vals, vecs = np.linalg.eigh(require_hermitian(h))
    vecs_h = vecs.conj().swapaxes(-2, -1)

    def u_of_t(t) -> np.ndarray:
        return (vecs * np.exp(-1j * vals * np.asarray(t)[..., None])[..., None, :]) @ vecs_h

    return u_of_t


def _validated(h, psi0, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The public samplers' checks of H, psi0 and the times: H Hermitian,
    psi0 normalized and sized alike, the times a finite 1-D array."""
    hm = require_hermitian(h)
    v = require_state(psi0)
    if hm.shape != (v.size, v.size):
        raise ValueError("dimension mismatch between Hamiltonian and state")
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or not np.isfinite(t).all():
        raise ValueError("sample times must be a finite 1-D array")
    return hm, v, t


def _eigen_start(h, psi0) -> tuple[np.ndarray, np.ndarray, np.ndarray, ObservableMoments]:
    """(E, V, V^dag psi0) of a Hermitian H and a normalized psi0, and the
    mean and spread of H in psi0 by ``states.moments``' arithmetic, constants
    of the motion.  Only H's finiteness is checked: the runners build H from
    finite parameters, and a product of them may still overflow."""
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs, vecs.conj().T @ psi0, _moments(psi0, h @ psi0)[1]


def _phases(t, vals) -> np.ndarray:
    """exp(-iEt) for every (t, E), written as cos and sin of -Et into one complex array."""
    angle = -vals * t[:, None]
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _sample(times, vals, c0, m_h, rows) -> Samples:
    """Run ``rows`` over blocks of eigen-amplitudes c_t at ``times``, a
    ``TimeGrid`` or a finite 1-D array; ``m_h`` holds H's mean and spread in psi0.

    ``rows(c)`` returns (psi, O psi, (H - <H>) psi, d<O>/dt) for a block of c_t.
    """
    on_grid = isinstance(times, TimeGrid)
    t = times.points if on_grid else times
    table = _phases(t[:SAMPLE_BLOCK], vals) * c0
    out, corr = np.empty((3, t.size)), np.empty(t.size, dtype=complex)
    for start in range(0, t.size, SAMPLE_BLOCK):
        block = slice(start, start + SAMPLE_BLOCK)
        if not start:
            c = table
        elif on_grid:  # t[start + j] = t[start] + t[j]
            c = table[: t.size - start] * _phases(t[start : start + 1], vals)
        else:
            c = _phases(t[block], vals) * c0
        psi, o_psi, dev_h, derivs = rows(c)
        m, corr[block] = _correlation(psi, o_psi, dev_h, m_h)
        out[0, block], out[1, block], out[2, block] = m.mean, m.std_dev, derivs
    return Samples(*out, corr)


def _products(a, b) -> np.ndarray:
    """a @ b over stacks of small matrices, summed over the contracted axis in order."""
    terms = (a[:, :, k, None] * b[:, None, k] for k in range(a.shape[2]))
    return sum(terms, next(terms))


def sample_heisenberg(h, obs0, psi0, times) -> Samples:
    """Samples of the Heisenberg-evolved observable U^dag O U in psi0."""
    hm, v, t = _validated(h, psi0, times)
    o = require_hermitian(obs0)
    if o.shape != hm.shape:
        raise ValueError("dimension mismatch between Hamiltonian and observable")
    return _heisenberg(hm, o, v, t)[0]


def _heisenberg(h, obs0, psi0, times) -> tuple[Samples, float]:
    """``sample_heisenberg`` of operands valid by construction, and the
    spread dH of H in psi0."""
    vals, vecs, c0, m_h = _eigen_start(h, psi0)
    o_eig = vecs.conj().T @ obs0 @ vecs
    rate = 1j * commutator(np.diag(vals), o_eig)
    shifted = vals - m_h.mean

    def rows(c):
        return c, c @ o_eig.T, c * shifted, _vdot(c, c @ rate.T).real

    return _sample(times, vals, c0, m_h, rows), m_h.std_dev


def sample_entanglement(h, psi0, dims: tuple[int, int], times) -> Samples:
    """Samples of the modular Hamiltonian O = -log rho_A(t) (x) I_B of the
    evolved bipartite state (Schroedinger picture): the means are entanglement
    entropies, the variances capacities of entanglement, and the derivatives
    i<[H, O]> = 2 Im <O psi_t|(H - <H>) psi_t> with O frozen at each sample."""
    hm, v, t = _validated(h, psi0, times)
    return _entanglement(hm, v, dims, t)[0]


def _entanglement(h, psi0, dims: tuple[int, int], times) -> tuple[Samples, float]:
    """``sample_entanglement`` of operands valid by construction, and the
    spread dH of H in psi0."""
    vals, vecs, c0, m_h = _eigen_start(h, psi0)
    shifted = vals - m_h.mean
    d_a, d_b = int(dims[0]), int(dims[1])
    if d_a < 1 or d_b < 1 or d_a * d_b != vals.size:
        raise ValueError(f"dims {dims} inconsistent with state size {vals.size}")
    k_rows = _two_level_k_psi if d_a == 2 else _stacked_k_psi

    def rows(c):
        psi = c @ vecs.T
        dev_h = (c * shifted) @ vecs.T
        k_psi = k_rows(psi.reshape(-1, d_a, d_b)).reshape(psi.shape)
        return psi, k_psi, dev_h, 2.0 * (k_psi.conj() * dev_h).sum(axis=1).imag

    return _sample(times, vals, c0, m_h, rows), m_h.std_dev


def _two_level_k_psi(amps) -> np.ndarray:
    """K psi, K = -log rho_A (x) I_B, for rows psi = (u, w) of a qubit A, in
    closed form.  rho_A = [[a, b], [b*, d]] has eigenvalues l+- = m +- r, so
    K = alpha I - g rho_A with g = (log l+ - log l-)/(2r) = artanh(r/m)/r
    (1/m at r = 0, no cancellation near it) and alpha = g m - (log l+ + log l-)/2,
    the logs clamped as ``measures._clamped_log``; where l- is clamped, g takes
    the plain difference."""
    u, w = amps[:, 0], amps[:, 1]
    a, d, b = _vdot(u, u).real, _vdot(w, w).real, _vdot(w, u)
    m = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), np.abs(b))
    log_hi, log_lo = _clamped_log(m + r), _clamped_log(m - r)
    with np.errstate(divide="ignore", invalid="ignore"):  # the values at r = 0 and r >= m are discarded
        g = np.where(r > 0.0, np.arctanh(r / m) / r, 1.0 / m)
        g = np.where(m - r < LOG_EIG_FLOOR, (log_hi - log_lo) / (2.0 * r), g)
    alpha, gb = g * m - 0.5 * (log_hi + log_lo), (g * b)[:, None]
    rows = ((alpha - g * a)[:, None] * u - gb * w, (alpha - g * d)[:, None] * w - gb.conj() * u)
    return np.stack(rows, axis=1)


def _stacked_k_psi(amps) -> np.ndarray:
    """K psi, K = -log rho_A (x) I_B, for rows psi of shape (d_A, d_B), from a
    stacked eigendecomposition of the reduced states."""
    weights, basis = np.linalg.eigh(_products(amps, amps.conj().transpose(0, 2, 1)))
    modular = _products(basis * -_clamped_log(weights)[:, None, :], basis.conj().transpose(0, 2, 1))
    return _products(modular, amps)
