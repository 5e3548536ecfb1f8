"""Unitary dynamics on time grids, sampled in the Hamiltonian's eigenbasis.

One sampler serves every curve.  It diagonalizes H = V diag(E) V^dag once and
evolves the amplitudes c_t = exp(-iEt) * V^dag psi0 in blocks of SAMPLE_BLOCK
times, so its working memory is set by the block, not the grid.  On a
``TimeGrid`` the blocks reuse one phase table, block 0's c_t: a block
starting at t_start is its rows times exp(-iE t_start); arbitrary times take
their phases directly.  <H> and dH are constants of the motion, taken once
per curve from psi0.  The rows psi_t, O psi_t and (H - <H>) psi_t =
V (c_t * (E - <H>)) of a block go through ``states._correlation``, the one
kernel ``bounds.correction_r`` runs too, for the mean and spread of O and the
correlation c of the pair (O, H); ``Samples`` carry c, derive r from it, and
carry dH, which every bound divides by.  ``sample_heisenberg`` takes
<psi0|U^dag O U|psi0> as <psi_t|O|psi_t> with its rows in H's eigenbasis, and
d<O>/dt = <c_t| i[diag(E), V^dag O V] |c_t> from one commutator per curve;
``sample_entanglement`` rebuilds O = -log rho_A(t) (x) I_B at every sample
(Schroedinger picture): for d_A = 2 in closed form, O = alpha I - g rho_A
from rho_A's two eigenvalues, so O psi_t takes only multiply-adds on the two
amplitude rows; otherwise by the modular-operator kernel of ``measures`` on
the stacked d_A x d_A reduced states.  No derivative comes from finite
differences, so quadrature is the only discretization error downstream.
``sample_heisenberg``'s d<O>/dt, from the commutator, and c check each other;
``sample_entanglement``'s, 2 Im <O psi_t|(H - <H>) psi_t>, reads the rows
that ``states._correlation`` reads for c, so it checks only that arithmetic.
The public samplers validate H, O, psi0 and the times once, on entry, and
then run the core (``_heisenberg``, ``_entanglement``).  The scenario runners,
whose operators are Hermitian and normalized by construction, call the core
directly; it checks only that H is finite.  The core is a set-up
(``_prepare_*``), which ends in E, V^dag psi0, H's moments and the picture's
row kernel, then ``_sample``, the one evaluation kernel, at a grid or at any
finite times.  A ``TimeGrid`` whose step aliases the spectrum,
dx * (E_max - E_min) >= pi, is refused (``_AliasedGridError``) by the set-up
right after ``eigh`` and by ``_sample``: above pi / dx the samples alias a
frequency E_i - E_j to a slower one.  hbar = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .linalg import LOG_EIG_FLOOR, _vdot, commutator, require_hermitian
from .measures import _clamped_log, _modular
from .states import ObservableMoments, _correlation, _moments, _r_from_c, require_state

# Default sampling density for bound integrals.
STEPS_PER_UNIT_TIME = 2000
MIN_GRID_STEPS = 16

# Sample times per block of the sampler; bounds its working memory.
SAMPLE_BLOCK = 1024


class _AliasedGridError(ValueError):
    """A grid too coarse for the spectrum it samples; the CLI exits 1 on it."""


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
        if not self.t_max / self.n_steps > 0.0:
            raise ValueError(f"the step t_max / n_steps = {self.t_max!r} / {self.n_steps} underflows to 0")
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
    """Per-time mean, spread and d<O>/dt of O, and c of (O, H), NaN where
    undefined; and dH, the spread of H in psi0, a constant of the motion."""

    means: np.ndarray
    std_devs: np.ndarray
    derivatives: np.ndarray
    c: np.ndarray
    delta_h: float

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


def _eigen_start(h, psi0, times) -> tuple[np.ndarray, np.ndarray, np.ndarray, ObservableMoments, np.ndarray]:
    """The set-up both pictures share: E, V and V^dag psi0 of a Hermitian H and a
    normalized psi0, H's mean and spread in psi0 by ``states.moments``' arithmetic, and
    E - <H>.  Only H's finiteness is checked: a product of the runners' finite parameters
    may overflow.  A TimeGrid ``times`` that aliases E is refused right after ``eigh``;
    each picture's set-up then ends in the core that ``_sample`` evaluates."""
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    vals, vecs = np.linalg.eigh(h)
    _refuse_aliasing(times, vals)
    m_h = _moments(psi0, h @ psi0)[1]
    return vals, vecs, vecs.conj().T @ psi0, m_h, vals - m_h.mean


def _refuse_aliasing(times, vals) -> None:
    """Refuse a TimeGrid that aliases ``vals``; a phase past the float range is inf, refused without a warning."""
    if isinstance(times, TimeGrid) and (phase := times.dx * (float(vals[-1]) - float(vals[0]))) >= math.pi:
        raise _AliasedGridError(
            f"the grid aliases the spectrum: dx * (E_max - E_min) = {phase:.3g} >= pi"
            f" at dx = {times.dx:.6g}; take more steps or a shorter t_max"
        )


def _phases(t, vals) -> np.ndarray:
    """exp(-iEt) for every (t, E), written as cos and sin of -Et into one complex array."""
    angle = -vals * t[:, None]
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _sample(core, times) -> Samples:
    """Evaluate a set-up's ``core`` = (E, V^dag psi0, H's moments in psi0, rows) at
    ``times``, a ``TimeGrid`` (refused if it aliases E) or a finite 1-D array, as
    often as needed: ``rows(c)`` returns (psi, O psi, (H - <H>) psi, d<O>/dt) for
    each block of eigen-amplitudes c_t."""
    vals, c0, m_h, rows = core
    _refuse_aliasing(times, vals)
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
    return Samples(*out, corr, m_h.std_dev)


def sample_heisenberg(h, obs0, psi0, times) -> Samples:
    """Samples of the Heisenberg-evolved observable U^dag O U in psi0."""
    hm, v, t = _validated(h, psi0, times)
    o = require_hermitian(obs0)
    if o.shape != hm.shape:
        raise ValueError("dimension mismatch between Hamiltonian and observable")
    return _heisenberg(hm, o, v, t)


def _heisenberg(h, obs0, psi0, times) -> Samples:
    """``sample_heisenberg`` of operands valid by construction: set-up, then ``_sample``."""
    return _sample(_prepare_heisenberg(h, obs0, psi0, times), times)


def _prepare_heisenberg(h, obs0, psi0, times) -> tuple:
    """The Heisenberg core, whose rows hold V^dag O V and i[E, V^dag O V]."""
    vals, vecs, c0, m_h, shifted = _eigen_start(h, psi0, times)
    o_eig = vecs.conj().T @ obs0 @ vecs
    rate = 1j * commutator(np.diag(vals), o_eig)

    def rows(c):
        return c, c @ o_eig.T, c * shifted, _vdot(c, c @ rate.T).real

    return vals, c0, m_h, rows


def sample_entanglement(h, psi0, dims: tuple[int, int], times) -> Samples:
    """Samples of the modular Hamiltonian O = -log rho_A(t) (x) I_B of the
    evolved bipartite state (Schroedinger picture): the means are entanglement
    entropies, the variances capacities of entanglement, and the derivatives
    i<[H, O]> = 2 Im <O psi_t|(H - <H>) psi_t> with O frozen at each sample."""
    hm, v, t = _validated(h, psi0, times)
    return _entanglement(hm, v, dims, t)


def _entanglement(h, psi0, dims: tuple[int, int], times) -> Samples:
    """``sample_entanglement`` of operands valid by construction: set-up, then ``_sample``."""
    return _sample(_prepare_entanglement(h, psi0, dims, times), times)


def _prepare_entanglement(h, psi0, dims: tuple[int, int], times) -> tuple:
    """The Schroedinger-picture core, whose rows rebuild O at every sample."""
    vals, vecs, c0, m_h, shifted = _eigen_start(h, psi0, times)
    d_a, d_b = int(dims[0]), int(dims[1])
    if d_a < 1 or d_b < 1 or d_a * d_b != vals.size:
        raise ValueError(f"dims {dims} inconsistent with state size {vals.size}")
    k_rows = _two_level_k_psi if d_a == 2 else _stacked_k_psi

    def rows(c):
        psi = c @ vecs.T
        dev_h = (c * shifted) @ vecs.T
        k_psi = k_rows(psi.reshape(-1, d_a, d_b)).reshape(psi.shape)
        return psi, k_psi, dev_h, 2.0 * (k_psi.conj() * dev_h).sum(axis=1).imag

    return vals, c0, m_h, rows


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
    """K psi, K = -log rho_A (x) I_B, for rows psi of shape (d_A, d_B), from
    ``measures``' modular-operator kernel on the stacked reduced states."""
    return _modular(amps @ amps.conj().transpose(0, 2, 1)) @ amps
