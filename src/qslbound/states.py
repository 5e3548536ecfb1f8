"""Pure states, density operators, observable moments, perpendicular states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace, require_hermitian

NORM_ATOL = 1e-12

# Below this variance an observable is an eigen-direction of the state and
# the perpendicular-state prescription degenerates (division by Delta O).
VARIANCE_FLOOR = 1e-12


class DegenerateObservableError(ValueError):
    """Observable has numerically zero variance in the given state."""


def require_state(psi) -> np.ndarray:
    """Validate and return a normalized complex state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size < 1 or not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
        raise ValueError("state amplitudes must be finite")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"state is not normalized: ||psi|| = {norm!r}")
    return v


def require_density(rho) -> tuple[np.ndarray, np.ndarray]:
    """Validate a density operator: Hermitian, unit trace, PSD within
    NORM_ATOL.  Returns the matrix and its ascending eigenvalues."""
    a = require_hermitian(rho)
    tr = np.trace(a).real
    if abs(tr - 1.0) > NORM_ATOL:
        raise ValueError(f"density operator trace is {tr!r}, expected 1")
    eigenvalues = np.linalg.eigvalsh(a)
    if eigenvalues[0] < -NORM_ATOL:
        raise ValueError(f"density operator has negative eigenvalue {float(eigenvalues[0])!r}")
    return a, eigenvalues


def density_from_pure(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi|."""
    v = require_state(psi)
    return np.outer(v, v.conj())


def reduced_state(psi, dims: tuple[int, int], keep: str = "A") -> np.ndarray:
    """Reduced density operator of a bipartite pure state."""
    return partial_trace(density_from_pure(psi), dims, keep)


@dataclass(frozen=True)
class ObservableMoments:
    """Mean, variance and standard deviation of an observable in a state."""

    mean: float
    variance: float
    std_dev: float


def _spread(psi, *observables) -> tuple:
    """Validate psi and each observable once.  Returns psi, then per
    observable O the triple (O psi, (O - <O>) psi, moments of O)."""
    v = require_state(psi)
    spreads = []
    for obs in observables:
        o = require_hermitian(obs)
        if o.shape[0] != v.size:
            raise ValueError(f"dimension mismatch: operator {o.shape[0]}, state {v.size}")
        ov = o @ v
        mean = np.vdot(v, ov).real
        # ||(O - <O>) psi||^2 stays accurate where <O^2> - <O>^2 would cancel.
        dev = ov - mean * v
        variance = max(np.vdot(dev, dev).real, 0.0)
        m = ObservableMoments(float(mean), float(variance), float(np.sqrt(variance)))
        spreads.append((ov, dev, m))
    return (v, *spreads)


def moments(obs, psi) -> ObservableMoments:
    """First and second moments of a Hermitian observable in a pure state."""
    _, (_, _, m) = _spread(psi, obs)
    return m


def perpendicular_state(obs, psi) -> np.ndarray:
    """Normalized state orthogonal to ``psi``: (O - <O>) |psi> / Delta O.

    Raises DegenerateObservableError when the variance of ``obs`` falls at or
    below VARIANCE_FLOOR (``psi`` is then an eigenstate and no direction is
    singled out).
    """
    _, (_, dev, m) = _spread(psi, obs)
    if m.variance <= VARIANCE_FLOOR:
        raise DegenerateObservableError(
            f"variance {m.variance!r} too small for a perpendicular direction"
        )
    return dev / m.std_dev
