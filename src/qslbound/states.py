"""Pure states, density operators, observable moments, perpendicular states.

Each also takes stacks along leading axes, validated once; a single call is
the one-member case, with the same bits, and a refusal quotes the worst member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _vdot, partial_trace, require_hermitian

NORM_ATOL = 1e-12

# Below this variance an observable is an eigen-direction of the state and
# the perpendicular-state prescription degenerates (division by Delta O).
VARIANCE_FLOOR = 1e-12


class DegenerateObservableError(ValueError):
    """Observable has numerically zero variance in the given state."""


def require_state(psi) -> np.ndarray:
    """Validate and return a normalized complex state vector."""
    v = np.asarray(psi, dtype=complex)
    if v.ndim < 1 or v.size < 1 or not np.isfinite(v).all():
        raise ValueError("state amplitudes must be finite")
    norm = np.linalg.norm(v, axis=-1)
    if np.any(np.abs(norm - 1.0) > NORM_ATOL):
        k = np.argmax(np.abs(norm - 1.0))
        raise ValueError(f"state is not normalized: ||psi|| = {np.ravel(norm)[k]!r}")
    return v


def require_density(rho) -> tuple[np.ndarray, np.ndarray]:
    """Validate a density operator: Hermitian, unit trace, PSD within
    NORM_ATOL.  Returns the matrix and its ascending eigenvalues."""
    a = require_hermitian(rho)
    tr = np.trace(a, axis1=-2, axis2=-1).real
    if np.any(np.abs(tr - 1.0) > NORM_ATOL):
        k = np.argmax(np.abs(tr - 1.0))
        raise ValueError(f"density operator trace is {np.ravel(tr)[k]!r}, expected 1")
    eigenvalues = np.linalg.eigvalsh(a)
    lowest = np.min(eigenvalues[..., 0])
    if lowest < -NORM_ATOL:
        raise ValueError(f"density operator has negative eigenvalue {float(lowest)!r}")
    return a, eigenvalues


def density_from_pure(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi|."""
    v = require_state(psi)
    return v[..., :, None] * v.conj()[..., None, :]


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
    observable O the triple of ``_deviation``."""
    v = require_state(psi)
    return (v, *(_deviation(v, require_hermitian(obs)) for obs in observables))


def _deviation(v: np.ndarray, o: np.ndarray) -> tuple:
    """(O psi, (O - <O>) psi, moments of O) for a validated state and observable."""
    if o.shape[-1] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: operator {o.shape[-1]}, state {v.shape[-1]}")
    ov = (o @ v[..., None])[..., 0]
    mean = _vdot(v, ov).real
    # ||(O - <O>) psi||^2 stays accurate where <O^2> - <O>^2 would cancel.
    dev = ov - mean[..., None] * v
    variance = np.maximum(_vdot(dev, dev).real, 0.0)
    return ov, dev, ObservableMoments(mean, variance, np.sqrt(variance))


def moments(obs, psi) -> ObservableMoments:
    """First and second moments of a Hermitian observable in a pure state."""
    _, (_, _, m) = _spread(psi, obs)
    return m


def perpendicular_state(obs, psi) -> np.ndarray:
    """Normalized state orthogonal to ``psi``: (O - <O>) |psi> / Delta O.

    Raises DegenerateObservableError when the variance of ``obs`` falls at or
    below VARIANCE_FLOOR (``psi`` is then an eigenstate and no direction is
    singled out), in any member of a stack.
    """
    _, (_, dev, m) = _spread(psi, obs)
    if np.any(m.variance <= VARIANCE_FLOOR):
        raise DegenerateObservableError(
            f"variance {float(np.min(m.variance))!r} too small for a perpendicular direction"
        )
    return dev / m.std_dev[..., None]
