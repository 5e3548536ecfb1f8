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
    if (np.abs(norm - 1.0) > NORM_ATOL).any():
        k = np.argmax(np.abs(norm - 1.0))
        raise ValueError(f"state is not normalized: ||psi|| = {np.ravel(norm)[k]!r}")
    return v


def require_density(rho) -> tuple[np.ndarray, np.ndarray]:
    """Validate a density operator: Hermitian, unit trace, PSD within
    NORM_ATOL.  Returns the matrix and its ascending eigenvalues."""
    a = require_hermitian(rho)
    tr = np.trace(a, axis1=-2, axis2=-1).real
    if (np.abs(tr - 1.0) > NORM_ATOL).any():
        k = np.argmax(np.abs(tr - 1.0))
        raise ValueError(f"density operator trace is {np.ravel(tr)[k]!r}, expected 1")
    eigenvalues = np.linalg.eigvalsh(a)
    lowest = eigenvalues[..., 0].min()
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


def _operands(psi, *observables) -> tuple:
    """Validate psi and each observable once; returns psi, then each O psi."""
    v, out = require_state(psi), []
    for o in map(require_hermitian, observables):
        if o.shape[-1] != v.shape[-1]:
            raise ValueError(f"dimension mismatch: operator {o.shape[-1]}, state {v.shape[-1]}")
        out.append((o @ v[..., None])[..., 0])
    return (v, *out)


def _moments(v: np.ndarray, ov: np.ndarray) -> tuple[np.ndarray, ObservableMoments]:
    """((O - <O>) psi, moments of O) from psi and O psi (one state or rows, unvalidated)."""
    mean = _vdot(v, ov).real
    # ||(O - <O>) psi||^2 stays accurate where <O^2> - <O>^2 would cancel.
    dev = ov - mean[..., None] * v
    variance = np.maximum(_vdot(dev, dev).real, 0.0)
    return dev, ObservableMoments(mean, variance, np.sqrt(variance))


def _correlation(psi, a_psi, dev_b, mb) -> tuple[ObservableMoments, np.ndarray]:
    """Moments of A and c = <(A - <A>) psi|(B - <B>) psi> / (dA dB) from psi, A psi and the
    (dev_b, mb) of ``_moments(psi, B psi)`` (one state or rows, unvalidated; one mb may
    serve all rows); c is NaN where a variance is <= VARIANCE_FLOOR."""
    dev_a, ma = _moments(psi, a_psi)
    healthy = (ma.variance > VARIANCE_FLOOR) & (mb.variance > VARIANCE_FLOOR)
    c = np.full(healthy.shape, np.nan, dtype=complex)
    np.divide(_vdot(dev_a, dev_b), ma.std_dev * mb.std_dev, out=c, where=healthy)
    return ma, c


def _r_from_c(c) -> np.ndarray:
    """r = (1 + |c|^2)/2 - |Im c| (see ``bounds``); its sign branch is "plus" iff Im c > 0."""
    return 0.5 * (1.0 + np.abs(c) ** 2) - np.abs(c.imag)


def moments(obs, psi) -> ObservableMoments:
    """First and second moments of a Hermitian observable in a pure state."""
    return _moments(*_operands(psi, obs))[1]


def perpendicular_state(obs, psi) -> np.ndarray:
    """Normalized state orthogonal to ``psi``: (O - <O>) |psi> / Delta O.

    Raises DegenerateObservableError when the variance of ``obs`` falls at or
    below VARIANCE_FLOOR (``psi`` is then an eigenstate and no direction is
    singled out), in any member of a stack.
    """
    dev, m = _moments(*_operands(psi, obs))
    if (m.variance <= VARIANCE_FLOOR).any():
        raise DegenerateObservableError(
            f"variance {float(m.variance.min())!r} too small for a perpendicular direction"
        )
    return dev / m.std_dev[..., None]
