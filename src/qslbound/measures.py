"""Entropy-like functionals of density operators.

Entanglement entropy, modular Hamiltonian (-log rho), capacity of
entanglement (its variance), and ergotropy.
All entropic quantities are in nats.  Each takes a density operator or a
stack of them along leading axes, one result per member.
"""

from __future__ import annotations

import numpy as np

from .linalg import ENTROPY_WEIGHT_CUTOFF, LOG_EIG_FLOOR, _vdot, require_hermitian
from .states import require_density


def _clamped_log(vals: np.ndarray) -> np.ndarray:
    return np.log(np.clip(vals, LOG_EIG_FLOOR, 1.0))


def _spectrum(rho) -> np.ndarray:
    return np.clip(require_density(rho)[1], 0.0, 1.0)


def entanglement_entropy(rho) -> float:
    """Von Neumann entropy -sum(lambda log lambda) in nats."""
    lam = _spectrum(rho)
    terms = np.where(lam > ENTROPY_WEIGHT_CUTOFF, -lam * _clamped_log(lam), 0.0)
    return terms.sum(axis=-1)


def modular_hamiltonian(rho) -> np.ndarray:
    """-log rho, with rank-deficient directions clamped to LOG_EIG_FLOOR.

    The clamped directions carry weight ~0 in rho, so <K> still reproduces
    the entropy to within the clamping noise.
    """
    # A second LAPACK call on the validated matrix: require_density keeps
    # eigvalsh, whose spectrum the entropy, capacity and ergotropy read more
    # accurately than eigh's.
    return _modular(require_density(rho)[0])


def _modular(rho) -> np.ndarray:
    """``modular_hamiltonian`` of a density operator or stack, unvalidated."""
    vals, vecs = np.linalg.eigh(rho)
    return (vecs * -_clamped_log(vals)[..., None, :]) @ vecs.conj().swapaxes(-2, -1)


def capacity_of_entanglement(rho) -> float:
    """Variance of the modular Hamiltonian: sum(lam log^2 lam) - S^2."""
    lam = _spectrum(rho)
    logs = _clamped_log(lam)
    keep = lam > ENTROPY_WEIGHT_CUTOFF
    s = np.where(keep, -lam * logs, 0.0).sum(axis=-1)
    second = np.where(keep, lam * logs * logs, 0.0).sum(axis=-1)
    return np.maximum(second - s * s, 0.0)


def ergotropy_max(rho, h) -> float:
    """Maximal unitarily extractable work: tr(rho H) minus the passive energy.

    The passive state pairs populations sorted descending with energies
    sorted ascending, which realizes the minimum over all unitaries.
    """
    r, populations = require_density(rho)
    hm = require_hermitian(h)
    if r.shape != hm.shape:
        raise ValueError("dimension mismatch between state and Hamiltonian")
    # eigvalsh sorts ascending: reversed populations meet ascending energies.
    passive = _vdot(populations[..., ::-1], np.linalg.eigvalsh(hm))
    return np.maximum(np.trace(r @ hm, axis1=-2, axis2=-1).real - passive, 0.0)
