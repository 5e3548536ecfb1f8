"""Entropy-like functionals of density operators.

Entanglement entropy, modular Hamiltonian (-log rho), capacity of
entanglement (its variance), and ergotropy.
All entropic quantities are in nats.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    ENTROPY_WEIGHT_CUTOFF,
    LOG_EIG_FLOOR,
    matrix_function,
    require_hermitian,
)
from .states import require_density


def _clamped_log(vals: np.ndarray) -> np.ndarray:
    return np.log(np.clip(vals, LOG_EIG_FLOOR, 1.0))


def _spectrum(rho) -> np.ndarray:
    return np.clip(np.linalg.eigvalsh(require_density(rho)), 0.0, 1.0)


def entanglement_entropy(rho) -> float:
    """Von Neumann entropy -sum(lambda log lambda) in nats."""
    lam = _spectrum(rho)
    terms = np.where(lam > ENTROPY_WEIGHT_CUTOFF, -lam * _clamped_log(lam), 0.0)
    return float(terms.sum())


def modular_hamiltonian(rho) -> np.ndarray:
    """-log rho, with rank-deficient directions clamped to LOG_EIG_FLOOR.

    The clamped directions carry weight ~0 in rho, so <K> still reproduces
    the entropy to within the clamping noise.
    """
    return matrix_function(require_density(rho), lambda w: -_clamped_log(w))


def capacity_of_entanglement(rho) -> float:
    """Variance of the modular Hamiltonian: sum(lam log^2 lam) - S^2."""
    lam = _spectrum(rho)
    logs = _clamped_log(lam)
    keep = lam > ENTROPY_WEIGHT_CUTOFF
    s = float(np.where(keep, -lam * logs, 0.0).sum())
    second = float(np.where(keep, lam * logs * logs, 0.0).sum())
    return max(second - s * s, 0.0)


def ergotropy_max(rho, h) -> float:
    """Maximal unitarily extractable work: tr(rho H) minus the passive energy.

    The passive state pairs populations sorted descending with energies
    sorted ascending, which realizes the minimum over all unitaries.
    """
    r = require_density(rho)
    hm = require_hermitian(h)
    if r.shape != hm.shape:
        raise ValueError("dimension mismatch between state and Hamiltonian")
    populations = np.sort(np.linalg.eigvalsh(r))[::-1]
    energies = np.sort(np.linalg.eigvalsh(hm))
    passive = float(populations @ energies)
    return max(float(np.trace(r @ hm).real) - passive, 0.0)
