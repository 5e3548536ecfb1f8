"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from qslbound import verify


def random_hermitian(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def random_state(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_check(run, name, expected="pass"):
    """Run the verify-registry check ``name``, the one place its invariant
    is written, and require ``expected``."""
    result = verify.run_check(next(c for c in verify.CHECKS if c.name == name), run)
    assert result.status == expected, f"{name}: {result.detail}"
