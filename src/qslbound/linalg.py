"""Dense complex linear algebra for small Hilbert spaces (d <= 16), on a matrix or a stack."""

from __future__ import annotations

import numpy as np

# Pauli matrices and the qubit identity, building blocks for every
# Hamiltonian in this package.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Relative tolerance for accepting a matrix as Hermitian.  Inputs beyond it
# are rejected, not symmetrized, so upstream bugs fail loudly.
HERMITICITY_RTOL = 1e-12

# Density-operator eigenvalues are clamped to [LOG_EIG_FLOOR, 1] before a
# logarithm; weights below ENTROPY_WEIGHT_CUTOFF contribute nothing to
# entropy-like sums (the lambda * log(lambda) -> 0 convention).
LOG_EIG_FLOOR = 1e-300
ENTROPY_WEIGHT_CUTOFF = 1e-15


def _vdot(u, v) -> np.ndarray:
    """np.vdot over the last axis by ``np.vecdot``: per member, bit for bit."""
    return np.vecdot(u, v)


def _as_complex_matrix(m) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def require_hermitian(m) -> np.ndarray:
    """Validate Hermiticity: ||M - M^dag||_max <= HERMITICITY_RTOL * ||M||_max."""
    a = _as_complex_matrix(m)
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1e-30)
    defect = np.abs(a - a.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    if (defect > HERMITICITY_RTOL * scale).any():
        k = np.argmax(defect / scale)
        raise ValueError(
            f"matrix is not Hermitian: defect {np.ravel(defect)[k]:.3e} exceeds "
            f"{HERMITICITY_RTOL:.1e} * scale {np.ravel(scale)[k]:.3e}"
        )
    return a


def commutator(a, b) -> np.ndarray:
    """Commutator AB - BA."""
    a = _as_complex_matrix(a)
    b = _as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two operators, per member of stacks; elementwise
    products, so each member is ``np.kron`` of its pair bit for bit."""
    a, b = _as_complex_matrix(a), _as_complex_matrix(b)
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], a.shape[-1] * b.shape[-1], -1)


def partial_trace(m, dims: tuple[int, int], keep: str = "A") -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``dims = (d_A, d_B)`` must satisfy d_A * d_B == dim(m); ``keep`` selects
    the surviving subsystem ("A" or "B").  The total trace is preserved.
    """
    a = _as_complex_matrix(m)
    d_a, d_b = int(dims[0]), int(dims[1])
    if d_a < 1 or d_b < 1 or d_a * d_b != a.shape[-1]:
        raise ValueError(f"dims {dims} inconsistent with matrix size {a.shape[-1]}")
    blocks = a.reshape(*a.shape[:-2], d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("...ijkj->...ik", blocks)
    if keep == "B":
        return np.einsum("...ijil->...jl", blocks)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def spectral_norm(m) -> float:
    """Operator norm of a Hermitian matrix: max |eigenvalue|."""
    vals, _ = np.linalg.eigh(require_hermitian(m))
    return float(np.abs(vals).max())
