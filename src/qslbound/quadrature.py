"""Composite-Simpson quadrature on uniform grids, in cumulative form.

The cumulative rule fits a quadratic through each triple of consecutive
samples and integrates it over the two half-steps separately, so prefix
integrals are available at every grid point while the pairwise sums
reproduce classic composite Simpson.  A Richardson estimate from grid
halving provides the quadrature-error scale.  Both take a (k, n) stack of
integrands, one row each, bit for bit as the 1-D calls.
"""

from __future__ import annotations

import numpy as np


def cumulative_simpson(values, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, one entry per sample;
    a (k, n) stack integrates each row, bit for bit as the 1-D call."""
    y = np.asarray(values, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] < 2:
        raise ValueError("need a 1-D array or (k, n) stack of at least two samples")
    if not np.all(np.isfinite(y)):
        raise ValueError("integrand samples must be finite")
    return _simpson(y, dx)


def _simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """``cumulative_simpson`` of a validated float array."""
    n = y.shape[-1]
    out = np.zeros(y.shape)
    if n == 2:
        out[..., 1] = 0.5 * dx * (y[..., 0] + y[..., 1])
        return out
    increments = np.empty(y.shape[:-1] + (n - 1,))
    f0, f1, f2 = y[..., 0:-2:2], y[..., 1:-1:2], y[..., 2::2]
    pairs = f0.shape[-1]
    increments[..., 0 : 2 * pairs : 2] = dx / 12.0 * (5.0 * f0 + 8.0 * f1 - f2)
    increments[..., 1 : 2 * pairs : 2] = dx / 12.0 * (-f0 + 8.0 * f1 + 5.0 * f2)
    if (n - 1) % 2 == 1:
        # Odd interval count: close with the quadratic through the last triple.
        increments[..., -1] = dx / 12.0 * (-y[..., -3] + 8.0 * y[..., -2] + 5.0 * y[..., -1])
    out[..., 1:] = np.cumsum(increments, axis=-1)
    return out


# Divisor for turning the grid-halving gap |I_h - I_2h| into an error
# estimate.  A smooth integrand would justify 15 (fourth order); isolated
# |.|-kinks and neighbor-filled samples degrade the rule to second order
# locally, where the gap is only ~3x the fine-grid error, so 3 is used.
RICHARDSON_FACTOR = 3.0


def cumulative_richardson_gaps(values, dx: float) -> np.ndarray:
    """Per-prefix gap |I_h - I_2h| at the even samples (entry k = prefix 2k),
    per row of a (k, n) stack.

    Grids with fewer than five samples cannot be halved; a single inf is
    returned (per row) so downstream tolerances stay conservative.
    """
    y = np.asarray(values, dtype=float)
    return _halving_gaps(y, cumulative_simpson(y, dx), dx)


def _halving_gaps(y: np.ndarray, integral: np.ndarray, dx: float) -> np.ndarray:
    """``cumulative_richardson_gaps`` of y from its cumulative integral on the
    full grid, whose even prefixes are those over y[..., :m + 1] because
    cumsum is sequential: one quadrature call, on the coarse grid.  y is the
    validated integrand of that integral, so its coarse rows are too."""
    if y.shape[-1] < 5:
        return np.full(y.shape[:-1] + (1,), np.inf)
    m = (y.shape[-1] - 1) // 2 * 2
    coarse = _simpson(y[..., : m + 1 : 2], 2.0 * dx)
    return np.abs(integral[..., : m + 1 : 2] - coarse)
