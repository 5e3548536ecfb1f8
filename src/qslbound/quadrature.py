"""Composite-Simpson quadrature on uniform grids, in cumulative form.

The cumulative rule fits a quadratic through each triple of consecutive
samples and integrates it over the two half-steps separately, so prefix
integrals are available at every grid point while the pairwise sums
reproduce classic composite Simpson.  A Richardson estimate from grid
halving provides the quadrature-error scale.
"""

from __future__ import annotations

import numpy as np


def cumulative_simpson(values, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, one entry per sample."""
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("need a 1-D array of at least two samples")
    if not np.all(np.isfinite(y)):
        raise ValueError("integrand samples must be finite")
    n = y.size
    out = np.zeros(n)
    if n == 2:
        out[1] = 0.5 * dx * (y[0] + y[1])
        return out
    increments = np.empty(n - 1)
    f0, f1, f2 = y[0:-2:2], y[1:-1:2], y[2::2]
    pairs = f0.size
    increments[0 : 2 * pairs : 2] = dx / 12.0 * (5.0 * f0 + 8.0 * f1 - f2)
    increments[1 : 2 * pairs : 2] = dx / 12.0 * (-f0 + 8.0 * f1 + 5.0 * f2)
    if (n - 1) % 2 == 1:
        # Odd interval count: close with the quadratic through the last triple.
        increments[-1] = dx / 12.0 * (-y[-3] + 8.0 * y[-2] + 5.0 * y[-1])
    out[1:] = np.cumsum(increments)
    return out


# Divisor for turning the grid-halving gap |I_h - I_2h| into an error
# estimate.  A smooth integrand would justify 15 (fourth order); isolated
# |.|-kinks and neighbor-filled samples degrade the rule to second order
# locally, where the gap is only ~3x the fine-grid error, so 3 is used.
RICHARDSON_FACTOR = 3.0


def cumulative_richardson_gaps(values, dx: float) -> np.ndarray:
    """Per-prefix gap |I_h - I_2h| at the even samples (entry k = prefix 2k).

    Grids with fewer than five samples cannot be halved; a single inf is
    returned so downstream tolerances stay conservative.
    """
    y = np.asarray(values, dtype=float)
    if y.size < 5:
        return np.array([np.inf])
    m = (y.size - 1) // 2 * 2
    fine = cumulative_simpson(y[: m + 1], dx)[::2]
    coarse = cumulative_simpson(y[: m + 1 : 2], 2.0 * dx)
    return np.abs(fine - coarse)


def richardson_error_estimate(values, dx: float) -> float:
    """Worst per-prefix quadrature-error estimate from grid halving."""
    return float(np.max(cumulative_richardson_gaps(values, dx))) / RICHARDSON_FACTOR
