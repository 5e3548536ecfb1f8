"""Composite-Simpson quadrature on uniform grids, in cumulative form.

The cumulative rule fits a quadratic through each triple of consecutive
samples and integrates it over the two half-steps separately, so prefix
integrals are available at every grid point while the pairwise sums
reproduce classic composite Simpson.  A Richardson estimate from grid
halving provides the quadrature-error scale.  ``_prefix_integrals`` is the
one seam the bound forms integrate through: it takes a (k, n) stack of
integrands, one row each, bit for bit as the 1-D calls, and returns their
prefix integrals with a per-prefix error bound.
"""

from __future__ import annotations

import numpy as np


def cumulative_simpson(values, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, one entry per sample;
    a (k, n) stack integrates each row, bit for bit as the 1-D call."""
    y = np.asarray(values, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] < 2:
        raise ValueError("need a 1-D array or (k, n) stack of at least two samples")
    if not np.isfinite(y).all():
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
    # The two half-steps of each triple (f0, f1, f2), scaled by dx/12 below.
    five, eight_f1 = 5.0 * y, 8.0 * y[..., 1:-1:2]
    pairs = eight_f1.shape[-1]
    increments[..., 0 : 2 * pairs : 2] = five[..., 0:-2:2] + eight_f1 - y[..., 2::2]
    increments[..., 1 : 2 * pairs : 2] = eight_f1 - y[..., 0:-2:2] + five[..., 2::2]
    if (n - 1) % 2 == 1:
        # Odd interval count: close with the quadratic through the last triple.
        increments[..., -1] = 8.0 * y[..., -2] - y[..., -3] + five[..., -1]
    increments *= dx / 12.0
    out[..., 1:] = increments.cumsum(axis=-1)
    return out


# Divisor for turning the grid-halving gap |I_h - I_2h| into an error
# estimate.  A smooth integrand would justify 15 (fourth order); isolated
# |.|-kinks and neighbor-filled samples degrade the rule to second order
# locally, where the gap is only ~3x the fine-grid error, so 3 is used.
RICHARDSON_FACTOR = 3.0


def _prefix_integrals(rows, dx: float, n_err: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative integrals of a (k, n) stack of integrand rows at every
    sample, and for its first ``n_err`` rows an error bound at every even
    prefix (entry j covers prefix 2j): the grid-halving gap |I_h - I_2h| over
    RICHARDSON_FACTOR.  Because cumsum is sequential, the even prefixes of
    the full-grid integral are those over y[:, :m + 1], so one quadrature
    call on the coarse grid gives every gap.

    Grids with fewer than five samples cannot be halved; their error is a
    single inf per row, so downstream tolerances stay conservative.
    """
    y = np.asarray(rows, dtype=float)
    integrals = cumulative_simpson(y, dx)
    if y.shape[-1] < 5:
        return integrals, np.full((n_err, 1), np.inf)
    m = (y.shape[-1] - 1) // 2 * 2
    coarse = _simpson(y[:n_err, : m + 1 : 2], 2.0 * dx)
    return integrals, np.abs(integrals[:n_err, : m + 1 : 2] - coarse) / RICHARDSON_FACTOR
