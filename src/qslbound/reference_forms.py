"""Hand-derived closed forms kept only as cross-check fixtures.

Nothing in the bound pipeline evaluates these; the verify suite compares
selected samples against them.  Every form takes a scalar or array t; a
perpendicular state has shape ``np.shape(t) + (4,)``.  Each correction-factor
form below is a single fixed branch of the two-branch relation, so it is
only meaningful where its value lands in [0, 1]; comparisons restrict to
those samples.  Known issues are flagged where they occur:

* the decoupled-battery form (``r_battery_decoupled_printed``) carries
  frequencies of an (omega=2, Omega=2) configuration although it is labeled
  (omega=2, Omega=4); it is retained with a discrepancy marker;
* the first component of the entanglement perpendicular state was recorded
  with ``arctan`` where every other occurrence uses ``arctanh``; it is
  evaluated with ``arctanh`` here.
"""

from __future__ import annotations

import math

import numpy as np

SQRT5 = math.sqrt(5.0)
SQRT10 = math.sqrt(10.0)


def in_range(value):
    """Whether fixed-branch correction values are usable for comparison,
    elementwise."""
    return (-1e-12 <= value) & (value <= 1.0 + 1e-12)


def r_battery_coupled_branches(t):
    """Both branch values of the coupled-battery form."""
    amp = 2.0 * SQRT10 * np.cos(SQRT5 * t) / np.sqrt(9.0 + np.cos(2.0 * SQRT5 * t))
    return 0.5 * (2.0 - amp), 0.5 * (2.0 + amp)


def r_battery_decoupled_printed(t):
    """Both branch values of the recorded decoupled form (see module notes)."""
    amp = 4.0 * np.cos(2.0 * math.sqrt(2.0) * t) / np.sqrt(
        3.0 + np.cos(4.0 * math.sqrt(2.0) * t)
    )
    return 0.5 * (2.0 - amp), 0.5 * (2.0 + amp)


def r_battery_parallel_printed(t):
    """Single-branch r(t) recorded for the parallel battery (j=0, Omega=1,
    omega=2); exceeds 1 on half of each period, NaN where sin(sqrt5 t) = 0."""
    s = np.sin(SQRT5 * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = (
            2.0
            * SQRT10
            * np.abs(s)
            * (np.cos(SQRT5 * t) / s)
            / np.sqrt(9.0 + np.cos(2.0 * SQRT5 * t))
        )
    return np.where(s == 0.0, np.nan, 0.5 * (2.0 + amp))[()]


def r_entanglement_printed(p: float, theta: float, t):
    """Single-branch correction factor for the entanglement run."""
    alpha = (2.0 * p - 1.0) * np.cos(2.0 * theta * t)
    beta = -1.0 - 4.0 * p * (1.0 - p) + (1.0 - 2.0 * p) ** 2 * np.cos(
        4.0 * theta * t
    )
    at = np.arctanh(alpha)
    numerator = (
        np.abs(
            np.sqrt(-(at**2) * beta + 0j) / math.sqrt(2.0)
            + at
            * math.copysign(1.0, (1.0 - 2.0 * p) * theta)
            * (
                -2.0j * math.sqrt(p * (1.0 - p)) * np.cos(2.0 * theta * t)
                - np.sin(2.0 * theta * t)
            )
        )
        ** 2
    )
    return numerator / np.abs(at**2 * beta)


def perp_entanglement_printed(p: float, theta: float, mu3: float, t) -> np.ndarray:
    """Perpendicular state for the entanglement run (arctanh throughout)."""
    arg = (-1.0 + 2.0 * p) * np.cos(2.0 * t * theta)
    at = np.arctanh(arg)
    den = np.sqrt(
        -(at**2)
        * (-1.0 + 4.0 * (-1.0 + p) * p + (1.0 - 2.0 * p) ** 2 * np.cos(4.0 * t * theta))
        + 0j
    )
    phase = np.exp(-1j * t * mu3)
    c1 = (
        math.sqrt(2.0)
        * phase
        * at
        * (-1.0 + arg)
        * (math.sqrt(p) * np.cos(t * theta) - 1j * math.sqrt(1.0 - p) * np.sin(t * theta))
        / den
    )
    c4 = (
        math.sqrt(2.0)
        * phase
        * at
        * (1.0 + arg)
        * (math.sqrt(1.0 - p) * np.cos(t * theta) - 1j * math.sqrt(p) * np.sin(t * theta))
        / den
    )
    return np.stack([c1, np.zeros_like(c1), np.zeros_like(c1), c4], axis=-1)


def perp_modular_printed(p: float, theta: float, t) -> np.ndarray:
    """Perpendicular state for the modular-energy run."""
    g = math.log(-1.0 + 1.0 / p)
    c2 = np.cos(2.0 * theta * t)
    s2 = np.sin(2.0 * theta * t)
    quad = g * g * (-4.0 * (-1.0 + p) * p * c2 * c2 + s2 * s2)
    c1 = g * (-2.0 * (-1.0 + p) * math.sqrt(p) * c2 - 1j * math.sqrt(1.0 - p) * s2) / np.sqrt(quad)
    c4 = g * (-2.0 * math.sqrt((1.0 - p) * p) * c2 + 1j * s2) / np.sqrt(quad / p)
    return np.stack([c1, np.zeros_like(c1), np.zeros_like(c1), c4], axis=-1)


def perp_battery_coupled_printed(t) -> np.ndarray:
    """Perpendicular state for the coupled battery (omega=2, Omega=1, j=1)."""
    num = 2.0 - 2.0 * np.cos(2.0 * SQRT5 * t) - 1j * SQRT5 * np.sin(2.0 * SQRT5 * t)
    den = 2.0 * np.abs(np.sin(SQRT5 * t)) * np.sqrt(9.0 + np.cos(2.0 * SQRT5 * t))
    z = num / den
    return np.stack([np.zeros_like(z), z, z, np.zeros_like(z)], axis=-1)
