"""Bundled case studies: builders, closed-form oracles and bound runners.

Three two-qubit settings exercise the bounds engine end to end:

* entanglement generation under a canonical nonlocal Hamiltonian, tracked
  through the entanglement entropy and capacity of the evolving reduced
  state (Schroedinger picture, ratio-form bound);
* modular energy, i.e. the Heisenberg-evolved composite modular Hamiltonian
  K(t) = U^dag (-log rho_A tensor I) U (direct-integral bound);
* a two-cell quantum battery charged by local fields with an optional
  exchange interaction, tracked through the stored energy (direct-integral
  bound).

Every Hamiltonian is a weighted sum of two-qubit Pauli products built once
at import; the battery starts in the constant |11>, and the t = 0 modular
Hamiltonian K0 is written down from rho_A(0) = diag(p, 1 - p).  These
operators are Hermitian and normalized by construction, so each runner
passes them straight to the sampler core (``dynamics._heisenberg`` /
``_entanglement``) with the scenario's ``TimeGrid``: one set-up per curve,
which checks only that H is finite and refuses a grid that aliases H, then
one evaluation at the grid.  Its ``Samples`` carry the energy spread dH to the
bound form, which refuses a stationary initial state, whichever parameter
makes it so.

The closed forms below (capacity and entropy, modular variance and energy,
stored energy) are numpy expressions in a scalar or array t.  No runner
evaluates them; they are independent oracles that the verify suite
compares with the runners' samples on whole grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundCurve, qsl_integral, ratio_form_curve
from .dynamics import TimeGrid, _entanglement, _heisenberg
from .linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, tensor_product
from .measures import _clamped_log

# Schmidt weights this close to {0, 1} give a separable start whose modular
# Hamiltonian K0 is clamped, and are rejected; the modular closed form is
# singular this close to 1/2 as well.
DEGENERATE_P_ATOL = 1e-9

# Two-qubit Pauli products, built once: every Hamiltonian below is a
# weighted sum of these constants, formed quietly: finite weights that
# overflow it to inf or NaN are refused by ``dynamics._eigen_start``.
_XX, _YY, _ZZ = (tensor_product(s, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
_EXCHANGE = _XX + _YY + _ZZ
_Z_SUM = tensor_product(SIGMA_Z, IDENTITY_2) + tensor_product(IDENTITY_2, SIGMA_Z)
_X_SUM = tensor_product(SIGMA_X, IDENTITY_2) + tensor_product(IDENTITY_2, SIGMA_X)

# The empty battery |11> (both cells down), where every battery run starts.
_EMPTY_BATTERY = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
_EMPTY_BATTERY.setflags(write=False)


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class EntanglementScenario:
    """Two-qubit run: Schmidt weight p, coupling theta, optional mu3 term."""

    p: float
    theta: float
    mu3: float = 0.0
    grid: TimeGrid = field(default_factory=lambda: TimeGrid.with_resolution(1.0))

    def __post_init__(self):
        _require_finite(p=self.p, theta=self.theta, mu3=self.mu3)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if min(self.p, 1.0 - self.p) <= DEGENERATE_P_ATOL:
            raise ValueError(
                f"p = {self.p!r} is degenerate: the initial state is separable and "
                "its modular Hamiltonian is clamped"
            )


@dataclass(frozen=True)
class BatteryScenario:
    """Two-cell battery: Larmor frequency omega, drive Omega, exchange J.

    The battery starts empty (both cells down).  H_B and H_int act diagonally
    on |11>, so Var(H_T) = 2 Omega^2 there: an undriven battery is stationary
    and its run is refused by the bound form, as every stationary start is.
    """

    omega: float
    big_omega: float
    j: float
    grid: TimeGrid = field(default_factory=lambda: TimeGrid.with_resolution(2.0))

    def __post_init__(self):
        _require_finite(omega=self.omega, Omega=self.big_omega, J=self.j)
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega!r}")
        if self.big_omega < 0.0:
            raise ValueError(f"Omega must be nonnegative, got {self.big_omega!r}")


def canonical_hamiltonian(mu1: float, mu2: float, mu3: float) -> np.ndarray:
    """mu1 XX + mu2 YY + mu3 ZZ, the canonical two-qubit interaction."""
    with np.errstate(over="ignore", invalid="ignore"):
        return mu1 * _XX + mu2 * _YY + mu3 * _ZZ


def initial_schmidt_state(p: float) -> np.ndarray:
    """sqrt(p)|00> + sqrt(1-p)|11>."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    v = np.zeros(4, dtype=complex)
    v[0] = math.sqrt(p)
    v[3] = math.sqrt(1.0 - p)
    return v


def entanglement_setup(
    p: float, theta: float, mu3: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi0, H, K0) of the two-qubit runs: the Schmidt state, the canonical
    Hamiltonian with couplings (theta + |mu3|, |mu3|, mu3), and the composite
    modular Hamiltonian -log rho_A(0) (x) I_B, which is diagonal because
    rho_A(0) = diag(p, 1 - p) (clamped as ``measures.modular_hamiltonian``)."""
    psi0 = initial_schmidt_state(p)
    h = canonical_hamiltonian(theta + abs(mu3), abs(mu3), mu3)
    k0 = np.diag(-_clamped_log(np.array([p, p, 1.0 - p, 1.0 - p]))).astype(complex)
    return psi0, h, k0


def ce_see_closed_form(p: float, theta: float, t):
    """Closed-form capacity and entanglement entropy of the evolved state at
    a scalar or array ``t``.

    Evaluated from the reduced spectrum lambda_i(t) = (1 -+ (1-2p) cos(2 theta t))/2
    with the lambda log lambda -> 0 convention: samples with a weight at or
    below 1e-15 (p in {0, 1} at cos(2 theta t) = +-1) give (0, 0).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    c = (1.0 - 2.0 * p) * np.cos(2.0 * theta * t)
    lam1, lam2 = 0.5 * (1.0 - c), 0.5 * (1.0 + c)
    flat = np.minimum(lam1, lam2) <= 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        s_ee = -(lam1 * np.log(lam1) + lam2 * np.log(lam2))
        c_e = lam1 * lam2 * np.log(lam1 / lam2) ** 2
    return np.where(flat, 0.0, c_e)[()], np.where(flat, 0.0, s_ee)[()]


def _ratio_sqslo_closed_form(p: float, theta: float, t: np.ndarray) -> np.ndarray:
    """T |S(T) - S(0)| / V(T), the ratio-form SQSLO of an entanglement run with
    mu3 = 0 at saturation, V the total variation of the entropy S on [0, T]:
    S runs monotonically between S(0) and log 2 over each quarter period
    pi / (4 theta), so after m whole quarters V = m (log 2 - S(0)) plus the
    part of the last one; 0 at T = 0."""
    s0, s = ce_see_closed_form(p, theta, 0.0)[1], ce_see_closed_form(p, theta, t)[1]
    m = np.floor(4.0 * abs(theta) * t / math.pi)
    v = m * (math.log(2.0) - s0) + np.where(m % 2 == 0, s - s0, math.log(2.0) - s)
    return np.divide(t * np.abs(s - s0), v, out=np.zeros_like(v), where=v > 0.0)


def modular_closed_form(p: float, theta: float, t):
    """Closed-form variance and mean of the Heisenberg-evolved modular
    Hamiltonian at a scalar or array ``t``; singular at p in {0, 1/2, 1}."""
    if not 0.0 < p < 1.0 or abs(p - 0.5) <= DEGENERATE_P_ATOL:
        raise ValueError(f"p must lie in (0, 1) away from 1/2, got {p!r}")
    g = math.log(1.0 / p - 1.0)
    c2 = np.cos(2.0 * theta * t)
    s2 = np.sin(2.0 * theta * t)
    c_m = 0.25 * g * g * (4.0 * p * (1.0 - p) * c2 * c2 + s2 * s2)
    e_m = -(1.0 - 2.0 * p) * math.atanh(1.0 - 2.0 * p) * c2 - 0.5 * math.log(
        p * (1.0 - p)
    )
    return c_m, e_m


def battery_hamiltonians(
    omega: float, big_omega: float, j: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(H_B, H_C, H_int, H_T): stored energy, drive, exchange, and their sum."""
    with np.errstate(over="ignore", invalid="ignore"):
        h_b, h_c, h_int = omega * _Z_SUM, big_omega * _X_SUM, j * _EXCHANGE
        return h_b, h_c, h_int, h_b + h_c + h_int


def ergotropy_closed_form(omega: float, big_omega: float, t):
    """Stored energy of the initially empty battery at a scalar or array
    ``t``; independent of j."""
    w = math.hypot(omega, big_omega)  # no square to overflow
    amplitude = 4.0 * omega * (big_omega / w) ** 2 if w else 0.0
    return amplitude * np.sin(w * t) ** 2


def run_entanglement_scenario(scn: EntanglementScenario) -> BoundCurve:
    """Ratio-form bound on entanglement generation, Schroedinger picture.

    At each sample the modular Hamiltonian of the evolving reduced state is
    rebuilt, so the tracked mean is the entanglement entropy and the spread
    the square root of the capacity.
    """
    psi0, h, _ = entanglement_setup(scn.p, scn.theta, scn.mu3)
    return ratio_form_curve(scn.grid, _entanglement(h, psi0, (2, 2), scn.grid))


def run_modular_scenario(scn: EntanglementScenario) -> BoundCurve:
    """Direct-integral bound on the modular energy, Heisenberg picture.

    The composite modular Hamiltonian is fixed at t = 0 and conjugated by
    the propagator, in contrast with the Schroedinger-picture run above.
    """
    psi0, h, k0 = entanglement_setup(scn.p, scn.theta, scn.mu3)
    return qsl_integral(scn.grid, _heisenberg(h, k0, psi0, scn.grid))


def run_battery_scenario(scn: BatteryScenario) -> BoundCurve:
    """Direct-integral bound on the battery charging time.  The curve's mean
    values are the stored energy E(t) = <H_B(t)> - <H_B(0)>."""
    h_b, _, _, h_t = battery_hamiltonians(scn.omega, scn.big_omega, scn.j)
    samples = _heisenberg(h_t, h_b, _EMPTY_BATTERY, scn.grid)
    return qsl_integral(scn.grid, samples._replace(means=samples.means - samples.means[0]))
