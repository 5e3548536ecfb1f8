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

The closed forms below (capacity and entropy, modular variance and energy,
stored energy) are numpy expressions in a scalar or array t.  No runner
evaluates them; they are independent oracles that the verify suite
compares with the runners' samples on whole grids.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundCurve, qsl_integral, ratio_form_curve
from .dynamics import TimeGrid, sample_entanglement, sample_heisenberg
from .linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, tensor_product
from .measures import modular_hamiltonian
from .states import moments, reduced_state

# Schmidt weights this close to {0, 1/2, 1} make the bound curves degenerate
# (zero energy spread or identically flat capacity) and are rejected.
DEGENERATE_P_ATOL = 1e-9


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
        for bad in (0.0, 0.5, 1.0):
            if abs(self.p - bad) <= DEGENERATE_P_ATOL:
                raise ValueError(
                    f"p = {self.p!r} is degenerate: the state is stationary or "
                    "separable and the bound integrands vanish"
                )
        if abs(self.theta) <= DEGENERATE_P_ATOL:
            raise ValueError("theta = 0 gives zero energy spread in this family")


@dataclass(frozen=True)
class BatteryScenario:
    """Two-cell battery: Larmor frequency omega, drive Omega, exchange J.

    The battery starts empty (both cells down).  If that state is an
    eigenstate of the total Hamiltonian there are no charging dynamics, and
    the scenario is rejected.
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
        _, _, _, h_t = battery_hamiltonians(self.omega, self.big_omega, self.j)
        if moments(h_t, general_product_state(0.0, 0.0, 0.0, 0.0)).variance <= 1e-12:
            raise ValueError(
                "initial state is an eigenstate of the total Hamiltonian; "
                "no charging dynamics to bound"
            )


def canonical_hamiltonian(mu1: float, mu2: float, mu3: float) -> np.ndarray:
    """mu1 XX + mu2 YY + mu3 ZZ, the canonical two-qubit interaction."""
    if not (mu1 >= mu2 >= mu3 >= 0.0):
        _warnings.warn(
            f"couplings ({mu1}, {mu2}, {mu3}) violate the singular-value "
            "ordering mu1 >= mu2 >= mu3 >= 0 of the canonical form",
            stacklevel=2,
        )
    return (
        mu1 * tensor_product(SIGMA_X, SIGMA_X)
        + mu2 * tensor_product(SIGMA_Y, SIGMA_Y)
        + mu3 * tensor_product(SIGMA_Z, SIGMA_Z)
    )


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
    modular Hamiltonian -log rho_A(0) (x) I_B."""
    psi0 = initial_schmidt_state(p)
    h = canonical_hamiltonian(theta + abs(mu3), abs(mu3), mu3)
    k0 = tensor_product(modular_hamiltonian(reduced_state(psi0, (2, 2), "A")), IDENTITY_2)
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
    sz = tensor_product(SIGMA_Z, IDENTITY_2) + tensor_product(IDENTITY_2, SIGMA_Z)
    sx = tensor_product(SIGMA_X, IDENTITY_2) + tensor_product(IDENTITY_2, SIGMA_X)
    h_b = omega * sz
    h_c = big_omega * sx
    h_int = j * (
        tensor_product(SIGMA_X, SIGMA_X)
        + tensor_product(SIGMA_Y, SIGMA_Y)
        + tensor_product(SIGMA_Z, SIGMA_Z)
    )
    return h_b, h_c, h_int, h_b + h_c + h_int


def general_product_state(
    theta1: float, theta2: float, phi1: float, phi2: float
) -> np.ndarray:
    """General two-qubit product state; (0, 0, *, *) is the empty battery."""
    if not (0.0 <= theta1 <= math.pi and 0.0 <= theta2 <= math.pi):
        raise ValueError("polar angles must lie in [0, pi]")
    if not (0.0 <= phi1 <= 2.0 * math.pi and 0.0 <= phi2 <= 2.0 * math.pi):
        raise ValueError("azimuthal angles must lie in [0, 2 pi]")
    up1 = math.sin(theta1) * np.exp(1j * phi1)
    up2 = math.sin(theta2) * np.exp(1j * phi2)
    down1, down2 = math.cos(theta1), math.cos(theta2)
    return np.kron(np.array([up1, down1]), np.array([up2, down2]))


def ergotropy_closed_form(omega: float, big_omega: float, t):
    """Stored energy of the initially empty battery at a scalar or array
    ``t``; independent of j."""
    freq_sq = omega * omega + big_omega * big_omega
    amplitude = 4.0 * omega * big_omega**2 / freq_sq if freq_sq else 0.0
    return amplitude * np.sin(math.sqrt(freq_sq) * t) ** 2


def run_entanglement_scenario(scn: EntanglementScenario) -> BoundCurve:
    """Ratio-form bound on entanglement generation, Schroedinger picture.

    At each sample the modular Hamiltonian of the evolving reduced state is
    rebuilt, so the tracked mean is the entanglement entropy and the spread
    the square root of the capacity.
    """
    psi0, h, _ = entanglement_setup(scn.p, scn.theta, scn.mu3)
    samples = sample_entanglement(h, psi0, (2, 2), scn.grid.points)
    return ratio_form_curve(scn.grid, samples, moments(h, psi0).std_dev)


def run_modular_scenario(scn: EntanglementScenario) -> BoundCurve:
    """Direct-integral bound on the modular energy, Heisenberg picture.

    The composite modular Hamiltonian is fixed at t = 0 and conjugated by
    the propagator, in contrast with the Schroedinger-picture run above.
    """
    psi0, h, k0 = entanglement_setup(scn.p, scn.theta, scn.mu3)
    samples = sample_heisenberg(h, k0, psi0, scn.grid.points)
    return qsl_integral(scn.grid, samples, moments(h, psi0).std_dev)


def run_battery_scenario(scn: BatteryScenario) -> BoundCurve:
    """Direct-integral bound on the battery charging time.  The curve's mean
    values are the stored energy E(t) = <H_B(t)> - <H_B(0)>."""
    h_b, _, _, h_t = battery_hamiltonians(scn.omega, scn.big_omega, scn.j)
    psi0 = general_product_state(0.0, 0.0, 0.0, 0.0)
    samples = sample_heisenberg(h_t, h_b, psi0, scn.grid.points)
    stored = samples._replace(means=samples.means - samples.means[0])
    return qsl_integral(scn.grid, stored, moments(h_t, psi0).std_dev)
