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

Each runner pairs the generic numeric pipeline with closed forms that are
kept as independent oracles.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import BoundCurve, qsl_integral, ratio_form_curve
from .dynamics import (
    OperatorTrajectory,
    TimeGrid,
    sample_entanglement,
    track_observable,
)
from .linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, tensor_product
from .measures import modular_hamiltonian
from .states import moments, reduced_state

# Schmidt weights this close to {0, 1/2, 1} make the bound curves degenerate
# (zero energy spread or identically flat capacity) and are rejected.
DEGENERATE_P_ATOL = 1e-9

BATTERY_MODES = ("parallel", "collective", "coupled", "decoupled")


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

    ``mode`` is a label only; the physics is fixed by the numbers.  ``angles``
    parametrize the general product initial state; the default is the empty
    battery (both cells down).  A state that is an eigenstate of the total
    Hamiltonian has no charging dynamics and is rejected.
    """

    omega: float
    big_omega: float
    j: float
    mode: str = "collective"
    angles: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    grid: TimeGrid = field(default_factory=lambda: TimeGrid.with_resolution(2.0))

    def __post_init__(self):
        _require_finite(omega=self.omega, Omega=self.big_omega, J=self.j)
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega!r}")
        if self.big_omega < 0.0:
            raise ValueError(f"Omega must be nonnegative, got {self.big_omega!r}")
        if self.mode not in BATTERY_MODES:
            raise ValueError(f"mode must be one of {BATTERY_MODES}, got {self.mode!r}")
        t1, t2, p1, p2 = self.angles
        if not (0.0 <= t1 <= math.pi and 0.0 <= t2 <= math.pi):
            raise ValueError("polar angles must lie in [0, pi]")
        if not (0.0 <= p1 <= 2.0 * math.pi and 0.0 <= p2 <= 2.0 * math.pi):
            raise ValueError("azimuthal angles must lie in [0, 2 pi]")
        _, _, _, h_t = battery_hamiltonians(self.omega, self.big_omega, self.j)
        if moments(h_t, general_product_state(*self.angles)).variance <= 1e-12:
            raise ValueError(
                "initial state is an eigenstate of the total Hamiltonian; "
                "no charging dynamics to bound"
            )


@dataclass(frozen=True)
class ClosedFormReport:
    """Per-sample comparison of a closed form against the numeric pipeline."""

    quantity: str
    times: np.ndarray
    analytic: np.ndarray
    numeric: np.ndarray

    @property
    def abs_errors(self) -> np.ndarray:
        return np.abs(self.analytic - self.numeric)

    @property
    def max_abs_error(self) -> float:
        return float(np.max(self.abs_errors))


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


def evolved_amplitudes(p: float, theta: float, mu3: float, t: float) -> tuple[complex, complex]:
    """Amplitudes (alpha, beta) of the evolved state on |00>, |11>."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    phase = np.exp(-1j * mu3 * t)
    sp, sq = math.sqrt(p), math.sqrt(1.0 - p)
    alpha = phase * (sp * math.cos(theta * t) - 1j * sq * math.sin(theta * t))
    beta = phase * (sq * math.cos(theta * t) - 1j * sp * math.sin(theta * t))
    return complex(alpha), complex(beta)


def _schmidt_weights(p: float, theta: float, t: float) -> tuple[float, float]:
    c = math.cos(2.0 * theta * t)
    lam1 = 0.5 * (1.0 - (1.0 - 2.0 * p) * c)
    lam2 = 0.5 * (1.0 + (1.0 - 2.0 * p) * c)
    return lam1, lam2


def ce_see_closed_form(p: float, theta: float, t: float) -> tuple[float, float]:
    """Closed-form capacity and entanglement entropy of the evolved state.

    Evaluated from the reduced spectrum lambda_i(t) = (1 -+ (1-2p) cos(2 theta t))/2
    with the lambda log lambda -> 0 convention; p in {0, 1} returns (0, 0).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    lam1, lam2 = _schmidt_weights(p, theta, t)
    cutoff = 1e-15
    if min(lam1, lam2) <= cutoff:
        return 0.0, 0.0
    s_ee = -(lam1 * math.log(lam1) + lam2 * math.log(lam2))
    c_e = lam1 * lam2 * math.log(lam1 / lam2) ** 2
    return float(c_e), float(s_ee)


def delta_h_entanglement(p: float, theta: float) -> float:
    """Energy spread |theta (1 - 2p)| of the canonical Hamiltonian in the
    Schmidt state; independent of mu3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    return abs(theta * (1.0 - 2.0 * p))


def modular_closed_form(p: float, theta: float, t: float) -> tuple[float, float]:
    """Closed-form variance and mean of the Heisenberg-evolved modular
    Hamiltonian; singular at p in {0, 1/2, 1}."""
    if not 0.0 < p < 1.0 or abs(p - 0.5) <= DEGENERATE_P_ATOL:
        raise ValueError(f"p must lie in (0, 1) away from 1/2, got {p!r}")
    g = math.log(1.0 / p - 1.0)
    c2 = math.cos(2.0 * theta * t)
    s2 = math.sin(2.0 * theta * t)
    c_m = 0.25 * g * g * (4.0 * p * (1.0 - p) * c2 * c2 + s2 * s2)
    e_m = -(1.0 - 2.0 * p) * math.atanh(1.0 - 2.0 * p) * c2 - 0.5 * math.log(
        p * (1.0 - p)
    )
    return float(c_m), float(e_m)


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


def ergotropy_closed_form(omega: float, big_omega: float, t: float) -> float:
    """Stored energy of the initially empty battery; independent of j."""
    freq_sq = omega * omega + big_omega * big_omega
    if freq_sq == 0.0:
        return 0.0
    return float(
        4.0 * omega * big_omega**2 / freq_sq * math.sin(math.sqrt(freq_sq) * t) ** 2
    )


def ergotropy_trajectory(scn: BatteryScenario) -> OperatorTrajectory:
    """Stored energy E(t) = <H_B(t)> - <H_B(0)> with spread and derivative."""
    h_b, _, _, h_t = battery_hamiltonians(scn.omega, scn.big_omega, scn.j)
    traj = track_observable(h_t, h_b, general_product_state(*scn.angles), scn.grid)
    return replace(traj, means=traj.means - traj.means[0])


def run_entanglement_scenario(scn: EntanglementScenario) -> BoundCurve:
    """Ratio-form bound on entanglement generation, Schroedinger picture.

    At each sample the modular Hamiltonian of the evolving reduced state is
    rebuilt, so the tracked mean is the entanglement entropy and the spread
    the square root of the capacity.
    """
    psi0, h, _ = entanglement_setup(scn.p, scn.theta, scn.mu3)
    samples = sample_entanglement(h, psi0, (2, 2), scn.grid.points)
    return ratio_form_curve(
        scn.grid, samples.means, samples.std_devs, samples.r, moments(h, psi0).std_dev
    )


def run_modular_scenario(scn: EntanglementScenario) -> BoundCurve:
    """Direct-integral bound on the modular energy, Heisenberg picture.

    The composite modular Hamiltonian is fixed at t = 0 and conjugated by
    the propagator, in contrast with the Schroedinger-picture run above.
    """
    psi0, h, k0 = entanglement_setup(scn.p, scn.theta, scn.mu3)
    traj = track_observable(h, k0, psi0, scn.grid)
    return qsl_integral(traj, traj.r, moments(h, psi0).std_dev)


def run_battery_scenario(scn: BatteryScenario) -> BoundCurve:
    """Direct-integral bound on the battery charging time."""
    _, _, _, h_t = battery_hamiltonians(scn.omega, scn.big_omega, scn.j)
    traj = ergotropy_trajectory(scn)
    return qsl_integral(
        traj, traj.r, moments(h_t, general_product_state(*scn.angles)).std_dev
    )


def entanglement_closed_form_reports(
    p: float, theta: float, grid: TimeGrid
) -> tuple[ClosedFormReport, ClosedFormReport]:
    """Capacity and entropy closed forms against the numeric pipeline."""
    psi0, h, _ = entanglement_setup(p, theta, 0.0)
    samples = sample_entanglement(h, psi0, (2, 2), grid.points)
    analytic = np.array([ce_see_closed_form(p, theta, t) for t in grid.points])
    return (
        ClosedFormReport(
            "capacity_of_entanglement", grid.points, analytic[:, 0], samples.std_devs**2
        ),
        ClosedFormReport("entanglement_entropy", grid.points, analytic[:, 1], samples.means),
    )


def modular_closed_form_reports(
    p: float, theta: float, grid: TimeGrid
) -> tuple[ClosedFormReport, ClosedFormReport]:
    """Modular variance and energy closed forms against the pipeline."""
    psi0, h, k0 = entanglement_setup(p, theta, 0.0)
    traj = track_observable(h, k0, psi0, grid)
    analytic = np.array([modular_closed_form(p, theta, t) for t in grid.points])
    return (
        ClosedFormReport(
            "modular_capacity", grid.points, analytic[:, 0], traj.std_devs**2
        ),
        ClosedFormReport("modular_energy", grid.points, analytic[:, 1], traj.means),
    )


def ergotropy_closed_form_report(
    omega: float, big_omega: float, j: float, grid: TimeGrid
) -> ClosedFormReport:
    """Stored-energy closed form against the Heisenberg pipeline."""
    scn = BatteryScenario(omega=omega, big_omega=big_omega, j=j, grid=grid)
    traj = ergotropy_trajectory(scn)
    analytic = np.array(
        [ergotropy_closed_form(omega, big_omega, t) for t in grid.points]
    )
    return ClosedFormReport("ergotropy", grid.points, analytic, traj.means)
