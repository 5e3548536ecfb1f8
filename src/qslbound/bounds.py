"""Speed-limit bounds for observables: correction factor, QSLO and SQSLO.

The correction factor r follows the stronger product-form uncertainty
relation

    Delta A Delta B (1 - r) >= |<[A, B]>| / 2,

with r = (1/2) |<psi_perp| (A/dA -+ i B/dB) |psi>|^2.  Both signs in front
of iB/dB are evaluated per sample.  Two keys pick the branch: the one whose
r lies in [0, 1], else the smaller r (ties go to minus).  This reproduces
piecewise closed forms that switch branch wherever the commutator
expectation changes sign, without any hand-coded case analysis.
``correction_r`` and the sampler's ``correction_rows`` share this rule.

Two perpendicular-state constructions are supported:

* ``perp="observable"`` (default): psi_perp = (A - <A>) |psi> / dA.  With
  c = <(A - <A>) psi|(B - <B>) psi> / (dA dB) the branch values are
  (1 + |c|^2)/2 +- |Im c|.  The smaller saturates the relation exactly when
  |c| = 1, i.e. the dynamics is confined to a two-dimensional subspace,
  which puts the SQSLO curves of the bundled case studies on the diagonal.
  In dimension >= 3 the larger saturates where (1 - |c|^2)/2 = 2 |Im c|;
  the rule still keeps the smaller there.
* ``perp="optimal"``: psi_perp is the normalized projection of
  (A/dA -+ i B/dB)|psi> orthogonal to |psi>, which saturates the relation
  for arbitrary pairs and states on the smaller r (the other is 1 + |Im c|).

Bound curves integrate |d<O>/dt| / (dO * eta) with eta = 1 - r by
cumulative composite Simpson.  They take the sampler's ``Samples``, whose
r is NaN where no correction is defined.  Samples where dO or eta
degenerate sit on measure-zero sets of the case studies; they are excluded
and replaced by the nearest healthy sample, and recorded as warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import spectral_norm
from .quadrature import (
    RICHARDSON_FACTOR,
    cumulative_richardson_gaps,
    cumulative_simpson,
    richardson_error_estimate,
)
from .states import VARIANCE_FLOOR, DegenerateObservableError, _spread

if TYPE_CHECKING:  # dynamics imports this module at run time
    from .dynamics import Samples, TimeGrid

# eta at or below this is treated as a singular sample of the SQSLO integrand.
ETA_FLOOR = 1e-9

# Absolute tolerance for flagging equality of the uncertainty relation.
SATURATION_ATOL = 1e-8

# r may exceed [0, 1] by at most this before the branch is discarded; if both
# branches overshoot by more than R_RANGE_HARD something is numerically wrong.
R_RANGE_ATOL = 1e-9
R_RANGE_HARD = 1e-6

HIERARCHY_ATOL = 1e-9


@dataclass(frozen=True)
class CorrectionSample:
    """The stronger uncertainty relation at one sample.

    ``sign_branch`` records the sign kept in front of i B/dB ("minus" or
    "plus"); ``lhs`` is dA dB eta on that branch and ``rhs`` the commutator
    side |<[A, B]>|/2.  The relation ``holds`` where lhs >= rhs - 1e-9 and
    is ``saturated`` where the two agree within SATURATION_ATOL.
    """

    r: float
    eta: float
    sign_branch: str
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs - 1e-9

    @property
    def saturated(self) -> bool:
        return abs(self.lhs - self.rhs) <= SATURATION_ATOL


@dataclass(frozen=True)
class BoundCurve:
    """QSLO/SQSLO bound values for every grid prefix.

    ``mean_values`` carries the tracked quantity (<O(t)>, entropy, modular
    energy or ergotropy); ``r_bar`` the running time average of r;
    ``warnings`` the excluded samples as (time, reason) pairs; and
    ``quad_error`` a Richardson estimate of the quadrature error.
    """

    grid: TimeGrid
    t_qslo: np.ndarray
    t_sqslo: np.ndarray
    mean_values: np.ndarray
    r_bar: np.ndarray
    warnings: tuple[tuple[float, str], ...]
    quad_error: float

    def __post_init__(self):
        n = self.grid.points.size
        for name in ("t_qslo", "t_sqslo", "mean_values", "r_bar"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have one entry per grid point")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if np.any(self.t_sqslo < self.t_qslo - HIERARCHY_ATOL):
            worst = float(np.max(self.t_qslo - self.t_sqslo))
            raise ValueError(f"bound hierarchy violated by {worst:.3e}")


def correction_r(a, b, psi, perp: str = "observable") -> CorrectionSample:
    """The stronger uncertainty relation for A, B in ``psi``: both sign
    branches of the correction factor, the one selected, and the two sides
    of the relation on it, all from one pass over A psi and B psi.

    Raises DegenerateObservableError when either observable has vanishing
    spread in ``psi`` (callers sampling trajectories turn that into an
    excluded sample).  Raises ArithmeticError if both branches land outside
    [0, 1] by more than R_RANGE_HARD.
    """
    v, (a_psi, dev_a, ma), (b_psi, _, mb) = _spread(psi, a, b)
    if ma.variance <= VARIANCE_FLOOR or mb.variance <= VARIANCE_FLOOR:
        raise DegenerateObservableError(
            "one observable has no spread in this state; no correction defined"
        )
    if perp not in ("observable", "optimal"):
        raise ValueError(f"perp must be 'observable' or 'optimal', got {perp!r}")
    u, w = a_psi / ma.std_dev, b_psi / mb.std_dev
    psi_perp = dev_a / ma.std_dev
    rs = {}
    for name, sign in (("minus", -1.0), ("plus", 1.0)):
        vec = u + 1j * sign * w
        if perp == "observable":
            rs[name] = 0.5 * abs(np.vdot(psi_perp, vec)) ** 2
        else:  # the part of vec orthogonal to psi
            vec = vec - np.vdot(v, vec) * v
            rs[name] = 0.5 * float(np.vdot(vec, vec).real)
    # The in-range branch, else the smaller r; ties go to minus.
    name = min(rs, key=lambda k: (not -R_RANGE_ATOL <= rs[k] <= 1 + R_RANGE_ATOL, rs[k], k))
    if max(-rs[name], rs[name] - 1.0) > R_RANGE_HARD:
        raise ArithmeticError(
            "both correction branches out of range: "
            f"r_minus={rs['minus']!r}, r_plus={rs['plus']!r}"
        )
    r = min(max(rs[name], 0.0), 1.0)
    eta = 1.0 - r
    # <[A, B]> = 2i Im <A psi | B psi>, so |<[A,B]>|/2 = |Im <A psi|B psi>|.
    rhs = float(abs(np.vdot(a_psi, b_psi).imag))
    return CorrectionSample(r, eta, name, lhs=ma.std_dev * mb.std_dev * eta, rhs=rhs)


def _row_moments(psi, a_psi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, deviation (A - <A>) psi and variance of A for rows of psi, A psi."""
    mean = np.sum(psi.conj() * a_psi, axis=1).real
    dev = a_psi - mean[:, None] * psi
    return mean, dev, np.sum((dev.conj() * dev).real, axis=1)


def correction_rows(psi, a_psi, b_psi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``correction_r`` (perp="observable") for rows of psi, A psi and B psi.

    Returns the mean and spread of A and r per row, from the same branch as
    ``correction_r``; r is NaN where that raises
    DegenerateObservableError.  Rows come from the sampler, unvalidated.
    """
    mean_a, dev_a, var_a = _row_moments(psi, a_psi)
    _, _, var_b = _row_moments(psi, b_psi)
    std_a, std_b = np.sqrt(var_a), np.sqrt(var_b)
    # <psi_perp| A/dA -+ i B/dB |psi> with psi_perp = (A - <A>) psi / dA.
    with np.errstate(divide="ignore", invalid="ignore"):
        along = np.sum(dev_a.conj() * a_psi, axis=1) / var_a
        across = 1j * np.sum(dev_a.conj() * b_psi, axis=1) / (std_a * std_b)
    r_minus, r_plus = 0.5 * np.abs(along - across) ** 2, 0.5 * np.abs(along + across) ** 2

    # The in-range branch, else the smaller r; ties go to minus.
    in_minus, in_plus = (
        (r >= -R_RANGE_ATOL) & (r <= 1.0 + R_RANGE_ATOL) for r in (r_minus, r_plus)
    )
    plus = np.where(in_plus == in_minus, r_plus < r_minus, in_plus)
    r = np.where(plus, r_plus, r_minus)
    r[(var_a <= VARIANCE_FLOOR) | (var_b <= VARIANCE_FLOOR)] = np.nan
    overshoot = np.maximum(-r, r - 1.0)
    if np.any(overshoot > R_RANGE_HARD):
        raise ArithmeticError(
            "both correction branches out of range by up to "
            f"{float(np.nanmax(overshoot))!r}"
        )
    return mean_a, std_a, np.clip(r, 0.0, 1.0)


def _fill_nearest(values: np.ndarray) -> np.ndarray:
    """Replace NaN samples by the nearest preceding healthy one (one-sided);
    a leading NaN run copies the first healthy sample from the right."""
    healthy = ~np.isnan(values)
    if not np.any(healthy):
        return values.copy()
    source = np.maximum.accumulate(np.where(healthy, np.arange(values.size), 0))
    source[: np.argmax(healthy)] = np.argmax(healthy)
    return values[source]


def _require_inputs(grid: TimeGrid, samples: Samples, delta_h: float) -> None:
    if not (delta_h > 0.0 and math.isfinite(delta_h)):
        raise ValueError(f"delta_h must be positive, got {delta_h!r}")
    if any(np.shape(column) != grid.points.shape for column in samples):
        raise ValueError("need one sample per grid point")


_REASONS = (None, "zero-variance sample", "degenerate correction", "correction saturates r=1")


def _warnings(grid: TimeGrid, codes: np.ndarray) -> tuple[tuple[float, str], ...]:
    """(time, reason) for every excluded sample, by its code in _REASONS."""
    return tuple((float(grid.points[k]), _REASONS[codes[k]]) for k in np.flatnonzero(codes))


def _running_average(r_filled: np.ndarray, grid: TimeGrid) -> np.ndarray:
    r_bar = np.empty_like(r_filled)
    r_bar[0] = r_filled[0]
    r_bar[1:] = cumulative_simpson(r_filled, grid.dx)[1:] / grid.points[1:]
    return r_bar


def qsl_integral(grid: TimeGrid, samples: Samples, delta_h: float) -> BoundCurve:
    """Cumulative bound integrals (1/2 dH) int |d<O>/dt| / (dO [eta]) dt.

    ``samples`` holds the sampler's mean, spread, d<O>/dt and r of the
    observable at every grid point; the strengthened bound divides by
    eta = 1 - r as well.  Singular samples (vanishing spread, missing
    correction, eta at the floor) are replaced by the nearest healthy sample
    and reported in the curve's warnings.
    """
    _require_inputs(grid, samples, delta_h)
    n = grid.points.size
    stds = samples.std_devs
    derivs = np.abs(samples.derivatives)
    r_raw = samples.r
    eta = 1.0 - r_raw
    codes = np.select(
        [~(stds * stds > VARIANCE_FLOOR), np.isnan(r_raw), eta <= ETA_FLOOR], [1, 2, 3], 0
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        f_q = np.where(codes == 1, np.nan, derivs / stds)
        f_s = np.where(codes == 0, derivs / (stds * eta), np.nan)
    warnings = _warnings(grid, codes)

    if np.all(np.isnan(f_q)):
        if np.max(derivs) <= 1e-12 * max(1.0, float(np.max(np.abs(samples.means)))):
            # Observable never moves: the bound is identically zero.
            zeros = np.zeros(n)
            return BoundCurve(
                grid, zeros, zeros.copy(), samples.means.copy(), np.zeros(n),
                warnings, 0.0,
            )
        raise ValueError("all integrand samples are degenerate")

    f_q = _fill_nearest(f_q)
    f_s = _fill_nearest(f_s)
    r_filled = _fill_nearest(r_raw)
    prefactor = 0.5 / delta_h
    t_qslo = prefactor * cumulative_simpson(f_q, grid.dx)
    t_sqslo = prefactor * cumulative_simpson(f_s, grid.dx)
    quad_error = prefactor * max(
        richardson_error_estimate(f_q, grid.dx),
        richardson_error_estimate(f_s, grid.dx),
    )
    return BoundCurve(
        grid=grid,
        t_qslo=t_qslo,
        t_sqslo=t_sqslo,
        mean_values=samples.means.copy(),
        r_bar=_running_average(r_filled, grid),
        warnings=warnings,
        quad_error=float(quad_error),
    )


def ratio_form_curve(grid: TimeGrid, samples: Samples, delta_h: float) -> BoundCurve:
    """Bound from net change over time-averaged spread.

    t_bound(T) = T |<O>(T) - <O>(0)| / (2 dH int_0^T dO(t) [eta(t)] dt).
    Used where the tracked mean itself is the target quantity (entropy) and
    only its endpoint change is constrained.  eta multiplies rather than
    divides, so only missing correction samples (NaN in r) need filling.
    """
    _require_inputs(grid, samples, delta_h)
    means, f_q, r_raw = samples.means, samples.std_devs, samples.r
    warnings = _warnings(grid, np.where(np.isnan(r_raw), 2, 0))
    if np.all(np.isnan(r_raw)):
        raise ValueError("all correction samples are degenerate")
    r_filled = _fill_nearest(r_raw)
    f_s = f_q * (1.0 - r_filled)

    int_q = cumulative_simpson(f_q, grid.dx)
    int_s = cumulative_simpson(f_s, grid.dx)
    net_change = np.abs(means - means[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        t_qslo = np.where(
            int_q > 0.0, grid.points * net_change / (2.0 * delta_h * int_q), 0.0
        )
        t_sqslo = np.where(
            int_s > 0.0, grid.points * net_change / (2.0 * delta_h * int_s), 0.0
        )

    quad_error = 0.0
    for f, integral, bound in ((f_q, int_q, t_qslo), (f_s, int_s, t_sqslo)):
        gaps = cumulative_richardson_gaps(f, grid.dx) / RICHARDSON_FACTOR
        if not np.all(np.isfinite(gaps)):
            quad_error = math.inf
            continue
        idx = np.arange(gaps.size) * 2
        mask = integral[idx] > 0.0
        if np.any(mask):
            propagated = bound[idx][mask] * gaps[mask] / integral[idx][mask]
            quad_error = max(quad_error, float(np.max(propagated)))
    return BoundCurve(
        grid=grid,
        t_qslo=t_qslo,
        t_sqslo=t_sqslo,
        mean_values=means.copy(),
        r_bar=_running_average(r_filled, grid),
        warnings=warnings,
        quad_error=quad_error,
    )


def entanglement_rate_bound(c_e, delta_h, r):
    """Cap on |d entropy/dt|: 2 sqrt(C_E) dH (1 - r), hbar = 1; elementwise
    over scalars or arrays."""
    if np.any(c_e < 0.0):
        raise ValueError(f"capacity must be nonnegative, got {c_e!r}")
    if not np.all(delta_h > 0.0):
        raise ValueError(f"delta_h must be positive, got {delta_h!r}")
    if not np.all((-R_RANGE_ATOL <= r) & (r <= 1.0 + R_RANGE_ATOL)):
        raise ValueError(f"correction r must lie in [0, 1], got {r!r}")
    return 2.0 * np.sqrt(c_e) * delta_h * (1.0 - np.clip(r, 0.0, 1.0))


def norm_rate_comparison(h, d: int) -> float:
    """Diagnostic cap ||H|| log d on the entanglement rate (constant 1..2)."""
    if d < 1:
        raise ValueError(f"subsystem dimension must be >= 1, got {d!r}")
    return float(spectral_norm(h) * math.log(d))
