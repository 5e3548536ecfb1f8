"""Speed-limit bounds for observables: correction factor, QSLO and SQSLO.

The correction factor r comes from the stronger uncertainty relation
(Maccone and Pati, PRL 113, 260401, 2014)

    dA dB (1 - r) >= |<[A, B]>| / 2,

r = (1/2) |<psi_perp| (A/dA -+ i B/dB) |psi>|^2 on the sign that makes the
commutator side positive.  With psi_perp = (A - <A>) psi / dA and
c = <(A - <A>) psi|(B - <B>) psi> / (dA dB) this is the closed form

    r = (1 + |c|^2)/2 - |Im c|,    sign "plus" iff Im c > 0,

in [0, 1] by Cauchy-Schwarz.  eta = 1 - r >= |Im c| = |<[A, B]>| / (2 dA dB),
with equality exactly where |c| = 1, which puts the SQSLO curves of the
bundled case studies on the diagonal.  ``correction_r`` and the sampler,
whose ``Samples`` carry c, share one kernel for c, ``_correlation``, which
takes B's deviation row (B - <B>) psi and moments: per state in
``correction_r``, once per curve in the sampler (B = H, whose <H> and dH are
constants of the motion).  The commutator side ``rhs`` comes from A psi and
B psi, and the sampler's d<O>/dt from the commutator, not from c, so each
side of the relation checks the other.

Bound curves integrate |d<O>/dt| / (dO * eta) by cumulative composite
Simpson over the sampler's ``Samples`` (r NaN where c is).  Samples where dO
or eta degenerate are excluded, replaced by the nearest healthy sample and
recorded as warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import _vdot, spectral_norm
from .quadrature import RICHARDSON_FACTOR, _halving_gaps, cumulative_simpson
from .states import VARIANCE_FLOOR, DegenerateObservableError, ObservableMoments, _moments, _operands

if TYPE_CHECKING:  # dynamics imports this module at run time
    from .dynamics import Samples, TimeGrid

# eta at or below this is treated as a singular sample of the SQSLO integrand.
ETA_FLOOR = 1e-9

# Absolute tolerance for flagging equality of the uncertainty relation.
SATURATION_ATOL = 1e-8

# entanglement_rate_bound accepts r this far outside [0, 1] (rounding).
R_RANGE_ATOL = 1e-9

HIERARCHY_ATOL = 1e-9


@dataclass(frozen=True)
class CorrectionSample:
    """The stronger uncertainty relation at one sample.

    ``sign_branch`` records the sign kept in front of i B/dB ("minus" or
    "plus"); ``lhs`` is dA dB eta on that branch and ``rhs`` the commutator
    side |<[A, B]>|/2.  The relation ``holds`` where lhs >= rhs - 1e-9 and
    is ``saturated`` where the two agree within SATURATION_ATOL.  On stacks,
    each field holds one entry per member.
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
        if (self.t_sqslo < self.t_qslo - HIERARCHY_ATOL).any():
            worst = float((self.t_qslo - self.t_sqslo).max())
            raise ValueError(f"bound hierarchy violated by {worst:.3e}")


def correction_r(a, b, psi) -> CorrectionSample:
    """The stronger uncertainty relation for A, B in ``psi``: r in closed
    form, its sign and both sides of the relation, from one pass over
    A psi and B psi; on stacks of A, B and psi, per member.

    Raises DegenerateObservableError when either observable has vanishing
    spread in ``psi``, in any member (callers sampling trajectories turn
    that into an excluded sample).
    """
    v, a_psi, b_psi = _operands(psi, a, b)
    dev_b, mb = _moments(v, b_psi)
    ma, c = _correlation(v, a_psi, dev_b, mb)
    if np.isnan(c).any():
        raise DegenerateObservableError(
            "one observable has no spread in this state; no correction defined"
        )
    r = _r_from_c(c)
    eta = 1.0 - r
    # <[A, B]> = 2i Im <A psi | B psi>, so |<[A,B]>|/2 = |Im <A psi|B psi>|.
    rhs = np.abs(_vdot(a_psi, b_psi).imag)
    sign = np.where(c.imag > 0.0, "plus", "minus")[()]
    return CorrectionSample(r, eta, sign, lhs=ma.std_dev * mb.std_dev * eta, rhs=rhs)


def _correlation(psi, a_psi, dev_b, mb) -> tuple[ObservableMoments, np.ndarray]:
    """Moments of A and c = <(A - <A>) psi|(B - <B>) psi> / (dA dB) from psi, A psi and the
    (dev_b, mb) of ``states._moments(psi, B psi)`` (one state or rows, unvalidated; one mb may
    serve all rows); c is NaN where a variance is <= VARIANCE_FLOOR."""
    dev_a, ma = _moments(psi, a_psi)
    healthy = (ma.variance > VARIANCE_FLOOR) & (mb.variance > VARIANCE_FLOOR)
    c = np.full(healthy.shape, np.nan, dtype=complex)
    np.divide(_vdot(dev_a, dev_b), ma.std_dev * mb.std_dev, out=c, where=healthy)
    return ma, c


def _r_from_c(c) -> np.ndarray:
    """r = (1 + |c|^2)/2 - |Im c|; its sign branch is "plus" iff Im c > 0."""
    return 0.5 * (1.0 + np.abs(c) ** 2) - np.abs(c.imag)


def _fill_nearest(values: np.ndarray) -> np.ndarray:
    """Replace NaN samples by the nearest preceding healthy one (one-sided);
    a leading NaN run copies the first healthy sample from the right.  Each
    row of a (k, n) stack is filled on its own; an all-NaN row stays NaN."""
    healthy = ~np.isnan(values)
    flat = np.arange(values.size).reshape(values.shape)
    source = np.maximum.accumulate(flat * healthy, axis=-1)
    np.maximum(source, flat[..., :1] + healthy.argmax(axis=-1)[..., None], out=source)
    return values.take(source)


def _require_inputs(grid: TimeGrid, samples: Samples, delta_h: float) -> None:
    if not (delta_h > 0.0 and math.isfinite(delta_h)):
        raise ValueError(f"delta_h must be positive, got {delta_h!r}")
    if delta_h * delta_h <= VARIANCE_FLOOR:
        raise ValueError(
            f"delta_h = {delta_h:.3g} is within the variance floor: the initial state is"
            " stationary (an eigenstate of H), so no bound is defined"
        )
    if any(column.shape != grid.points.shape for column in samples):
        raise ValueError("need one sample per grid point")


_REASONS = (None, "zero-variance sample", "degenerate correction", "correction saturates r=1")


def _warnings(grid: TimeGrid, codes: np.ndarray) -> tuple[tuple[float, str], ...]:
    """(time, reason) for every excluded sample, by its code in _REASONS."""
    return tuple((float(grid.points[k]), _REASONS[codes[k]]) for k in codes.nonzero()[0])


def _running_average(r_filled: np.ndarray, r_integral: np.ndarray, grid: TimeGrid) -> np.ndarray:
    return np.concatenate([r_filled[:1], r_integral[1:] / grid.points[1:]])


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
    # Exclusion codes, assigned lowest priority first: 1 > 2 > 3.
    codes = np.zeros(n, dtype=int)
    codes[eta <= ETA_FLOOR] = 3
    codes[np.isnan(r_raw)] = 2
    codes[~(stds * stds > VARIANCE_FLOOR)] = 1
    # Integrand rows f_q, f_s and r; each divides only where its sample is kept.
    rows = np.full((3, n), np.nan)
    np.divide(derivs, stds, out=rows[0], where=codes != 1)
    np.divide(derivs, stds * eta, out=rows[1], where=codes == 0)
    rows[2] = r_raw
    warnings = _warnings(grid, codes)

    if np.isnan(rows[0]).all():
        if derivs.max() <= 1e-12 * max(1.0, float(np.abs(samples.means).max())):
            # Observable never moves: the bound is identically zero.
            return BoundCurve(grid, *np.zeros((2, n)), samples.means.copy(), np.zeros(n), warnings, 0.0)
        raise ValueError("all integrand samples are degenerate")

    rows = _fill_nearest(rows)
    integrals = cumulative_simpson(rows, grid.dx)
    gaps = _halving_gaps(rows[:2], integrals[:2], grid.dx)
    prefactor = 0.5 / delta_h
    return BoundCurve(
        grid=grid,
        t_qslo=prefactor * integrals[0],
        t_sqslo=prefactor * integrals[1],
        mean_values=samples.means.copy(),
        r_bar=_running_average(rows[2], integrals[2], grid),
        warnings=warnings,
        quad_error=float(prefactor * (gaps.max() / RICHARDSON_FACTOR)),
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
    if np.isnan(r_raw).all():
        raise ValueError("all correction samples are degenerate")
    r_filled = _fill_nearest(r_raw)
    rows = np.stack([f_q, f_q * (1.0 - r_filled), r_filled])
    integrals = cumulative_simpson(rows, grid.dx)
    gaps = _halving_gaps(rows[:2], integrals[:2], grid.dx)
    net_change = np.abs(means - means[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = grid.points * net_change / (2.0 * delta_h * integrals[:2])
        propagated = ratios[:, ::2] * (gaps / RICHARDSON_FACTOR) / integrals[:2, ::2]
    t_qslo, t_sqslo = np.where(integrals[:2] > 0.0, ratios, 0.0)
    # Each bound times its relative halving gap at the even prefixes; inf if a grid can't halve.
    finite = np.isfinite(gaps).all()
    quad_error = float(propagated.max(where=integrals[:2, ::2] > 0.0, initial=0.0)) if finite else math.inf
    return BoundCurve(
        grid=grid,
        t_qslo=t_qslo,
        t_sqslo=t_sqslo,
        mean_values=means.copy(),
        r_bar=_running_average(r_filled, integrals[2], grid),
        warnings=warnings,
        quad_error=quad_error,
    )


def entanglement_rate_bound(c_e, delta_h, r):
    """Cap on |d entropy/dt|: 2 sqrt(C_E) dH (1 - r), hbar = 1; elementwise
    over scalars or arrays."""
    if not np.all((0.0 <= c_e) & (c_e < math.inf)):
        raise ValueError(f"capacity must be nonnegative and finite, got {c_e!r}")
    if not np.all((0.0 < delta_h) & (delta_h < math.inf)):
        raise ValueError(f"delta_h must be positive and finite, got {delta_h!r}")
    if not np.all((-R_RANGE_ATOL <= r) & (r <= 1.0 + R_RANGE_ATOL)):
        raise ValueError(f"correction r must lie in [0, 1], got {r!r}")
    return 2.0 * np.sqrt(c_e) * delta_h * (1.0 - np.clip(r, 0.0, 1.0))


def norm_rate_comparison(h, d: int) -> float:
    """Diagnostic cap ||H|| log d on the entanglement rate (constant 1..2)."""
    if d < 1:
        raise ValueError(f"subsystem dimension must be >= 1, got {d!r}")
    return float(spectral_norm(h) * math.log(d))
