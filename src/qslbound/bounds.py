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
whose ``Samples`` carry c, share one kernel for c, ``states._correlation``
(and ``states._r_from_c`` for r), which takes B's deviation row
(B - <B>) psi and moments: per state in ``correction_r``, once per curve in
the sampler (B = H, whose <H> and dH are constants of the motion).  The
commutator side ``rhs`` comes from A psi and B psi, not from c.

With B = H, d<O>/dt = 2 dO dH Im c, so the direct-form integrands
|d<O>/dt| / (2 dH dO [eta]) are |Im c| and |Im c| / eta, both in [0, 1] and
ordered at every sample: the bounds read c alone, and the sampler's d<O>/dt
witnesses c (verify checks the identity), independently in the Heisenberg
picture, where it comes from the commutator.  The ratio form integrates
dO [eta].  Both go through one quadrature seam, ``quadrature._prefix_integrals``.
Samples where c is NaN (dO^2 at the variance floor) or eta is at the floor
are excluded, take the value of the nearest preceding healthy sample (the
first healthy one, for a leading run) and are recorded as warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Samples, TimeGrid
from .linalg import _vdot, spectral_norm
from .quadrature import _prefix_integrals
from .states import VARIANCE_FLOOR, DegenerateObservableError, _correlation, _moments, _operands, _r_from_c

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


def _fill_nearest(values: np.ndarray) -> np.ndarray:
    """Replace NaN samples by the nearest preceding healthy one (one-sided);
    a leading NaN run copies the first healthy sample from the right.  Each
    row of a (k, n) stack is filled on its own; an all-NaN row stays NaN."""
    healthy = ~np.isnan(values)
    flat = np.arange(values.size).reshape(values.shape)
    source = np.maximum.accumulate(flat * healthy, axis=-1)
    np.maximum(source, flat[..., :1] + healthy.argmax(axis=-1)[..., None], out=source)
    return values.take(source)


def _require_inputs(grid: TimeGrid, samples: Samples) -> None:
    """The one refusal of a stationary initial state (dH^2 at or below the
    variance floor, or NaN), whichever parameter causes it; the CLI exits 2."""
    delta_h = samples.delta_h
    if not delta_h * delta_h > VARIANCE_FLOOR:
        raise ValueError(
            f"delta_h = {delta_h:.3g} is within the variance floor: the initial state is"
            " stationary (an eigenstate of H), so no bound is defined"
        )
    if any(column.shape != grid.points.shape for column in samples[:-1]):  # all but dH
        raise ValueError("need one sample per grid point")


_REASONS = (None, "zero-variance sample", "correction saturates r=1")


def _exclusions(grid: TimeGrid, c, eta=None):
    """Each sample's exclusion code, the index in _REASONS of its reason (0
    where it is kept), and the (time, reason) warning of every excluded
    sample.  c is NaN exactly where dO^2 is at the variance floor (dH is
    refused upstream); a form that divides by eta passes it, NaN where c is,
    so each excluded sample has one reason."""
    codes = np.isnan(c).astype(int)
    if eta is not None:
        codes[eta <= ETA_FLOOR] = 2
    return codes, tuple((float(grid.points[k]), _REASONS[codes[k]]) for k in codes.nonzero()[0])


def _curve(grid, samples, rows, integrals, warnings, t_qslo, t_sqslo, quad_error) -> BoundCurve:
    """The BoundCurve of either form, whose integrand ``rows`` end in the
    filled r row: r_bar is that row's running time average."""
    r_bar = np.concatenate([rows[2, :1], integrals[2, 1:] / grid.points[1:]])
    return BoundCurve(grid, t_qslo, t_sqslo, samples.means.copy(), r_bar, warnings, quad_error)


def qsl_integral(grid: TimeGrid, samples: Samples) -> BoundCurve:
    """Cumulative bound integrals int |Im c| dt (QSLO) and int |Im c| / eta dt
    (SQSLO), eta = 1 - r, from the c of (O, H) at every grid point.

    These are (1/2 dH) int |d<O>/dt| / (dO [eta]) dt, since
    d<O>/dt = 2 dO dH Im c.  Excluded samples (NaN c, eta at the floor) take
    the value of the nearest preceding healthy sample (the first healthy one,
    for a leading run) and are reported in the curve's warnings.  An
    integrand with no healthy sample is zero if d<O>/dt is negligible on the
    whole curve (a conserved observable), and is refused otherwise.
    """
    _require_inputs(grid, samples)
    c, r_raw = samples.c, samples.r
    eta = 1.0 - r_raw
    codes, warnings = _exclusions(grid, c, eta)
    im_c = np.abs(c.imag)
    # Integrand rows |Im c|, |Im c| / eta and r; NaN + 0j has Im c = 0, so each row is masked.
    rows = np.full((3, grid.points.size), np.nan)
    np.copyto(rows[0], im_c, where=codes != 1)
    np.divide(im_c, eta, out=rows[1], where=codes == 0)
    rows[2] = r_raw
    empty = np.isnan(rows).all(axis=1)
    if empty.any():
        if not np.abs(samples.derivatives).max() <= 1e-12 * max(1.0, float(np.abs(samples.means).max())):
            raise ValueError("all integrand samples are degenerate")
        rows[empty] = 0.0  # the observable never moves: a row without a healthy sample is zero
    rows = _fill_nearest(rows)
    integrals, error = _prefix_integrals(rows, grid.dx, 2)
    return _curve(grid, samples, rows, integrals, warnings, *integrals[:2], float(error.max()))


def ratio_form_curve(grid: TimeGrid, samples: Samples) -> BoundCurve:
    """Bound from net change over time-averaged spread.

    t_bound(T) = T |<O>(T) - <O>(0)| / (2 dH int_0^T dO(t) [eta(t)] dt).
    Used where the tracked mean itself is the target quantity (entropy) and
    only its endpoint change is constrained.  eta multiplies rather than
    divides, so only missing correction samples (NaN in r) need filling.
    """
    _require_inputs(grid, samples)
    means, f_q, r_raw = samples.means, samples.std_devs, samples.r
    codes, warnings = _exclusions(grid, samples.c)
    if codes.all():
        raise ValueError("all correction samples are degenerate")
    # r is filled before it enters f_s: filling the product would take a neighbour's dO too.
    r_filled = _fill_nearest(r_raw)
    rows = np.stack([f_q, f_q * (1.0 - r_filled), r_filled])
    integrals, error = _prefix_integrals(rows, grid.dx, 2)
    net_change = np.abs(means - means[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = grid.points * net_change / (2.0 * samples.delta_h * integrals[:2])
        propagated = ratios[:, ::2] * error / integrals[:2, ::2]
    t_qslo, t_sqslo = np.where(integrals[:2] > 0.0, ratios, 0.0)
    # Each bound times its relative error at the even prefixes; inf if a grid can't halve.
    finite = np.isfinite(error).all()
    quad_error = float(propagated.max(where=integrals[:2, ::2] > 0.0, initial=0.0)) if finite else math.inf
    return _curve(grid, samples, rows, integrals, warnings, t_qslo, t_sqslo, quad_error)


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
