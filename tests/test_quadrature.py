import numpy as np
import pytest

from qslbound.quadrature import (
    cumulative_richardson_gaps,
    cumulative_simpson,
    richardson_error_estimate,
)


def test_constant_integrand_is_exact():
    out = cumulative_simpson(np.full(11, 3.0), 0.1)
    assert np.allclose(out, 3.0 * 0.1 * np.arange(11))


def test_quadratic_is_exact_at_pair_boundaries():
    ts = np.linspace(0.0, 1.0, 21)
    out = cumulative_simpson(ts**2, ts[1] - ts[0])
    assert np.allclose(out[::2], (ts**3 / 3.0)[::2], atol=1e-14)


def test_odd_interval_count():
    ts = np.linspace(0.0, 1.0, 4)
    out = cumulative_simpson(ts, ts[1] - ts[0])
    assert out[-1] == pytest.approx(0.5, abs=1e-12)


def test_smooth_convergence():
    ts = np.linspace(0.0, np.pi, 201)
    approx = cumulative_simpson(np.sin(ts), ts[1] - ts[0])[-1]
    assert approx == pytest.approx(2.0, abs=1e-8)


def test_richardson_bounds_true_error():
    ts = np.linspace(0.0, 1.0, 101)
    dx = ts[1] - ts[0]
    y = np.exp(ts)
    true_error = abs(cumulative_simpson(y, dx)[-1] - (np.e - 1.0))
    assert richardson_error_estimate(y, dx) >= true_error


def test_richardson_gaps_cover_kink_error():
    # |t - t*| kinks degrade Simpson to second order; the per-prefix gap
    # divided by the conservative factor must still dominate the true error.
    t_star = 0.5137
    ts = np.linspace(0.0, 1.0, 201)
    dx = ts[1] - ts[0]
    y = np.abs(ts - t_star)
    exact = np.where(
        ts <= t_star,
        0.5 * (t_star**2 - (t_star - ts) ** 2),
        0.5 * t_star**2 + 0.5 * (ts - t_star) ** 2,
    )
    est = richardson_error_estimate(y, dx)
    true_error = np.max(np.abs(cumulative_simpson(y, dx) - exact))
    assert est >= true_error


def test_short_input_rejected():
    with pytest.raises(ValueError):
        cumulative_simpson(np.array([1.0]), 0.1)
    assert cumulative_richardson_gaps(np.array([1.0, 1.0, 1.0]), 0.1)[0] == np.inf


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        cumulative_simpson(np.array([1.0, np.nan, 1.0]), 0.1)
