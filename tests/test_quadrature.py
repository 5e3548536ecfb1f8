import numpy as np
import pytest

from qslbound.bounds import _fill_nearest
from qslbound.quadrature import (
    RICHARDSON_FACTOR,
    _halving_gaps,
    cumulative_richardson_gaps,
    cumulative_simpson,
)


def richardson_error_estimate(values, dx):
    """Worst per-prefix quadrature-error estimate, as qsl_integral takes it."""
    return float(np.max(cumulative_richardson_gaps(values, dx))) / RICHARDSON_FACTOR


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


# Stacked calls: each row of a (k, n) call is its 1-D call, bit for bit.
STACK_SIZES = [2, 3, 4, 5, 6, 257, 258]


def rows_of(n):
    rng = np.random.default_rng(n)
    return rng.standard_normal((3, n)) * np.array([[1.0], [1e-3], [1e3]])


@pytest.mark.parametrize("n", STACK_SIZES)
def test_each_row_of_a_stacked_simpson_call_is_its_1d_call(n):
    y, dx = rows_of(n), 0.37
    stacked = cumulative_simpson(y, dx)
    assert stacked.shape == y.shape
    for row, out in zip(y, stacked):
        assert np.array_equal(out, cumulative_simpson(row, dx))


def reference_gaps(y, dx):
    """Richardson gaps as two separate integrals: the fine one over the even
    prefix y[:m + 1], then the coarse one."""
    m = (y.size - 1) // 2 * 2
    fine = cumulative_simpson(y[: m + 1], dx)[::2]
    return np.abs(fine - cumulative_simpson(y[: m + 1 : 2], 2.0 * dx))


@pytest.mark.parametrize("n", STACK_SIZES)
def test_gaps_from_the_reused_fine_integral_are_the_separate_integrals(n):
    y, dx = rows_of(n), 0.37
    stacked = cumulative_richardson_gaps(y, dx)
    reused = _halving_gaps(y[:2], cumulative_simpson(y[:2], dx), dx)
    for k, row in enumerate(y):
        single = cumulative_richardson_gaps(row, dx)
        assert np.array_equal(stacked[k], single)
        if n < 5:
            assert single.tolist() == [np.inf]
        else:
            assert np.array_equal(single, reference_gaps(row, dx))
        if k < 2:
            assert np.array_equal(reused[k], single)


def reference_fill(values):
    """Nearest preceding healthy sample, else the first healthy one."""
    healthy = [k for k in range(values.size) if not np.isnan(values[k])]
    out = values.copy()
    for k in range(values.size):
        before = [j for j in healthy if j <= k]
        if healthy:
            out[k] = values[before[-1] if before else healthy[0]]
    return out


@pytest.mark.parametrize("n", STACK_SIZES)
def test_each_row_of_a_stacked_fill_is_its_1d_fill(n):
    y = rows_of(n)
    y = np.vstack([y, y[:1]])
    y[0, 0] = np.nan  # leading NaN
    y[1, n // 2 :: 3] = np.nan  # interior NaN runs
    y[2, :] = np.nan  # all NaN
    y[3, : n - 1] = np.nan  # only the last sample healthy
    stacked = _fill_nearest(y)
    for row, out in zip(y, stacked):
        single = _fill_nearest(row)
        assert np.array_equal(out, single, equal_nan=True)
        assert np.array_equal(single, reference_fill(row), equal_nan=True)
    assert np.all(np.isnan(stacked[2]))
    assert not np.any(np.isnan(stacked[[0, 1, 3]]))
