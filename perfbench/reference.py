"""A fixed reference kernel that measures how fast the machine runs right now.

The machine the benchmark runs on shares its hardware with other work.
Its speed switches between a fast and a slow state (up to 1.7x apart)
every second or so, and drifts by up to 2x over minutes; CPU time tracks
wall time, so the cause is the hardware, not scheduling.  A raw time then
says as much about the neighbours as about the program.  So the benchmark
samples the machine's speed with this kernel, in the same process, while
the program runs (``Sampler``: a wall-clock timer runs it every
``INTERVAL_S``, about 5% of the time), leaves the kernel's own time out of
every measured time, and scales each time to the machine's speed when
``NOMINAL_S`` was taken:

    reported = measured * NOMINAL_S / mean kernel time over the same span

where the span is a whole pass for a pass's wall time, and the operation
widened by ``LOCAL_S`` on each side for one operation's latency.

The kernel is the benchmark's own code and uses nothing of qslbound, so no
change to the program moves it.  It has the same cost mix as the program's
hot path: many numpy calls on 4x4 complex matrices (validation, products,
``eigh``) driven from a Python loop, and a Simpson sum in Python.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# About the mean time of one kernel() call on the 2-core Xeon (2.1 GHz) the
# seed baseline was measured on.  A constant: it only fixes the scale of
# reported times and must not change between commits.
NOMINAL_S = 0.0065
# Period of the sampling timer.
INTERVAL_S = 0.1
# Kernel calls that end this close to an operation set its latency's factor.
LOCAL_S = 0.5

_rng = np.random.default_rng(12345)
_a = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_b = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
H = (_a + _a.conj().T) / 2
OBS = (_b + _b.conj().T) / 2
PSI0 = np.ones(4, dtype=complex) / 2.0


def _hermitian(m):
    a = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("non-finite entries")
    if np.max(np.abs(a - a.conj().T)) > 1e-9 * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError("not Hermitian")
    return a


def kernel(n: int = 64) -> float:
    """Speed-limit integral of OBS under H over [0, 1] on n + 1 points."""
    h = _hermitian(H)
    vals, vecs = np.linalg.eigh(h)
    ts = np.linspace(0.0, 1.0, n + 1)
    speeds = []
    for t in ts:
        u = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
        o_t = _hermitian(u.conj().T @ OBS @ u)
        psi = PSI0 / np.linalg.norm(PSI0)
        mean = float(np.vdot(psi, o_t @ psi).real)
        var = float(np.vdot(psi, o_t @ (o_t @ psi)).real) - mean * mean
        d = _hermitian(1j * (h @ o_t - o_t @ h))
        speeds.append(abs(float(np.vdot(psi, d @ psi).real)) / max(var, 1e-24) ** 0.5)
    total = 0.0
    for k in range(0, n - 1, 2):
        total += (ts[k + 2] - ts[k]) / 6.0 * (speeds[k] + 4.0 * speeds[k + 1] + speeds[k + 2])
    return total


Call = tuple[float, float]  # (start, end) of one kernel call


def _timed_kernel(calls: list) -> None:
    t0 = time.perf_counter()
    kernel()
    calls.append((t0, time.perf_counter()))


def calibrate(reps: int) -> list[Call]:
    """``reps`` kernel calls now, after one untimed warm-up call."""
    kernel()
    calls: list[Call] = []
    for _ in range(reps):
        _timed_kernel(calls)
    return calls


def scale(calls: list[Call], start: float = float("-inf"), end: float = float("inf")) -> float:
    """Factor that takes a time measured alongside the kernel calls that
    ended in [start, end] (all calls if none did) to the nominal machine
    speed: NOMINAL_S over their mean time."""
    times = [b - a for a, b in calls if start <= b <= end] or [b - a for a, b in calls]
    return NOMINAL_S * len(times) / sum(times)


def inside(calls: list[Call], start: float, end: float) -> float:
    """Kernel time spent within [start, end].  A call runs between two
    bytecodes of the interrupted code, so it lies wholly inside or outside
    any interval the code timed."""
    return sum(b - a for a, b in calls if start <= a and b <= end)


class Sampler:
    """Context manager: while entered, SIGALRM runs the kernel every
    ``INTERVAL_S`` of wall time; ``calls`` holds when each call ran."""

    def __init__(self):
        self.calls: list[Call] = []

    def _tick(self, signum, frame) -> None:
        _timed_kernel(self.calls)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
