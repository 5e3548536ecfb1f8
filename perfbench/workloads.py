"""The benchmark's workloads: inputs from the seed, timed passes, checks.

Each workload is a closed loop: one caller in one process issues the next
operation only when the previous one has returned.  ``run_pass`` times the
operations and returns their raw outputs; ``check`` runs afterwards, outside
the timed region, and returns the output's digest and its problems.

Program entry points are always called through their module attribute
(``cli.main``, not a name bound here), so that the tracer's wrappers see the
top-level call of every operation.
"""

from __future__ import annotations

import importlib
import io
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Any, Optional

import checks


@dataclass
class Op:
    """One timed operation: its key, start (``perf_counter``), latency, raw
    output or error."""

    key: str
    start_s: float
    latency_s: float
    raw: Any = None
    error: Optional[str] = None


def _timed(key: str, fn, *args) -> Op:
    t0 = time.perf_counter()
    try:
        raw = fn(*args)
    except Exception as exc:  # a raising operation is a failed operation
        return Op(key, t0, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    return Op(key, t0, time.perf_counter() - t0, raw)


class Figures:
    """Every paper figure through ``cli.main``; one operation is one preset.
    The workloads' reasons are recorded in BENCHMARK.json."""

    name = "figures"
    presets = ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8")
    uses_seed = False

    def load(self):
        self.cli = importlib.import_module("qslbound.cli")
        self.presets_mod = importlib.import_module("qslbound.presets")

    def make_inputs(self, seed: int):
        # Fixed by the paper: the seed does not change the figures.
        table = self.presets_mod.PRESETS
        return [(name, [table[name].kind, "--preset", name, "--format", "csv+svg"]) for name in self.presets]

    def _invoke(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue()

    def run_pass(self, inputs, workdir):
        return [
            _timed(name, self._invoke, argv + ["--out", str(workdir / f"{name}.csv")])
            for name, argv in inputs
        ]

    def check(self, inputs, op: Op):
        rc, stdout = op.raw
        if rc != 0:
            return None, [f"cli exit code {rc}"]
        paths = [line for line in stdout.splitlines() if line]
        problems, parts = [], []
        for path in sorted(paths):
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                problems.append(f"cannot read {path}: {exc}")
                continue
            parts.append(f"{path.rsplit('/', 1)[-1]}:{checks.sha256(data)}")
            if path.endswith(".csv"):
                problems += checks.figure_csv(op.key, data.decode("utf-8", "replace"))
        if not any(p.endswith(".csv") for p in paths):
            problems.append("no CSV written")
        return checks.sha256("\n".join(parts).encode()), problems


class Sweep:
    """Seeded short curves, modular and battery alternating; one operation
    is one curve, from building its grid and scenario to the BoundCurve."""

    name = "sweep"
    n_curves = 120
    n_steps = 256
    uses_seed = True

    def load(self):
        self.dynamics = importlib.import_module("qslbound.dynamics")
        self.scenarios = importlib.import_module("qslbound.scenarios")

    def make_inputs(self, seed: int):
        rng = random.Random(seed)
        inputs = []
        for k in range(self.n_curves):
            if k % 2 == 0:
                params = {"p": rng.uniform(0.05, 0.45), "theta": rng.uniform(0.3, 2.0)}
                kind = "modular"
            else:
                params = {
                    "omega": rng.uniform(0.5, 3.0),
                    "Omega": rng.uniform(0.2, 4.0),
                    "J": rng.uniform(0.0, 2.0),
                }
                kind = "battery"
            params["t_max"] = rng.uniform(0.5, 2.0)
            inputs.append((f"{k:03d}-{kind}", kind, params))
        return inputs

    def _curve(self, kind, prm):
        sc = self.scenarios
        grid = self.dynamics.TimeGrid(prm["t_max"], self.n_steps)
        if kind == "modular":
            curve = sc.run_modular_scenario(
                sc.EntanglementScenario(p=prm["p"], theta=prm["theta"], mu3=0.0, grid=grid)
            )
        else:
            curve = sc.run_battery_scenario(
                sc.BatteryScenario(
                    omega=prm["omega"], big_omega=prm["Omega"], j=prm["J"], grid=grid
                )
            )
        return {
            "T": curve.grid.points,
            "mean": curve.mean_values,
            "t_qslo": curve.t_qslo,
            "t_sqslo": curve.t_sqslo,
            "r_bar": curve.r_bar,
            "quad_error": curve.quad_error,
        }

    def run_pass(self, inputs, workdir):
        return [_timed(key, self._curve, kind, prm) for key, kind, prm in inputs]

    def check(self, inputs, op: Op):
        kind, prm = next((k, p) for key, k, p in inputs if key == op.key)
        c = op.raw
        ts = c["T"]
        problems = checks.hierarchy(ts, c["t_qslo"], c["t_sqslo"], c["quad_error"])
        problems += checks.saturation(ts, c["t_sqslo"])
        if kind == "modular":
            analytic = [self.scenarios.modular_closed_form(prm["p"], prm["theta"], t)[1] for t in ts]
            problems += checks.closed_form("modular_closed_form", c["mean"], analytic)
        else:
            analytic = [self.scenarios.ergotropy_closed_form(prm["omega"], prm["Omega"], t) for t in ts]
            problems += checks.closed_form("ergotropy_closed_form", c["mean"], analytic)
        digest = checks.array_digest(ts, c["mean"], c["t_qslo"], c["t_sqslo"], c["r_bar"], [c["quad_error"]])
        return digest, problems


class Verify:
    """``run_verify`` at 400 steps with the run's seed; one operation is one
    check."""

    name = "verify"
    n_steps = 400
    uses_seed = True

    def load(self):
        self.verify = importlib.import_module("qslbound.verify")

    def make_inputs(self, seed: int):
        return seed

    def run_pass(self, inputs, workdir):
        # One operation is one check.  Checks run inside run_verify, so each
        # one's latency is the time between consecutive CheckResult
        # constructions (the first measured from the call).
        mod = self.verify
        real = mod.CheckResult
        stamps = []

        def stamped(*args, **kwargs):
            result = real(*args, **kwargs)
            stamps.append(time.perf_counter())
            return result

        mod.CheckResult = stamped
        t0 = time.perf_counter()
        try:
            results = mod.run_verify(n_steps=self.n_steps, seed=inputs)
        except Exception as exc:
            return [Op("run_verify", t0, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")]
        finally:
            mod.CheckResult = real
        if len(stamps) != len(results):
            return [Op("run_verify", t0, time.perf_counter() - t0, error="check count mismatch")]
        starts = [t0] + stamps[:-1]
        return [
            Op(r.name, start, end - start, (r.status, r.detail))
            for r, start, end in zip(results, starts, stamps)
        ]

    def check(self, inputs, op: Op):
        status, detail = op.raw
        return checks.sha256(f"{status}|{detail}".encode()), checks.verify_status(status)


WORKLOADS = {w.name: w for w in (Figures(), Sweep(), Verify())}
