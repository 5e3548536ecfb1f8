"""qslbound benchmark: end-to-end metrics, or a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload figures|sweep|verify --seed N \\
        --seconds S --trace 0|1

The command runs the program from ``src/`` of the checkout it sits in.  It
starts several fresh processes, one after the other, that each import
qslbound and build the workload's inputs; their set-up times give
``setup_s``.  The last of them is the worker: it runs whole passes of the
workload for about S seconds (at least two), checks every output outside
the timed region, and reports.  With ``--trace 1`` the worker spends half the time
untraced and half with the outside-in tracer installed, and reports the
per-layer table instead of the end-to-end metrics.

End-to-end times are scaled to a nominal machine speed with the reference
kernel of ``reference.py``, timed in the same process: right after set-up
in every process, and on a timer throughout every untraced pass.  The raw
times are printed beside them and kept in the result record.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The full record (environment, every metric, the per-layer table)
also goes to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOAD_NAMES = ("figures", "sweep", "verify")

# Fresh processes per run that measure set-up; the worker is one more.
SETUP_PROBES = 8
# Reference-kernel calls per set-up process, for the set-up speed factor.
CALIBRATION_REPS = 20
RUN_DEADLINE_S = 170.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "probe", "worker"), default="main", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- child processes --------------------------------------------------------


def setup(workload: str, seed: int):
    """Import the program and build the workload's inputs (timed as set-up)."""
    sys.path.insert(0, str(SRC))
    import qslbound

    origin = Path(qslbound.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"qslbound imported from {origin}, not from {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    wl.load()
    return wl, wl.make_inputs(seed)


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile (at most 90) with at least ten samples beyond it;
    the median when there are too few samples for any higher one."""
    return max(50.0, min(90.0, 100.0 * (1.0 - 10.0 / n)))


class CurveLog:
    """Counts grid samples, excluded samples and the worst quadrature error
    of every BoundCurve the program builds, by wrapping the curve class's
    validation hook (one call per curve, in traced and untraced runs)."""

    def __init__(self):
        self.samples = 0
        self.excluded = 0
        self.quad_error_max = 0.0

    def install(self):
        from qslbound.bounds import BoundCurve

        original = BoundCurve.__dict__["__post_init__"]
        log = self

        def __post_init__(curve):
            original(curve)
            log.samples += curve.grid.points.size
            log.excluded += len(curve.warnings)
            log.quad_error_max = max(log.quad_error_max, float(curve.quad_error))

        BoundCurve.__post_init__ = __post_init__

    def snapshot(self):
        return self.samples, self.excluded


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qslbound").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def op_problems(wl, inputs, op, refs) -> list[str]:
    if op.error is not None:
        return [op.error]
    digest, problems = wl.check(inputs, op)
    if digest is not None:
        problems = problems + refs.compare(op.key, digest)
    return problems


def run_passes(wl, inputs, seconds, refs, log, min_passes, tracer=None):
    """Whole passes, at least ``min_passes``, until the next one would
    overrun ``seconds``.  Untraced passes sample the reference kernel; the
    kernel's time is left out of wall, CPU and operation times, and each
    pass and operation gets its speed factor."""
    passes = []
    start = time.monotonic()
    while True:
        workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=STATE / "tmp"))
        before = log.snapshot()
        sampler = reference.Sampler() if tracer is None else None
        c0 = time.process_time()
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            try:
                with sampler or contextlib.nullcontext():
                    ops = wl.run_pass(inputs, workdir)
            finally:
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            cpu = time.process_time() - c0
            calls = sampler.calls if sampler else []
            if sampler and not calls:  # the pass ended before the first tick
                calls = reference.calibrate(CALIBRATION_REPS)
            kernel_s = reference.inside(calls, t0, t0 + wall)
            wall -= kernel_s
            cpu -= kernel_s
            spans = [(op.start_s, op.start_s + op.latency_s) for op in ops]
            for op, (a, b) in zip(ops, spans):
                op.latency_s -= reference.inside(calls, a, b)
            failures = [f"{op.key}: {'; '.join(p)}" for op in ops if (p := op_problems(wl, inputs, op, refs))]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        after = log.snapshot()
        if not passes and not failures:
            refs.store()
        passes.append(
            {
                "wall_s": wall,
                "scale": reference.scale(calls) if calls else None,
                "cpu_s": cpu,
                "latencies_s": [op.latency_s for op in ops],
                "op_scales": [reference.scale(calls, a - reference.LOCAL_S, b + reference.LOCAL_S)
                              for a, b in spans] if calls else None,
                "ops": len(ops),
                "failures": failures,
                "samples": after[0] - before[0],
                "excluded": after[1] - before[1],
            }
        )
        elapsed = time.monotonic() - start
        if len(passes) >= min_passes and elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
            return passes


def end_to_end(passes) -> dict:
    """Pass wall times, each scaled by its pass's reference-kernel factor,
    reduce to their median; op latencies, each scaled by the factor of the
    kernel calls near it, are pooled over all passes of the run.  Notes give
    the raw values."""
    walls = [p["wall_s"] * p["scale"] for p in passes]
    lat_ms = [x * 1e3 * f for p in passes for x, f in zip(p["latencies_s"], p["op_scales"])]
    raw_lat_ms = [x * 1e3 for p in passes for x in p["latencies_s"]]
    wall = statistics.median(walls)
    raw_wall = statistics.median(p["wall_s"] for p in passes)
    samples = statistics.median(p["samples"] for p in passes)
    q = tail_percentile(len(lat_ms))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    scales = ", ".join(f"{p['scale']:.3f}" for p in passes)
    return {
        "wall_s": (wall, "s", f"median of {len(walls)} passes; raw {raw_wall:.4g} s, speed factors {scales}"),
        "samples_per_s": (samples / wall, "1/s", f"{samples:.0f} grid samples per pass; raw {samples / raw_wall:.5g}"),
        "op_p50_ms": (percentile(lat_ms, 50.0), "ms",
                      f"p50 of {len(lat_ms)} ops; raw {percentile(raw_lat_ms, 50.0):.5g}"),
        "op_p90_ms": (percentile(lat_ms, q), "ms",
                      f"p{q:.4g} of {len(lat_ms)} ops; raw {percentile(raw_lat_ms, q):.5g}"),
        "peak_rss_mb": (rss_mb, "MB", "worker process maximum resident set"),
    }


# Per-layer metrics that are zero on some workload (a layer the workload
# never calls) are printed in the table but kept out of the JSON line,
# which carries only values that are measured on every workload.
CORE_LAYERS = ("linalg", "states", "measures", "dynamics", "quadrature", "bounds", "scenarios")
NAMED_CALLS = (
    "linalg.require_hermitian",
    "linalg.hermitian_eig",
    "linalg.matrix_function",
    "states.require_state",
    "states.moments",
    "dynamics.expectation_derivative",
    "bounds.correction_r",
    "quadrature.cumulative_simpson",
    "emit.fmt",
)


def per_layer(untraced, traced, tracer, log, ops_per_pass) -> tuple[dict, list]:
    from tracer import LAYERS

    n = len(traced)
    samples = statistics.median(p["samples"] for p in traced)
    traced_wall = sum(p["wall_s"] for p in traced) / n
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    layers = tracer.layer_totals()
    table = []
    metrics = {}
    self_sum = 0.0
    for name in LAYERS:
        self_s = layers[name]["self_s"] / n
        calls = layers[name]["calls"] / n
        us = self_s / samples * 1e6 if samples else 0.0
        self_sum += self_s
        table.append((name, self_s, calls, us, layers[name]["raised"] / n))
        metrics[f"{name}.calls"] = (calls, "count", "wrapped calls per pass")
        if name in CORE_LAYERS:
            metrics[f"{name}.self_s"] = (self_s, "s", "self time per pass")
            metrics[f"{name}.us_per_sample"] = (us, "us", "self time per grid sample")
    unattributed = traced_wall - tracer.top_s / n
    table.append(("(benchmark)", unattributed, 0, unattributed / samples * 1e6 if samples else 0.0, 0))
    for name in NAMED_CALLS:
        metrics[f"{name}.calls"] = (tracer.calls(name) / n, "count", "calls per pass")
    eig = tracer.calls("linalg.hermitian_eig") / n
    metrics.update(
        {
            "linalg.hermitian_eig.calls_per_op": (eig / ops_per_pass, "count", "per operation"),
            "emit.bytes": (tracer.result_bytes("emit.") / n, "count", "bytes rendered by emit per pass"),
            "bounds.raised": (layers["bounds"]["raised"] / n, "count", "exceptions leaving bounds per pass"),
            "bounds.excluded_samples": (
                statistics.median(p["excluded"] for p in traced), "count", "samples excluded from bound integrals per pass"),
            "quadrature.quad_error_max": (log.quad_error_max, "1", "largest quad_error of any curve"),
            "samples": (samples, "count", "grid samples per pass"),
            "process.cpu_s": (statistics.median(p["cpu_s"] for p in untraced), "s", "CPU time per untraced pass"),
            "bench.self_s": (unattributed, "s", "benchmark time outside any layer span, per pass"),
            "trace.wall_s": (traced_wall, "s", "traced pass wall time (mean)"),
            "trace.accounted_frac": ((self_sum + unattributed) / traced_wall, "1", "(layer self times + bench.self_s) / trace.wall_s"),
            "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "1", f"vs untraced median {untraced_wall:.4f} s"),
        }
    )
    return metrics, table


def worker(args) -> int:
    wl, inputs = setup(args.workload, args.seed)
    ready = time.monotonic()
    calibration = reference.calibrate(CALIBRATION_REPS)
    import numpy as np

    from checks import References
    from tracer import Tracer

    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    seed_key = f"seed{args.seed}" if wl.uses_seed else "fixed"
    env = environment(np)
    refs = References(STATE / "state" / f"{wl.name}-{seed_key}-{env['source_sha256'][:16]}.json")
    log = CurveLog()
    log.install()
    out = {"ready": ready, "kernel_s": [b - a for a, b in calibration], "env": env}
    if args.trace:
        untraced = run_passes(wl, inputs, args.seconds / 2, refs, log, 1)
        tracer = Tracer()
        traced = run_passes(wl, inputs, args.seconds / 2, refs, log, 1, tracer)
        passes = untraced + traced
        metrics, table = per_layer(untraced, traced, tracer, log, traced[0]["ops"])
        out["table"] = table
        out["spans"] = {k: v for k, v in sorted(tracer.stats.items())}
    else:
        # Two passes at least, so that a workload whose pass is longer than
        # half the run (figures) still reports a median over a longer window
        # and checks byte-identity within the run.
        passes = run_passes(wl, inputs, args.seconds, refs, log, 2)
        metrics = end_to_end(passes)
    out["metrics"] = metrics
    out["attempted"] = sum(p["ops"] for p in passes)
    out["failures"] = [f for p in passes for f in p["failures"]]
    out["passes"] = len(passes)
    print(json.dumps(out))
    return 0


def environment(np) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')} / lapack {deps['lapack']['name']}"
    except (KeyError, TypeError, ValueError):
        pass
    threads = None
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            threads = next((int(l.split()[1]) for l in fh if l.startswith("Threads:")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "source_sha256": source_fingerprint(),
    }


# -- main process ------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none (not a git checkout)"


def spawn(args, role: str, deadline: float) -> tuple[float, dict]:
    """Start one child, wait for it, return (raw set-up seconds, its JSON)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} process did not finish before the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{role} process printed no result")
    result = json.loads(lines[-1])
    return result["ready"] - t0, result


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.role == "probe":
        setup(args.workload, args.seed)
        ready = time.monotonic()
        calibration = reference.calibrate(CALIBRATION_REPS)
        print(json.dumps({"ready": ready, "kernel_s": [b - a for a, b in calibration]}))
        return 0
    if args.role == "worker":
        return worker(args)

    if not (SRC / "qslbound" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'qslbound'}", file=sys.stderr)
        return 2
    load = os.getloadavg()
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        children = [spawn(args, "probe", deadline) for _ in range(SETUP_PROBES)]
        children.append(spawn(args, "worker", deadline))
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    res = children[-1][1]
    setups = [raw for raw, _ in children]
    # One factor for the run's set-ups, from the kernel calls of all its
    # processes: set-up is short, and one process's calls are too few.
    kernel_s = [dt for _, child in children for dt in child["kernel_s"]]
    setup_scale = reference.NOMINAL_S * len(kernel_s) / sum(kernel_s)

    metrics = res["metrics"]
    if not args.trace:
        raw_setup = statistics.median(setups)
        metrics = {"setup_s": (raw_setup * setup_scale, "s",
                               f"median of {len(setups)} fresh processes; raw {raw_setup:.4g} s, "
                               f"speed factor {setup_scale:.3f}"),
                   **metrics}
    attempted, failed = res["attempted"], len(res["failures"])
    env = dict(res["env"], git=git_sha(), loadavg_start=load, seed=args.seed)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={res['passes']} ops={attempted}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_frac':<38} {failed / attempted:>14.6g} {'1':<6} {failed} of {attempted} ops failed")
    for line in res["failures"][:20]:
        print(f"  FAILED {line}")
    if args.trace:
        print(f"  {'layer':<16} {'self_s':>10} {'calls':>12} {'us/sample':>10} {'raised':>8}")
        for name, self_s, calls, us, raised in res["table"]:
            print(f"  {name:<16} {self_s:>10.4f} {calls:>12.0f} {us:>10.3f} {raised:>8.0f}")
        total = sum(row[1] for row in res["table"])
        print(f"  {'sum':<16} {total:>10.4f}   = trace.wall_s {metrics['trace.wall_s'][0]:.4f} s per pass")

    record = {"workload": args.workload, "trace": args.trace, "env": env, "setups_s": setups,
              "setup_scale": setup_scale,
              "metrics": metrics, "attempted": attempted, "failures": res["failures"]}
    if args.trace:
        record["table"] = res["table"]
        record["spans"] = res["spans"]
    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
