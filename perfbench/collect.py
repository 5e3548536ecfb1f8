"""Run the benchmark over several seeds and summarise the spread.

Usage (from the repository root):

    python3 perfbench/collect.py --seeds 1-10 [--workloads figures,sweep,verify]
        [--seconds S] [--trace-seed N] [--out summary.json]

For each workload it runs ``run.py`` once per seed, one run after the
other, and reports for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json.  With ``--trace-seed`` it
adds one traced run per workload and keeps its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = [bench_run(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {"seeds": args.seeds, "correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, failed {entry['failed']} of {entry['attempted']} ops")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": values,
            }
            print(f"  {name:<14} median {med:<12.6g} spread {spread:7.2%}  bound {bound:.0%}"
                  f"{'  (wider than a third of the bound)' if spread > bound / 3 else ''}")
        if args.trace_seed is not None:
            traced = bench_run(workload, args.trace_seed, args.seconds, 1)
            record = json.loads((ROOT / ".perfbench" / "results" / f"{workload}-seed{args.trace_seed}-trace1.json").read_text())
            entry["per_layer"] = {"seed": args.trace_seed, "correct": traced["correct"],
                                  "metrics": traced["metrics"], "env": record["env"],
                                  "table": [dict(zip(("layer", "self_s", "calls", "us_per_sample", "raised"), row))
                                            for row in record["table"]]}
        summary[workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
