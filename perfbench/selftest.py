"""Self-test: every output check of the benchmark can fail.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs a few real operations of each workload, confirms that their outputs
pass, then corrupts copies of those outputs and confirms that each
corruption makes the operation count as failed, through the same code
path the benchmark uses.  Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

import run
from checks import References


def _rewrite_csv(path, edit_row):
    """Apply ``edit_row(cells, index, n_rows)`` to the data rows of a curve CSV."""
    lines = path.read_text(encoding="utf-8").split("\n")
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    rows = range(header + 1, len(lines) - 1)
    for k in rows:
        cells = lines[k].split(",")
        edit_row(cells, k - header - 1, len(rows))
        lines[k] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def _swap(cells, k, n):
    cells[2], cells[3] = cells[3], cells[2]


def _push_last(cells, k, n):
    if k == n - 1:
        cells[3] = repr(1.01 * float(cells[0]))


def _perturb_mean(cells, k, n):
    if k == n // 2:
        cells[1] = repr(float(cells[1]) + 1e-6)


def _flip_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def figures_cases(wl):
    inputs = [entry for entry in wl.make_inputs(0) if entry[0] in ("fig2", "fig5")]
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.STATE / "tmp"))
    try:
        ops = wl.run_pass(inputs, workdir)
        refs = References(None)
        yield "control", ops, refs, inputs
        edits = {
            "swap t_qslo/t_sqslo": lambda p: _rewrite_csv(p, _swap),
            "t_sqslo 1% above T": lambda p: _rewrite_csv(p, _push_last),
            "mean_value + 1e-6": lambda p: _rewrite_csv(p, _perturb_mean),
            "flip one CSV byte": _flip_byte,
        }
        for label, edit in edits.items():
            for op in ops:
                csv = workdir / f"{op.key}.csv"
                original = csv.read_bytes()
                edit(csv)
                yield label, [op], refs, inputs
                csv.write_bytes(original)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def sweep_cases(wl):
    inputs = wl.make_inputs(0)[:2]
    ops = wl.run_pass(inputs, None)
    refs = References(None)
    yield "control", ops, refs, inputs

    def swap(c):
        c["t_qslo"], c["t_sqslo"] = c["t_sqslo"], c["t_qslo"]

    def push(c):
        c["t_sqslo"][-1] = 1.01 * c["T"][-1]

    def perturb(c):
        c["mean"][c["mean"].size // 2] += 1e-6

    for label, edit in (
        ("swap t_qslo/t_sqslo", swap),
        ("t_sqslo 1% above T", push),
        ("mean_value + 1e-6", perturb),
    ):
        for op in ops:
            bad = copy.deepcopy(op)
            edit(bad.raw)
            yield label, [bad], refs, inputs


def verify_cases(wl):
    ops = wl.run_pass(0, None)
    refs = References(None)
    yield "control", ops, refs, 0
    for op in ops[:3]:
        bad = copy.deepcopy(op)
        bad.raw = ("fail", bad.raw[1])
        yield "verify check returns fail", [bad], refs, 0


def main() -> int:
    (run.STATE / "tmp").mkdir(parents=True, exist_ok=True)
    missed = 0
    for name, cases in (("sweep", sweep_cases), ("figures", figures_cases), ("verify", verify_cases)):
        wl, _ = run.setup(name, 0)
        for label, ops, refs, inputs in cases(wl):
            for op in ops:
                problems = run.op_problems(wl, inputs, op, refs)
                expected = bool(problems) != (label == "control")
                missed += not expected
                if label == "control":
                    verdict = "ok" if expected else "UNEXPECTED FAILURE"
                else:
                    verdict = "caught" if expected else "MISSED"
                detail = problems[0] if problems else ""
                print(f"{verdict:<18} {name:<8} {label:<26} {op.key:<32} {detail}")
    print(f"self-test: {'every corruption caught' if not missed else f'{missed} problems'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
