"""Output checks shared by the benchmark and its self-test.

Every check returns a list of problems; an empty list means the output is
correct.  A non-empty list makes the operation count as failed.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# Floor of the hierarchy tolerance; the tolerance itself is
# max(HIERARCHY_FLOOR, 2 * quad_error) of the curve being checked.
HIERARCHY_FLOOR = 1e-6
SATURATION_RTOL = 0.02
SATURATION_FROM_T = 0.05
FIG2_MIN_RATIO = 1.05
CLOSED_FORM_ATOL = 1e-8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def hierarchy(ts, t_qslo, t_sqslo, quad_error: float) -> list[str]:
    """T >= t_sqslo >= t_qslo on every prefix, within the quadrature tolerance."""
    tol = max(HIERARCHY_FLOOR, 2.0 * quad_error)
    problems = []
    if not (np.all(np.isfinite(t_qslo)) and np.all(np.isfinite(t_sqslo))):
        return ["non-finite bound values"]
    over = float(np.max(t_sqslo - ts))
    if over > tol:
        problems.append(f"t_sqslo exceeds T by {over:.3e} (tol {tol:.1e})")
    under = float(np.max(t_qslo - t_sqslo))
    if under > tol:
        problems.append(f"t_qslo exceeds t_sqslo by {under:.3e} (tol {tol:.1e})")
    return problems


def saturation(ts, t_sqslo) -> list[str]:
    """t_sqslo within 2% of T from T = 0.05 on."""
    mask = ts >= SATURATION_FROM_T
    rel = float(np.max(np.abs(t_sqslo[mask] - ts[mask]) / ts[mask]))
    if rel > SATURATION_RTOL:
        return [f"t_sqslo off the diagonal by {rel:.2%}"]
    return []


def closed_form(name: str, numeric, analytic) -> list[str]:
    err = float(np.max(np.abs(np.asarray(numeric) - np.asarray(analytic))))
    if not err <= CLOSED_FORM_ATOL:
        return [f"mean_values deviate from {name} by {err:.3e}"]
    return []


def parse_csv(text: str):
    """(metadata, columns) of a qslbound curve CSV; raises ValueError."""
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    if header is None or not rows:
        raise ValueError("no header or no rows")
    data = np.array(rows)
    if data.shape[1] != len(header):
        raise ValueError("ragged rows")
    return meta, {name: data[:, k] for k, name in enumerate(header)}


def figure_csv(preset: str, text: str) -> list[str]:
    """Hierarchy for every preset, saturation for fig5-fig8, fig2's gain."""
    try:
        meta, cols = parse_csv(text)
        quad_error = float(meta["quad_error"])
        ts, q, s = cols["T"], cols["t_qslo"], cols["t_sqslo"]
    except (KeyError, ValueError, IndexError) as exc:
        return [f"unreadable CSV: {exc}"]
    problems = hierarchy(ts, q, s, quad_error)
    if preset in ("fig5", "fig6", "fig7", "fig8"):
        problems += saturation(ts, s)
    if preset == "fig2":
        ratio = float(s[-1] / q[-1]) if q[-1] > 0.0 else float("nan")
        if not ratio > FIG2_MIN_RATIO:
            problems.append(f"fig2 t_sqslo/t_qslo at T={ts[-1]:g} is {ratio:.4f}")
    return problems


def verify_status(status: str) -> list[str]:
    """A verify check fails only on 'fail'; 'known-discrepancy' is bookkept."""
    return ["verify check reported fail"] if status == "fail" else []


class References:
    """Digest of each operation's output in the first run of the set.

    The first run in a checkout stores its digests under ``path``; later
    runs, and later passes of the same run, must reproduce them byte for
    byte.  The file name carries the workload, the seed and a fingerprint
    of the program's sources, so changed code never meets stale digests.
    """

    def __init__(self, path):
        self.path = path
        self.known: dict[str, str] = {}
        self._stored = path is not None and path.exists()
        if self._stored:
            self.known = json.loads(path.read_text(encoding="utf-8"))

    def compare(self, key: str, digest: str) -> list[str]:
        ref = self.known.setdefault(key, digest)
        if ref != digest:
            return [f"output differs from the first run of the set ({digest[:12]} != {ref[:12]})"]
        return []

    def store(self) -> None:
        if self._stored or self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
        self._stored = True
