"""Deterministic CSV and SVG renderers for bound curves.

CSV floats carry 17 significant digits, so values round-trip exactly and
identical runs emit byte-identical files.  Rows are formatted a block of
SAMPLE_BLOCK rows at a time, with one %-format per block; '%.17g' of a
Python float is the same string as its f"{x:.17g}", so the text is the same
as one formatted field by field.

An SVG draws each bound as the envelope of its pixel columns: the first,
lowest, highest and last sample of every column of the plot, in time
order.  Every other sample lies between a kept column minimum and maximum,
so the picture is the full curve's at pixel resolution.  The dotted
diagonal T is a straight line, drawn from the first sample to the last.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .bounds import BoundCurve
from .dynamics import SAMPLE_BLOCK

_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def render_csv(curve: BoundCurve, metadata: list[tuple[str, str]]) -> str:
    """CSV text: '#' metadata lines, a header row, one row per grid point.

    warnings_count per row counts excluded samples with time <= T.
    """
    parts = [f"# {key}: {value}\n" for key, value in metadata]
    parts.append("T,mean_value,t_qslo,t_sqslo,r_bar,warnings_count\n")
    ts = curve.grid.points
    warn_times = np.sort(np.array([t for t, _ in curve.warnings]))
    counts = np.searchsorted(warn_times, ts, side="right")
    columns = (ts, curve.mean_values, curve.t_qslo, curve.t_sqslo, curve.r_bar, counts)
    for start in range(0, ts.size, SAMPLE_BLOCK):
        block = [c[start : start + SAMPLE_BLOCK].tolist() for c in columns]
        flat = tuple(chain.from_iterable(zip(*block)))
        parts.append((_CSV_ROW * len(block[0])) % flat)
    return "".join(parts)


def _column_envelope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices, in time order, of the first, lowest, highest and last sample
    of each pixel column floor(x); x must not decrease.  A column whose
    extreme is NaN keeps only its first and last sample."""
    column = np.floor(x)
    first = np.concatenate(([True], column[1:] != column[:-1]))
    starts = np.flatnonzero(first)
    which = np.cumsum(first) - 1
    kept = [starts, np.append(starts[1:] - 1, x.size - 1)]
    for reduce in (np.minimum, np.maximum):
        hits = np.flatnonzero(y == reduce.reduceat(y, starts)[which])
        kept.append(hits[np.unique(which[hits], return_index=True)[1]])
    return np.unique(np.concatenate(kept))


def render_svg(curve: BoundCurve, title: str) -> str:
    """Minimal self-contained line chart with a dotted diagonal reference."""
    width, height, margin = 640, 480, 60
    ts = curve.grid.points
    t_hi = float(ts[-1])
    bounds = np.concatenate((curve.t_sqslo, curve.t_qslo))
    y_hi = max(float(np.max(bounds, where=np.isfinite(bounds), initial=t_hi)), 1e-12)
    x = margin + (width - 2 * margin) * ts / t_hi

    def sy(y):
        return height - margin - (height - 2 * margin) * y / y_hi

    def polyline(keep, values, color, dash=""):
        keep = keep[np.isfinite(values[keep])]  # a non-finite sample is left out
        xy = np.column_stack((x[keep], sy(values[keep])))
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{extra} points="{pts}"/>'
        )

    ends = np.array([0, ts.size - 1])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}"'
        f' height="{height - 2 * margin}" fill="none" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2:.0f}" y="{height - 16}" text-anchor="middle" font-size="12">T</text>',
        f'<text x="16" y="{height / 2:.0f}" font-size="12" transform="rotate(-90 16 {height / 2:.0f})">bound</text>',
        polyline(ends, ts, "#999999", dash="4 4"),
        polyline(_column_envelope(x, curve.t_qslo), curve.t_qslo, "#1f77b4"),
        polyline(_column_envelope(x, curve.t_sqslo), curve.t_sqslo, "#d62728"),
        f'<text x="{width - margin - 4}" y="{margin + 16}" text-anchor="end" font-size="11" fill="#1f77b4">t_qslo</text>',
        f'<text x="{width - margin - 4}" y="{margin + 32}" text-anchor="end" font-size="11" fill="#d62728">t_sqslo</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
