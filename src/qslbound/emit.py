"""Deterministic CSV and SVG renderers for bound curves.

CSV floats carry 17 significant digits, so values round-trip exactly and
identical runs emit byte-identical files.  Each field is '%.17g' of its
float.  A numpy kernel writes the fields SAMPLE_BLOCK rows at a time, in
fixed notation only: for 1e-4 <= |x| < 1e15 and k = floor(log10|x|) it
rounds the exact product |x| * 10**(16 - k) (Dekker) to the integer N, whose
17 digits it certifies when the product is at least 10**16, N < 10**17 and
the dropped fraction is more than 1e-9 from one half.  Every other field
(zeros, NaN, infinities, values out of range, a wrong k, ties) is '%.17g'
itself.  N's digits are its five 4-digit groups, each one uint32 word of
ASCII from a 10,000-entry table; the same groups give the count of digits
kept once trailing zeros go, through a table of each group value's last
non-zero digit.  A byte layout per (k, kept digits) then gathers the
field's text from those words, its sign, '0' and '.'.  The warnings_count
column is one lookup in a table of 0..9999 when every count of a block is
below 10**4, and otherwise the float kernel's text of the counts: '%.17g'
of an integer below 10**17 is its '%d'.  A CSV may hold every s-th grid
point only (``_csv_stride`` gives the default grid's s, from the SVG's
frame); each row it writes is the row it would write at s = 1.

An SVG draws each bound as the envelope of its pixel columns: the first,
lowest, highest and last sample of every column of the plot, in time
order.  Every other sample lies between a kept column minimum and maximum,
so the picture is the full curve's at pixel resolution.  The dotted
diagonal T is a straight line, drawn from the first sample to the last.
Each point is '%.2f,%.2f' of its pixel coordinates, from a kernel of the
same parts: it rounds the exact v * 100 to N, certified for 0 <= v < 1e4
when N < 10**6 and the dropped fraction is more than 1e-9 from one half.
Every other field (ties, negative values, values out of range) is '%.2f'.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .bounds import BoundCurve
from .dynamics import SAMPLE_BLOCK

# A field's text is at most 24 bytes ('%.17g' of -2.2250738585072014e-308).
_WIDTH = 24
# A certified field's source bytes, six uint32 words: 20 digits (N's 17
# from column 3), then its sign ('-' or NUL), '0', '.' and a NUL.
_SIGN, _ZERO, _POINT, _NUL = 20, 21, 22, 23
_FRAME = 640, 480, 60  # an SVG's width, height and plot margin, in pixels


def _csv_stride(n_steps: int) -> int:
    """The largest divisor s of n_steps with n_steps / s >= 1,040, two written
    samples per pixel column of the plot; 1 below 2,080 steps."""
    width, _, margin = _FRAME
    most = n_steps // (2 * (width - 2 * margin))
    return max((s for s in range(1, most + 1) if n_steps % s == 0), default=1)


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _two_product(a, b):
    """p = fl(a * b) and e with p + e = a * b exactly (Dekker, Veltkamp)."""
    p, ca, cb = a * b, 134217729.0 * a, 134217729.0 * b  # 2**27 + 1
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


@cache  # built on first use, which keeps them out of the import
def _tables() -> tuple[np.ndarray, ...]:
    """0000..9999 as four ASCII digits to a uint32; for each of N's digit
    groups 1-4 and its 10,000 values, how many of N's digits end at the
    group's last non-zero digit (0 for 0000); the last source word of a
    positive field; 10**(16 - k) for k = -4..14; the source column of each
    text byte of a certified field, 1e-4 <= |x| < 1e15, per (k, kept
    digits): sign, then fixed notation; and 0..9999 (NUL leading zeros),
    '.00'..'.99'."""
    ascii = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
    zeros = ascii == ord("0")
    trailing = np.logical_and.accumulate(zeros[:, ::-1], axis=1).sum(axis=1)
    group_kept = np.where(trailing < 4, np.arange(5, 18, 4)[:, None] - trailing, 0).astype(np.uint8)
    lead = np.logical_and.accumulate(zeros, axis=1) & (np.arange(4) < 3)
    ints = np.where(lead, 0, ascii).view(np.uint32)
    cents = np.frombuffer(b"".join(b".%02d\0" % c for c in range(100)), np.uint32)
    tail = np.frombuffer(b"\0" b"0.\0", np.uint32)  # with a NUL sign
    tens = np.array([float(10**s) for s in range(20, 1, -1)])  # 16 - k, each exact
    k, kept = np.arange(-4, 15)[:, None, None], np.arange(1, 18)[:, None]
    q = np.arange(-1, _WIDTH - 1)  # bytes after the sign
    whole = np.maximum(k, 0) + 1  # the integer part's bytes; then a point and the digits
    frac = np.maximum(kept - 1 - k, 0)  # after it, which for k < 0 start in the zeros before N
    end = whole + frac + (frac > 0)
    layout = np.select(
        [q < 0, q < whole, (q == whole) & (q < end), q < end],
        [_SIGN, np.where(k < 0, _ZERO, 3 + q), _POINT, 3 + k + q - whole],
        _NUL,
    )
    return (ascii.view(np.uint32).ravel(), group_kept.ravel(), tail, tens,
            layout.reshape(-1, _WIDTH), ints.ravel(), cents)


def _groups(n: np.ndarray) -> np.ndarray:
    """(5, n.size) intp: the 4-digit groups of 0 <= n < 10**19, n // 10**16 first."""
    groups = np.empty((5, n.size), np.intp)
    groups[4] = n
    for j in range(4, 0, -1):
        np.floor_divide(groups[j], 10**4, out=groups[j - 1])
        groups[j] -= groups[j - 1] * 10**4
    return groups


def _float_text(x: np.ndarray) -> np.ndarray:
    """(x.size, _WIDTH) bytes: '%.17g' % x per field, NUL-padded."""
    ax = np.abs(x)
    inside = (ax >= 1e-4) & (ax < 1e15)
    ax = np.where(inside, ax, 1.0)
    row = np.clip(np.floor(np.log10(ax)), -4, 14).astype(np.intp) + 4  # k's table row
    ascii, group_kept, tail, tens, layout, _, _ = _tables()
    prod, frac = _two_product(ax, tens.take(row))
    whole = np.floor(frac)
    frac -= whole  # now the fraction that rounding drops
    n = prod.astype(np.int64) + whole.astype(np.int64)
    certified = inside & (n >= 10**16) & (np.abs(frac - 0.5) > 1e-9)
    n += frac > 0.5
    certified &= n < 10**17
    groups = _groups(n)
    # Trailing zeros go: N's digits up to its last non-zero group's last non-zero digit.
    kept = np.max(group_kept.take(groups[1:] + np.arange(0, 40000, 10000)[:, None]), axis=0, initial=1)
    src = np.empty((x.size, 6), np.uint32)
    src[:, :5] = ascii.take(groups).T
    src[:, 5:] = tail
    src = src.view(np.uint8)
    src[:, _SIGN] = (x < 0) * ord("-")
    index = layout.take(row * 17 + kept - 1, axis=0)
    index += np.arange(0, src.size, src.shape[1])[:, None]
    text = src.take(index)
    if not certified.all():
        fallback = ["%.17g" % v for v in x[~certified].tolist()]
        text[~certified] = np.array(fallback, f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return text


def _points(xy: np.ndarray) -> str:
    """'%.2f,%.2f' of each (x, y) row, the rows joined by spaces."""
    v = xy.ravel()
    inside = ~np.signbit(v) & (v < 1e4)
    prod, tail = _two_product(np.where(inside, v, 0.0), 100.0)
    n = np.rint(prod)
    certified = inside & (n < 1e6) & (np.abs(np.abs(prod - n + tail) - 0.5) > 1e-9)
    fallback = ["%.2f" % f for f in v[~certified].tolist()]
    words = max([2, *(len(f) // 4 + 1 for f in fallback)])  # uint32s per field and separator
    *_, ints, cents = _tables()
    whole, cent = np.divmod(np.where(certified, n, 0).astype(np.uint32), 100)
    text = np.zeros((v.size, words), np.uint32)
    text[:, 0], text[:, 1] = ints.take(whole), cents.take(cent)
    text[~certified] = np.array(fallback, f"S{4 * words}").view(np.uint32).reshape(-1, words)
    text = text.view(np.uint8)
    text[0::2, -1], text[1::2, -1] = ord(","), ord(" ")
    return text.tobytes().translate(None, b"\0").decode("ascii")[:-1]


def render_csv(curve: BoundCurve, metadata: list[tuple[str, str]], stride: int = 1) -> str:
    """CSV text: '#' metadata lines, a header row, one row per stride-th grid
    point, each the row it would be at stride 1.

    warnings_count per row counts excluded samples with time <= T.
    """
    parts = [f"# {key}: {value}\n" for key, value in metadata]
    parts.append("T,mean_value,t_qslo,t_sqslo,r_bar,warnings_count\n")
    floats = [c[::stride] for c in (curve.grid.points, curve.mean_values, curve.t_qslo, curve.t_sqslo, curve.r_bar)]
    ts = floats[0]
    warn_times = np.sort(np.array([t for t, _ in curve.warnings]))
    counts = np.searchsorted(warn_times, ts, side="right")
    *_, ints, _ = _tables()
    for start in range(0, ts.size, SAMPLE_BLOCK):
        block = slice(start, start + SAMPLE_BLOCK)
        x = np.stack([c[block] for c in floats], axis=1)
        if counts[block].max() < 10**4:
            count = ints.take(counts[block]).view(np.uint8).reshape(-1, 4)
        else:
            count = _float_text(counts[block].astype(float))
        # Five fields a row, each _WIDTH NUL-padded bytes and a comma, then
        # the NUL-padded count and a newline.
        rows = np.empty((x.shape[0], 5 * (_WIDTH + 1) + count.shape[1] + 1), np.uint8)
        fields = rows[:, : 5 * (_WIDTH + 1)].reshape(-1, 5, _WIDTH + 1)
        fields[:, :, :_WIDTH] = _float_text(x.ravel()).reshape(-1, 5, _WIDTH)
        fields[:, :, _WIDTH] = ord(",")
        rows[:, -1 - count.shape[1] : -1] = count
        rows[:, -1] = ord("\n")
        parts.append(rows.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def _column_envelope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices, in time order, of the first, lowest, highest and last sample
    of each pixel column floor(x); x must not decrease.  A column whose
    extreme is NaN keeps only its first and last sample."""
    column = np.floor(x)
    starts = np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))
    last = np.append(starts[1:] - 1, x.size - 1)
    kept = np.stack((starts, starts, starts, last), axis=1)  # per column: first, min, max, last
    for j, reduce in ((1, np.minimum), (2, np.maximum)):  # the first hit; no hit (NaN): the last
        hit = y == np.repeat(reduce.reduceat(y, starts), last - starts + 1)
        kept[:, j] = np.minimum.reduceat(np.where(hit, np.arange(x.size), x.size), starts).clip(max=last)
    kept[:, 1:3].sort(axis=1)
    kept = kept.ravel()
    return kept[np.concatenate(([True], kept[1:] != kept[:-1]))]


def _polylines(curve: BoundCurve) -> tuple[np.ndarray, ...]:
    """The (n, 2) pixel coordinates render_svg draws, non-finite samples left
    out: the diagonal T, then the column envelopes of t_qslo and t_sqslo."""
    width, height, margin = _FRAME
    ts = curve.grid.points
    t_hi = float(ts[-1])
    bounds = np.concatenate((curve.t_sqslo, curve.t_qslo))
    y_hi = max(float(np.max(bounds, where=np.isfinite(bounds), initial=t_hi)), 1e-12)
    x = margin + (width - 2 * margin) * ts / t_hi

    def xy(keep, values):
        keep = keep[np.isfinite(values[keep])]
        return np.column_stack((x[keep], height - margin - (height - 2 * margin) * values[keep] / y_hi))

    return xy(np.array([0, ts.size - 1]), ts), *(xy(_column_envelope(x, y), y) for y in (curve.t_qslo, curve.t_sqslo))


def render_svg(curve: BoundCurve, title: str) -> str:
    """Minimal self-contained line chart with a dotted diagonal reference."""
    width, height, margin = _FRAME
    diagonal, qslo, sqslo = _polylines(curve)

    def polyline(xy, color, dash=""):
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{extra} points="{_points(xy)}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}"'
        f' height="{height - 2 * margin}" fill="none" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2:.0f}" y="{height - 16}" text-anchor="middle" font-size="12">T</text>',
        f'<text x="16" y="{height / 2:.0f}" font-size="12" transform="rotate(-90 16 {height / 2:.0f})">bound</text>',
        polyline(diagonal, "#999999", dash="4 4"),
        polyline(qslo, "#1f77b4"),
        polyline(sqslo, "#d62728"),
        f'<text x="{width - margin - 4}" y="{margin + 16}" text-anchor="end" font-size="11" fill="#1f77b4">t_qslo</text>',
        f'<text x="{width - margin - 4}" y="{margin + 32}" text-anchor="end" font-size="11" fill="#d62728">t_sqslo</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
