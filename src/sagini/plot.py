"""Deterministic Lorenz-curve rendering.

The SVG is assembled by hand on a fixed 600x600 user-unit canvas with all
coordinates at 4 decimals and no external fonts, so identical curves and
tool version produce identical bytes. Each curve is a piecewise-linear
polyline from (0, 0) through the points (p_i, q_i); the region between it
and the 45-degree line is shaded (the polygon shares the polyline's
vertices and its closing edge is the diagonal).

A curve of at most ``FULL_VERTICES`` vertices, the origin included (twice
the plot's width in user units), is drawn through every one of them. A
longer curve keeps only the vertices it needs: the kept ones are original
vertices, both ends among them, and every dropped vertex lies within
``TOLERANCE`` (a quarter of a user unit), measured vertically, of the
kept polyline. The grid p is increasing, so this bounds the vertical
distance between the full and the drawn polyline everywhere, for convex
and non-convex curves alike. The vertices are chosen by splitting
segments level by level, all segments of a level at once: every segment
with a vertex more than the tolerance off it is split at its midpoint.
The midpoint halves the segment, so there are at most about ``log2(n)``
levels of O(n) numpy work each, even for a curve with nothing to drop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .metrics import LorenzCurve

CANVAS = 600.0
PLOT_LEFT = 70.0
PLOT_RIGHT = 580.0
PLOT_TOP = 20.0
PLOT_BOTTOM = 530.0

X_LABEL = "cumulative share of population"
Y_LABEL = "cumulative share of resources"

PALETTE = ("#555555", "#c0392b", "#2e5fa3", "#2e8b57", "#8e44ad", "#b8860b")

#: Curves of up to this many vertices, the origin included, are drawn
#: through all of them: twice the plot's width in user units.
FULL_VERTICES = 2 * round(PLOT_RIGHT - PLOT_LEFT)

#: How far, in user units measured vertically, a dropped vertex may lie
#: from the drawn polyline.
TOLERANCE = 0.25

ASCII_WIDTH = 61
ASCII_HEIGHT = 31
_ASCII_MARKS = "*o+x#@"


def map_x(x: float | np.ndarray) -> float | np.ndarray:
    return PLOT_LEFT + x * (PLOT_RIGHT - PLOT_LEFT)


def map_y(y: float | np.ndarray) -> float | np.ndarray:
    return PLOT_BOTTOM - y * (PLOT_BOTTOM - PLOT_TOP)


def _with_origin(curve: LorenzCurve) -> tuple[np.ndarray, np.ndarray]:
    """The vertices ``(0, 0), (p_1, q_1), ..., (p_n, q_n)`` as two arrays."""
    return np.concatenate(([0.0], curve.p)), np.concatenate(([0.0], curve.q))


def _kept(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the vertices of the polyline ``(x, y)`` to keep.

    ``x`` is increasing. Each level measures every vertex against the
    polyline through the vertices kept so far and splits, at its
    midpoint, every segment with a vertex more than ``TOLERANCE`` off it.
    A kept vertex is 0 off, so a segment splits only while it has an
    interior, and one within the tolerance never gains a vertex again.
    """
    keep = np.zeros(x.size, dtype=bool)
    keep[[0, -1]] = True
    while True:
        ends = np.flatnonzero(keep)
        dev = np.interp(x, x[ends], y[ends])
        dev -= y
        np.abs(dev, out=dev)
        split = np.maximum.reduceat(dev, ends[:-1]) > TOLERANCE
        if not split.any():
            return ends
        keep[(ends[:-1][split] + ends[1:][split]) // 2] = True


def _points(curve: LorenzCurve) -> str:
    """The curve's polyline in user units: every vertex up to
    ``FULL_VERTICES`` of them, else the ones :func:`_kept` keeps."""
    x, y = _with_origin(curve)
    x, y = map_x(x), map_y(y)
    if x.size > FULL_VERTICES:
        keep = _kept(x, y)
        x, y = x[keep], y[keep]
    return " ".join(map("{:.4f},{:.4f}".format, x.tolist(), y.tolist()))


def render_svg(curves: Sequence[LorenzCurve], labels: Sequence[str]) -> str:
    """One SVG with the diagonal, every curve, and shaded gap regions."""
    if len(curves) != len(labels):
        raise ValueError("need one label per curve")
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS:.0f}" '
        f'height="{CANVAS:.0f}" viewBox="0 0 {CANVAS:.0f} {CANVAS:.0f}">',
        f'<rect x="{PLOT_LEFT:.4f}" y="{PLOT_TOP:.4f}" '
        f'width="{PLOT_RIGHT - PLOT_LEFT:.4f}" height="{PLOT_BOTTOM - PLOT_TOP:.4f}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    points = [_points(curve) for curve in curves]
    for k, pts in enumerate(points):
        color = PALETTE[k % len(PALETTE)]
        out.append(
            f'<polygon points="{pts}" fill="{color}" '
            'fill-opacity="0.18" stroke="none"/>'
        )
    out.append(
        f'<line x1="{map_x(0):.4f}" y1="{map_y(0):.4f}" '
        f'x2="{map_x(1):.4f}" y2="{map_y(1):.4f}" '
        'stroke="#000000" stroke-width="1.5"/>'
    )
    for k, pts in enumerate(points):
        color = PALETTE[k % len(PALETTE)]
        out.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    mid_x = (PLOT_LEFT + PLOT_RIGHT) / 2
    mid_y = (PLOT_TOP + PLOT_BOTTOM) / 2
    out += [
        f'<text x="{mid_x:.4f}" y="{CANVAS - 25:.4f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{X_LABEL}</text>',
        f'<text x="25.0000" y="{mid_y:.4f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16" '
        f'transform="rotate(-90 25 {mid_y:.4f})">{Y_LABEL}</text>',
        f'<text x="{PLOT_LEFT:.4f}" y="{PLOT_BOTTOM + 18:.4f}" '
        'text-anchor="middle" font-family="sans-serif" font-size="12">0</text>',
        f'<text x="{PLOT_RIGHT:.4f}" y="{PLOT_BOTTOM + 18:.4f}" '
        'text-anchor="middle" font-family="sans-serif" font-size="12">1</text>',
        f'<text x="{PLOT_LEFT - 12:.4f}" y="{PLOT_TOP + 5:.4f}" '
        'text-anchor="middle" font-family="sans-serif" font-size="12">1</text>',
    ]
    if len(curves) > 1:
        for k, label in enumerate(labels):
            color = PALETTE[k % len(PALETTE)]
            y = PLOT_TOP + 20 + 20 * k
            out += [
                f'<line x1="{PLOT_LEFT + 12:.4f}" y1="{y:.4f}" '
                f'x2="{PLOT_LEFT + 42:.4f}" y2="{y:.4f}" '
                f'stroke="{color}" stroke-width="1.5"/>',
                f'<text x="{PLOT_LEFT + 50:.4f}" y="{y + 5:.4f}" '
                f'font-family="sans-serif" font-size="14">{_escape(label)}</text>',
            ]
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_ascii(curves: Sequence[LorenzCurve], labels: Sequence[str]) -> str:
    """Character-grid rendering: diagonal '.', one mark per curve."""
    if len(curves) != len(labels):
        raise ValueError("need one label per curve")
    grid = [[" "] * ASCII_WIDTH for _ in range(ASCII_HEIGHT)]
    columns = np.arange(ASCII_WIDTH) / (ASCII_WIDTH - 1)
    for col, x in enumerate(columns.tolist()):
        row = round((1.0 - x) * (ASCII_HEIGHT - 1))
        grid[row][col] = "."
    for k, curve in enumerate(curves):
        mark = _ASCII_MARKS[k % len(_ASCII_MARKS)]
        for col, q in enumerate(np.interp(columns, *_with_origin(curve)).tolist()):
            row = round((1.0 - q) * (ASCII_HEIGHT - 1))
            if 0 <= row < ASCII_HEIGHT:
                grid[row][col] = mark
    lines = []
    for r, row in enumerate(grid):
        if r == 0:
            prefix = "1 |"
        elif r == ASCII_HEIGHT - 1:
            prefix = "0 |"
        else:
            prefix = "  |"
        lines.append(prefix + "".join(row))
    lines.append("  +" + "-" * ASCII_WIDTH)
    lines.append("   0" + " " * (ASCII_WIDTH - 5) + "1")
    lines.append("   " + X_LABEL + " (x) vs " + Y_LABEL + " (y)")
    for k, label in enumerate(labels):
        lines.append(f"   {_ASCII_MARKS[k % len(_ASCII_MARKS)]} {label}")
    return "\n".join(lines) + "\n"
