"""Deterministic Lorenz-curve rendering.

The SVG is assembled by hand on a fixed 600x600 user-unit canvas with all
coordinates at 4 decimals and no external fonts, so identical curves and
tool version produce identical bytes. Each curve is a piecewise-linear
polyline through (0, 0) and every (p_i, q_i); the region between it and
the 45-degree line is shaded (the polygon's closing edge is the diagonal).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .metrics import LorenzCurve

CANVAS = 600.0
PLOT_LEFT = 70.0
PLOT_RIGHT = 580.0
PLOT_TOP = 20.0
PLOT_BOTTOM = 530.0

X_LABEL = "cumulative share of population"
Y_LABEL = "cumulative share of resources"

PALETTE = ("#555555", "#c0392b", "#2e5fa3", "#2e8b57", "#8e44ad", "#b8860b")

ASCII_WIDTH = 61
ASCII_HEIGHT = 31
_ASCII_MARKS = "*o+x#@"


def map_x(x: float) -> float:
    return PLOT_LEFT + x * (PLOT_RIGHT - PLOT_LEFT)


def map_y(y: float) -> float:
    return PLOT_BOTTOM - y * (PLOT_BOTTOM - PLOT_TOP)


def _pts(xs: Sequence[float], ys: Sequence[float]) -> str:
    return " ".join(f"{map_x(x):.4f},{map_y(y):.4f}" for x, y in zip(xs, ys))


def _curve_xy(curve: LorenzCurve) -> tuple[list[float], list[float]]:
    return [0.0, *curve.p.tolist()], [0.0, *curve.q.tolist()]


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
    points = [_pts(*_curve_xy(curve)) for curve in curves]
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


def _interp(xs: list[float], ys: list[float], x: float) -> float:
    """Piecewise-linear y at x through ascending ``xs`` (from :func:`_curve_xy`).

    The segment is the first one whose right end is at or past ``x``.
    """
    if x <= xs[0]:
        return ys[0]
    right = bisect_left(xs, x, 1)
    if right == len(xs):
        return ys[-1]
    left = right - 1
    span = xs[right] - xs[left]
    t = 0.0 if span == 0 else (x - xs[left]) / span
    return ys[left] + t * (ys[right] - ys[left])


def render_ascii(curves: Sequence[LorenzCurve], labels: Sequence[str]) -> str:
    """Character-grid rendering: diagonal '.', one mark per curve."""
    if len(curves) != len(labels):
        raise ValueError("need one label per curve")
    grid = [[" "] * ASCII_WIDTH for _ in range(ASCII_HEIGHT)]
    for col in range(ASCII_WIDTH):
        x = col / (ASCII_WIDTH - 1)
        row = round((1.0 - x) * (ASCII_HEIGHT - 1))
        grid[row][col] = "."
    for k, curve in enumerate(curves):
        mark = _ASCII_MARKS[k % len(_ASCII_MARKS)]
        xs, ys = _curve_xy(curve)
        for col in range(ASCII_WIDTH):
            x = col / (ASCII_WIDTH - 1)
            q = _interp(xs, ys, x)
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
