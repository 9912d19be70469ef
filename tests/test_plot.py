"""Unit tests for the SVG and ASCII Lorenz renderers."""

import random
import re

import pytest

from sagini import build_dataset, lorenz_curve, lorenz_from_points
from sagini.plot import (
    PLOT_BOTTOM,
    PLOT_LEFT,
    PLOT_RIGHT,
    PLOT_TOP,
    X_LABEL,
    Y_LABEL,
    _curve_xy,
    _interp,
    render_ascii,
    render_svg,
)

from fixtures import RIGHT_SKEWED_Q, SYMMETRIC_VALUES, points_from_q


def unmap(pair):
    px, py = pair
    x = (px - PLOT_LEFT) / (PLOT_RIGHT - PLOT_LEFT)
    y = (PLOT_BOTTOM - py) / (PLOT_BOTTOM - PLOT_TOP)
    return x, y


def polylines(svg):
    out = []
    for match in re.finditer(r'<polyline points="([^"]+)"', svg):
        pts = [tuple(map(float, pair.split(","))) for pair in match.group(1).split()]
        out.append([unmap(p) for p in pts])
    return out


class TestSvg:
    def test_polyline_traces_curve_through_origin(self):
        curve = lorenz_curve(build_dataset(SYMMETRIC_VALUES))
        svg = render_svg([curve], ["sym"])
        (points,) = polylines(svg)
        assert points[0] == pytest.approx((0.0, 0.0), abs=1e-4)
        for (x, y), p, q in zip(points[1:], curve.p, curve.q):
            assert x == pytest.approx(p, abs=5e-4)
            assert y == pytest.approx(q, abs=5e-4)

    def test_diagonal_and_shading_present(self):
        curve = lorenz_curve(build_dataset(SYMMETRIC_VALUES))
        svg = render_svg([curve], ["sym"])
        assert "<line" in svg
        assert "<polygon" in svg

    def test_axis_labels(self):
        curve = lorenz_curve(build_dataset([1.0, 2.0]))
        svg = render_svg([curve], ["x"])
        assert X_LABEL in svg
        assert Y_LABEL in svg

    def test_equality_curve_coincides_with_diagonal(self):
        curve = lorenz_curve(build_dataset([5.0] * 4))
        svg = render_svg([curve], ["equal"])
        (points,) = polylines(svg)
        for x, y in points:
            assert y == pytest.approx(x, abs=1e-4)

    def test_multiple_inputs_get_legend(self):
        sym = lorenz_curve(build_dataset(SYMMETRIC_VALUES))
        red = lorenz_from_points(points_from_q(RIGHT_SKEWED_Q))
        svg = render_svg([sym, red], ["sym", "red"])
        assert svg.count("<polyline") == 2
        assert ">sym</text>" in svg
        assert ">red</text>" in svg

    def test_deterministic(self):
        curve = lorenz_curve(build_dataset(SYMMETRIC_VALUES))
        assert render_svg([curve], ["a"]) == render_svg([curve], ["a"])

    def test_polygon_and_polyline_share_points(self):
        curves = [
            lorenz_curve(build_dataset(SYMMETRIC_VALUES)),
            lorenz_from_points(points_from_q(RIGHT_SKEWED_Q)),
        ]
        svg = render_svg(curves, ["sym", "red"])
        polygons = re.findall(r'<polygon points="([^"]+)"', svg)
        lines = re.findall(r'<polyline points="([^"]+)"', svg)
        assert len(polygons) == 2
        assert polygons == lines

    def test_label_escaped(self):
        curve = lorenz_curve(build_dataset([1.0, 2.0]))
        svg = render_svg([curve, curve], ["a<b", "c&d"])
        assert "a&lt;b" in svg
        assert "c&amp;d" in svg


def interp_by_scan(xs, ys, x):
    """The first segment whose right end is at or past x, by linear scan."""
    if x <= xs[0]:
        return ys[0]
    for left in range(len(xs) - 1):
        if x <= xs[left + 1]:
            span = xs[left + 1] - xs[left]
            t = 0.0 if span == 0 else (x - xs[left]) / span
            return ys[left] + t * (ys[left + 1] - ys[left])
    return ys[-1]


class TestInterp:
    @pytest.mark.parametrize("n", [2, 3, 7, 60, 61, 1000])
    def test_matches_linear_scan(self, n):
        rng = random.Random(n)
        values = [rng.lognormvariate(0, 1) for _ in range(n)]
        xs, ys = _curve_xy(lorenz_curve(build_dataset(values)))
        probes = [i / 60 for i in range(61)] + xs + [-0.5, 1.5]
        probes += [rng.random() for _ in range(200)]
        for x in probes:
            assert _interp(xs, ys, x) == interp_by_scan(xs, ys, x)

    def test_repeated_grid_point(self):
        xs, ys = [0.0, 0.5, 0.5, 1.0], [0.0, 0.2, 0.4, 1.0]
        for x in (0.25, 0.5, 0.75):
            assert _interp(xs, ys, x) == interp_by_scan(xs, ys, x)


class TestAscii:
    def test_grid_contains_diagonal_and_curve(self):
        curve = lorenz_curve(build_dataset(SYMMETRIC_VALUES))
        text = render_ascii([curve], ["sym"])
        assert "." in text
        assert "*" in text
        assert X_LABEL in text

    def test_second_curve_uses_second_mark(self):
        sym = lorenz_curve(build_dataset(SYMMETRIC_VALUES))
        red = lorenz_from_points(points_from_q(RIGHT_SKEWED_Q))
        text = render_ascii([sym, red], ["sym", "red"])
        assert "o red" in text
        assert "* sym" in text
