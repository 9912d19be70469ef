"""Unit tests for the SVG and ASCII Lorenz renderers."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sagini import build_dataset, lorenz_curve, lorenz_from_points
from sagini.metrics import LorenzCurve
from sagini.plot import (
    FULL_VERTICES,
    PLOT_BOTTOM,
    PLOT_LEFT,
    PLOT_RIGHT,
    PLOT_TOP,
    TOLERANCE,
    X_LABEL,
    Y_LABEL,
    _with_origin,
    map_x,
    map_y,
    render_ascii,
    render_svg,
)

from fixtures import RIGHT_SKEWED_Q, SYMMETRIC_VALUES, points_from_q


def unmap(pair):
    px, py = pair
    x = (px - PLOT_LEFT) / (PLOT_RIGHT - PLOT_LEFT)
    y = (PLOT_BOTTOM - py) / (PLOT_BOTTOM - PLOT_TOP)
    return x, y


def polyline_attrs(svg):
    return re.findall(r'<polyline points="([^"]+)"', svg)


def polylines(svg):
    out = []
    for attr in polyline_attrs(svg):
        pts = [tuple(map(float, pair.split(","))) for pair in attr.split()]
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


def mapped(curve):
    """The curve's vertices in user units, and each as the SVG prints it."""
    x, y = _with_origin(curve)
    x, y = map_x(x), map_y(y)
    return x, y, [f"{a:.4f},{b:.4f}" for a, b in zip(x.tolist(), y.tolist())]


def kept_indices(attr, curve):
    """Which original vertices a polyline ``points`` attribute shows,
    checking that each is printed exactly as the original."""
    x, y, printed = mapped(curve)
    pairs = attr.split()
    shown_x = np.array([float(pair.split(",")[0]) for pair in pairs])
    idx = np.rint((shown_x - PLOT_LEFT) / (PLOT_RIGHT - PLOT_LEFT) * curve.n).astype(int)
    assert [printed[i] for i in idx] == pairs
    return idx


def zigzag(n):
    """Every odd vertex sits 0.002 (1.02 user units) above the even ones'
    line, so no vertex can be dropped."""
    i = np.arange(1, n + 1)
    return lorenz_from_points(np.column_stack((i / n, i / n + (i % 2) * 0.002)))


@st.composite
def long_curves(draw):
    n = draw(st.integers(FULL_VERTICES, 50_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lognormal", "pareto", "noisy", "steps"]))
    if kind == "lognormal":
        return lorenz_curve(build_dataset(rng.lognormal(0.0, draw(st.floats(0.05, 3.0)), n)))
    if kind == "pareto":
        return lorenz_curve(build_dataset(rng.pareto(draw(st.floats(1.05, 5.0)), n)))
    p = np.arange(1, n + 1) / n
    if kind == "noisy":
        # Non-convex: the diagonal, a bow and noise from far below to far
        # above the tolerance (0.002 in q is about one user unit).
        bow = draw(st.floats(-0.3, 0.3)) * p * (1 - p)
        q = p + bow + rng.normal(0.0, 10.0 ** draw(st.floats(-6.0, -2.0)), n)
    else:
        # Flat runs and jumps of random height, down as well as up.
        jumps = rng.random(n) < draw(st.floats(1e-4, 0.05))
        q = np.cumsum(np.where(jumps, rng.normal(0.01, 0.02, n), 0.0))
        q -= np.linspace(0.0, q[-1] - 1.0, n)
    q[-1] = 1.0
    return lorenz_from_points(np.column_stack((p, q)))


class TestDecimation:
    @settings(max_examples=40, deadline=None)
    @given(long_curves())
    def test_kept_vertices_stay_within_tolerance(self, curve):
        # Measured from the unrounded vertices: printing at 4 decimals
        # moves a segment of slope s by up to 5e-5 * (1 + s) vertically,
        # decimated or not.
        svg = render_svg([curve], ["c"])
        (attr,) = polyline_attrs(svg)
        assert re.findall(r'<polygon points="([^"]+)"', svg) == [attr]
        idx = kept_indices(attr, curve)
        assert idx[0] == 0 and idx[-1] == curve.n
        assert np.all(np.diff(idx) > 0)
        x, y, _ = mapped(curve)
        off = np.abs(np.interp(x, x[idx], y[idx]) - y)
        assert off.max() <= TOLERANCE + 1e-9

    def test_smooth_curve_keeps_few_vertices(self):
        values = np.random.default_rng(5).lognormal(10.0, 1.0, 100_000)
        (attr,) = polyline_attrs(render_svg([lorenz_curve(build_dataset(values))], ["c"]))
        assert len(attr.split()) < 200

    def test_undecimable_zigzag_keeps_every_vertex(self):
        curve = zigzag(100_000)
        (attr,) = polyline_attrs(render_svg([curve], ["z"]))
        assert attr == " ".join(mapped(curve)[2])

    def test_overlay_decimates_each_curve_on_its_own(self):
        values = np.random.default_rng(3).pareto(2.0, 20_000)
        curves = [lorenz_curve(build_dataset(values)), zigzag(3_000)]
        overlay = polyline_attrs(render_svg(curves, ["smooth", "zigzag"]))
        alone = [polyline_attrs(render_svg([c], ["c"]))[0] for c in curves]
        assert overlay == alone
        assert len(overlay[0].split()) < 200
        assert len(overlay[1].split()) == 3_001

    def test_largest_full_curve_unchanged(self):
        # FULL_VERTICES vertices with the origin: the largest curve drawn
        # through every vertex, pinned to its full-resolution bytes.
        q = (np.arange(1, FULL_VERTICES) / (FULL_VERTICES - 1)) ** 2
        q[-1] = 1.0
        svg = render_svg([LorenzCurve(q=q, convex=True)], ["square"])
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "e0aebb7c5cd52f05575fcb12a406ffd124d131092dca924ce4dd234c91564449"
        )
        q = (np.arange(1, FULL_VERTICES + 1) / FULL_VERTICES) ** 2
        q[-1] = 1.0
        (attr,) = polyline_attrs(render_svg([LorenzCurve(q=q, convex=True)], ["square"]))
        assert len(attr.split()) < FULL_VERTICES


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
