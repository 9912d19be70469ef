"""Property-based suites for the algebraic and axiomatic invariants.

Exact identities are asserted bitwise where the construction guarantees
them (power-of-two rescaling, the rational oracle); float-path
comparisons use 1e-12/1e-10 relative tolerances with a matching absolute
floor for the near-equality corner where every index collapses to zero.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sagini import (
    apply_transfer,
    build_dataset,
    lorenz_curve,
    metrics_from_lorenz,
    pairwise_gini,
    rational_report,
    rational_report_from_lorenz,
    report,
)

from fixtures import exact_points, points_from_gaps, propose_transfer

int_values = st.lists(st.integers(-10, 10**6), min_size=2, max_size=60).filter(
    lambda v: sum(v) > 0
)
nonneg_values = st.lists(st.integers(0, 10**6), min_size=2, max_size=60).filter(
    lambda v: sum(v) > 0
)
float_values = st.lists(
    st.floats(-10.0, 1e6, allow_nan=False), min_size=2, max_size=60
).filter(lambda v: math.fsum(v) > 1e-3)


def close(a, b, rel, absolute=None):
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel if absolute is None else absolute)


def indices_of(values):
    r = report(build_dataset(values))
    return r.gini, r.g_right, r.g_left, r.sag


# ---------------------------------------------------------------- identities


@given(int_values)
def test_mean_identity(values):
    g, gr, gl, _ = indices_of(values)
    assert close((gr + gl) / 2, g, rel=1e-12)


@given(float_values)
def test_mean_identity_float_inputs(values):
    g, gr, gl, _ = indices_of(values)
    assert close((gr + gl) / 2, g, rel=1e-12)


@given(int_values)
def test_sag_is_max_and_dominates_gini(values):
    g, gr, gl, s = indices_of(values)
    assert close(s, max(gr, gl), rel=1e-12)
    assert s >= g


@given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=60))
def test_weight_mirror_identity_exact(gaps):
    # right_i + left_i = 2 at every point, so g_right + g_left = 2 gini:
    # with zero tolerance in the oracle, to 1e-12 in the kernel.
    points = points_from_gaps(gaps)
    exact = rational_report_from_lorenz(exact_points(points))
    assert exact.g_right + exact.g_left == 2 * exact.gini
    r = metrics_from_lorenz(points)
    assert close(r.g_right + r.g_left, 2 * r.gini, rel=1e-12)


@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=40),
    st.booleans(),
)
def test_palindromic_gaps_make_tails_equal(half, odd):
    middle = [half[-1]] if odd else []
    points = points_from_gaps(half + middle + half[::-1])
    r = metrics_from_lorenz(points)
    assert r.skew_direction == "symmetric"
    assert close(r.sag, r.gini, rel=1e-12)
    exact = rational_report_from_lorenz(exact_points(points))
    for name in ("gini", "g_right", "g_left", "sag"):
        assert close(getattr(r, name), float(getattr(exact, name)), rel=1e-12)


@given(nonneg_values, st.integers(1, 10**6))
def test_mean_symmetric_datasets_report_symmetric(values, m):
    top = 2 * max(values + [m])
    mirrored = values + [float(top - v) for v in values]
    r = report(build_dataset(mirrored))
    assert abs(r.g_right - r.g_left) < 1e-12
    assert r.skew_direction == "symmetric"


# ------------------------------------------------------------------- axioms


@given(int_values, st.integers(-8, 8))
def test_scale_invariance_power_of_two_exact(values, k):
    c = 2.0**k
    base = indices_of(values)
    scaled = indices_of([c * v for v in values])
    assert scaled == base


@given(int_values, st.floats(1e-3, 1e3, allow_nan=False))
def test_scale_invariance_general(values, c):
    assume(c > 0)
    base = indices_of(values)
    scaled = indices_of([c * v for v in values])
    for a, b in zip(base, scaled):
        assert close(a, b, rel=1e-12)


@given(int_values, st.integers(1, 1000), st.integers(1, 1000))
def test_scale_invariance_rational_exact(values, num, den):
    ints = [int(v) for v in values]
    c = Fraction(num, den)
    assert rational_report([c * v for v in ints]) == rational_report(ints)


@given(int_values, st.sampled_from([2, 3, 5]))
def test_population_invariance(values, k):
    base = indices_of(values)
    replicated = indices_of(values * k)
    for a, b in zip(base, replicated):
        assert close(a, b, rel=1e-10)


@given(int_values, st.sampled_from([2, 3, 5]))
def test_population_invariance_rational_exact(values, k):
    ints = [int(v) for v in values]
    assert rational_report(ints * k) == rational_report(ints)


@given(int_values)
def test_progressive_transfer_shrinks_all_indices(values):
    spec = propose_transfer(values)
    assume(spec is not None)
    data = build_dataset(values)
    before = report(data)
    moved = apply_transfer(data, spec)
    after = report(moved)
    assert abs(moved.total - data.total) <= 1e-12 * data.total
    assert before.gini - after.gini > 1e-12
    assert before.g_right - after.g_right > 1e-12
    assert before.g_left - after.g_left > 1e-12
    assert before.sag - after.sag > 1e-12


@given(float_values)
@settings(max_examples=60)
def test_transfer_preserves_total_for_float_data(values):
    spec = propose_transfer(values)
    assume(spec is not None)
    data = build_dataset(values)
    moved = apply_transfer(data, spec)
    assert abs(moved.total - data.total) <= 1e-12 * abs(data.total)


@given(int_values)
@settings(max_examples=50)
def test_progressive_transfer_shrinks_exactly(values):
    spec = propose_transfer(values)
    assume(spec is not None)
    ints = sorted(int(v) for v in values)
    amount = Fraction(spec.amount)
    moved = list(ints)
    moved[0] += amount
    moved[-1] -= amount
    before = rational_report(ints)
    after = rational_report(moved)
    assert after.gini < before.gini
    assert after.g_right < before.g_right
    assert after.g_left < before.g_left
    assert after.sag < before.sag


# ------------------------------------------------------------ oracle routes


@given(int_values)
@settings(max_examples=200)
def test_float_report_matches_rational_oracle(values):
    g, gr, gl, s = indices_of(values)
    rr = rational_report([int(v) for v in values])
    assert close(g, float(rr.gini), rel=1e-12)
    assert close(gr, float(rr.g_right), rel=1e-12)
    assert close(gl, float(rr.g_left), rel=1e-12)
    assert close(s, float(rr.sag), rel=1e-12)


@given(int_values)
def test_gini_matches_pairwise_identity(values):
    g, _, _, _ = indices_of(values)
    assert close(pairwise_gini(values), g, rel=1e-10, absolute=1e-12)


# ----------------------------------------------------------- bounds, shapes


@given(nonneg_values)
def test_gini_bounds_for_nonnegative_data(values):
    n = len(values)
    g, _, _, s = indices_of(values)
    assert -1e-12 <= g <= (n - 1) / n + 1e-12
    assert s <= 4 / 3 + 1e-12


@given(nonneg_values)
def test_nonnegative_data_gaps_above_diagonal(values):
    curve = lorenz_curve(build_dataset(values))
    assert curve.convex
    assert np.all(curve.p - curve.q >= -1e-12)


@given(float_values)
def test_all_indices_finite_with_zeros_and_negatives(values):
    r = report(build_dataset(values))
    for field in (r.gini, r.g_right, r.g_left, r.sag):
        assert math.isfinite(field)


@given(int_values)
def test_lorenz_endpoints_and_grid(values):
    curve = lorenz_curve(build_dataset(values))
    assert curve.p[-1] == 1.0
    assert curve.q[-1] == 1.0
    assert np.all(np.diff(curve.p) > 0)
    assert curve.n == curve.q.size == len(values)


@given(st.floats(1e-3, 1e6, allow_nan=False), st.integers(2, 30))
def test_equal_values_sit_on_diagonal(c, n):
    assume(c > 0)
    curve = lorenz_curve(build_dataset([c] * n))
    assert curve.q == pytest.approx(curve.p, abs=1e-12)
    r = report(build_dataset([c] * n))
    assert abs(r.gini) < 1e-12
    assert r.skew_direction == "symmetric"


@given(int_values, st.randoms(use_true_random=False))
def test_input_order_never_matters(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert indices_of(shuffled) == indices_of(values)
