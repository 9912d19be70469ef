"""Unit tests for the core metric pipeline."""

from fractions import Fraction

import numpy as np
import pytest

from sagini import (
    BadEndpointError,
    EmptyOrSingletonError,
    InvalidNError,
    NonFiniteValueError,
    NonPositiveTotalError,
    UnequalSpacingError,
    build_dataset,
    lorenz_curve,
    lorenz_from_points,
    metrics_from_lorenz,
    rational_report,
    rational_report_from_lorenz,
    report,
)
from sagini.metrics import _CHUNK, _MAX_EXACT_N, _rank_weights

from fixtures import (
    LEFT_SKEWED_EXPECTED,
    LEFT_SKEWED_Q,
    RIGHT_SKEWED_EXPECTED,
    RIGHT_SKEWED_GAPS,
    RIGHT_SKEWED_Q,
    SYMMETRIC_GAPS,
    SYMMETRIC_Q,
    SYMMETRIC_VALUES,
    exact_points,
    points_from_gaps,
    points_from_q,
)


def gaps_of(values):
    """The n-1 interior distances ``p_i - q_i`` of the dataset's curve."""
    curve = lorenz_curve(build_dataset(values))
    return (curve.p - curve.q)[:-1]


def indices(result):
    return result.gini, result.g_right, result.g_left, result.sag


def tail_weights(n):
    """Each interior point's right and left weight, read off the indices.

    A curve that leaves the diagonal at point i alone has the single gap
    ``d_i``, so ``g_right / gini`` and ``g_left / gini`` are that point's
    weights ``2i/n`` and ``(2n - 2i)/n``.
    """
    right, left = [], []
    for i in range(1, n):
        gaps = [0.0] * (n - 1)
        gaps[i - 1] = 0.25 / n
        result = metrics_from_lorenz(points_from_gaps(gaps))
        right.append(result.g_right / result.gini)
        left.append(result.g_left / result.gini)
    return np.array(right), np.array(left)


class TestBuildDataset:
    def test_ten_point_fixture(self):
        data = build_dataset(SYMMETRIC_VALUES)
        assert data.n == 10
        assert data.total == 100.0
        assert data.mean == 10.0

    def test_input_order_retained(self):
        data = build_dataset([3.0, 1.0, 2.0])
        assert data.values.tolist() == [3.0, 1.0, 2.0]
        assert data.sorted_values.tolist() == [1.0, 2.0, 3.0]

    def test_singleton_rejected(self):
        with pytest.raises(EmptyOrSingletonError):
            build_dataset([5.0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyOrSingletonError):
            build_dataset([])

    def test_non_positive_total_rejected(self):
        with pytest.raises(NonPositiveTotalError):
            build_dataset([-1.0, -2.0, 2.0])

    def test_zero_total_rejected(self):
        with pytest.raises(NonPositiveTotalError):
            build_dataset([-1.0, 1.0])

    def test_nan_rejected_with_index(self):
        with pytest.raises(NonFiniteValueError, match="index 2"):
            build_dataset([1.0, 2.0, float("nan"), 3.0])

    def test_infinity_rejected(self):
        with pytest.raises(NonFiniteValueError):
            build_dataset([1.0, float("inf")])

    def test_values_immutable(self):
        data = build_dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            data.values[0] = 9.0

    def test_zeros_and_negatives_allowed(self):
        data = build_dataset([-2.0, 0.0, 5.0])
        assert data.total == 3.0

    @pytest.mark.parametrize(
        "raw, where",
        [
            (["1", "2"], "'1' at index 0"),
            ([1.0, "2"], "'2' at index 1"),
            (np.array(["1", "2"]), "'1' at index 0"),
            ([1.0, b"2"], "b'2' at index 1"),
        ],
        ids=["strings", "mixed", "string-array", "bytes"],
    )
    def test_strings_rejected_with_index(self, raw, where):
        with pytest.raises(TypeError, match=f"string {where}"):
            build_dataset(raw)

    def test_caller_array_stays_writeable(self):
        raw = np.array([1.0, 2.0, 3.0])
        data = build_dataset(raw)
        raw[0] = 9.0
        assert data.values.tolist() == [1.0, 2.0, 3.0]
        assert data.n == 3


class TestLorenzCurve:
    def test_q_matches_fixture(self):
        curve = lorenz_curve(build_dataset(SYMMETRIC_VALUES))
        assert curve.q == pytest.approx(SYMMETRIC_Q, abs=1e-15)
        assert curve.p == pytest.approx([i / 10 for i in range(1, 11)], abs=0)

    def test_endpoints_exact(self):
        curve = lorenz_curve(build_dataset([3.0, 1.0, 7.0, 2.0]))
        assert curve.p[-1] == 1.0
        assert curve.q[-1] == 1.0

    def test_equal_values_sit_on_diagonal(self):
        curve = lorenz_curve(build_dataset([5.0, 5.0, 5.0, 5.0]))
        assert curve.q.tolist() == [0.25, 0.5, 0.75, 1.0]
        assert np.array_equal(curve.p, curve.q)

    def test_negative_values_dip_below_zero(self):
        curve = lorenz_curve(build_dataset([-2.0, 1.0, 5.0]))
        assert curve.q.tolist() == [-0.5, -0.25, 1.0]
        assert curve.convex

    def test_sorted_nonnegative_is_convex(self):
        curve = lorenz_curve(build_dataset([9.0, 1.0, 1.0, 4.0, 2.0]))
        assert curve.convex

    def test_p_strictly_increasing(self):
        curve = lorenz_curve(build_dataset(SYMMETRIC_VALUES))
        assert np.all(np.diff(curve.p) > 0)

    def test_cancelling_cumsum_uses_exact_total(self):
        # The float cumulative sum ends at 0.0; the exact total is 1.
        curve = lorenz_curve(build_dataset([-1e20, 1e20, 1.0]))
        assert curve.q.tolist() == [-1e20, -1e20, 1.0]
        assert curve.convex

    def test_float_noise_does_not_flag_sorted_data(self):
        curve = lorenz_curve(build_dataset([-1e16, 2.0, 2.0, 2.0, 1e16]))
        assert curve.convex


class TestGapVector:
    """The distances ``d_i = p_i - q_i`` read off the curve."""

    def test_symmetric_fixture_gaps(self):
        curve = lorenz_curve(build_dataset(SYMMETRIC_VALUES))
        gaps = gaps_of(SYMMETRIC_VALUES)
        assert curve.n == 10
        assert len(gaps) == 9
        assert gaps == pytest.approx(SYMMETRIC_GAPS, abs=1e-15)

    def test_palindrome_shape(self):
        gaps = gaps_of(SYMMETRIC_VALUES)
        assert gaps == pytest.approx(gaps[::-1], abs=1e-15)

    def test_perfect_equality_gaps_zero(self):
        assert gaps_of([1.0] * 6).tolist() == [0.0] * 5

    def test_right_skewed_fixture_gaps(self):
        curve = lorenz_from_points(points_from_q(RIGHT_SKEWED_Q))
        gaps = (curve.p - curve.q)[:-1]
        assert gaps == pytest.approx(RIGHT_SKEWED_GAPS, abs=1e-15)

    def test_boundary_term_is_exactly_zero(self):
        # The i = n distance is identically zero, so the indices sum over
        # the n-1 interior points only; both curve builders pin it.
        curve = lorenz_curve(build_dataset(SYMMETRIC_VALUES))
        assert curve.p[-1] - curve.q[-1] == 0.0
        points = points_from_q(RIGHT_SKEWED_Q[:-1] + [1.0 + 5e-10])
        curve = lorenz_from_points(points)
        assert curve.p[-1] - curve.q[-1] == 0.0


class TestWeights:
    """The tail weights ``2i/n`` and ``(2n - 2i)/n`` as the indices apply them."""

    def test_right_weights_n10(self):
        right, _ = tail_weights(10)
        expected = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8]
        assert right == pytest.approx(expected, rel=1e-12)

    def test_left_weights_n10(self):
        _, left = tail_weights(10)
        expected = [1.8, 1.6, 1.4, 1.2, 1.0, 0.8, 0.6, 0.4, 0.2]
        assert left == pytest.approx(expected, rel=1e-12)

    def test_left_is_right_reversed_bitwise(self):
        # Reversing the gaps swaps the tails: exactly in the oracle, to
        # 1e-12 in the kernel.
        for n in (2, 3, 7, 10, 101, 1000):
            gaps = np.random.default_rng(n).random(n - 1) / n
            exact = [Fraction(d) for d in gaps.tolist()]
            forward, backward = (
                rational_report_from_lorenz(
                    [(Fraction(i, n), Fraction(i, n) - d) for i, d in enumerate(ds, 1)]
                    + [(1, 1)]
                )
                for ds in (exact, exact[::-1])
            )
            assert backward.g_right == forward.g_left
            assert backward.g_left == forward.g_right
            a = metrics_from_lorenz(points_from_gaps(gaps))
            b = metrics_from_lorenz(points_from_gaps(gaps[::-1]))
            assert b.g_right == pytest.approx(a.g_left, rel=1e-12)
            assert b.g_left == pytest.approx(a.g_right, rel=1e-12)

    def test_n2_degenerate(self):
        # One interior point, weighted 1 from either side.
        result = metrics_from_lorenz([(0.5, 0.25), (1.0, 1.0)])
        assert indices(result) == (0.25, 0.25, 0.25, 0.25)
        assert result.skew_direction == "symmetric"

    def test_mean_is_one(self):
        # Equal gaps everywhere: the weights average to 1, so both tails
        # equal gini.
        for n in (2, 5, 10, 137, 10_000):
            result = metrics_from_lorenz(points_from_gaps([0.25 / n] * (n - 1)))
            assert result.g_right == pytest.approx(result.gini, rel=1e-12)
            assert result.g_left == pytest.approx(result.gini, rel=1e-12)

    def test_mirror_sum_exactly_two(self):
        # right_i + left_i = 2, so g_right + g_left = 2 gini for any gaps:
        # exactly in the oracle, to 1e-12 in the kernel.
        for n in (2, 3, 9, 10, 64, 997):
            points = points_from_gaps(np.random.default_rng(n).random(n - 1) / n)
            exact = rational_report_from_lorenz(exact_points(points))
            assert exact.g_right + exact.g_left == 2 * exact.gini
            r = metrics_from_lorenz(points)
            assert r.g_right + r.g_left == pytest.approx(2 * r.gini, rel=1e-12)

    def test_range_and_monotonicity(self):
        right, left = tail_weights(50)
        assert np.all(right > 0) and np.all(right < 2)
        assert np.all(np.diff(right) > 0)
        assert np.all(np.diff(left) < 0)


class TestIndices:
    def test_symmetric_fixture_all_033(self):
        from_values = report(build_dataset(SYMMETRIC_VALUES))
        from_points = metrics_from_lorenz(points_from_q(SYMMETRIC_Q))
        for value in indices(from_values) + indices(from_points):
            assert value == pytest.approx(0.33, abs=1e-14)

    def test_zero_gaps_give_zero(self):
        result = metrics_from_lorenz(points_from_gaps([0.0] * 3))
        assert indices(result) == (0.0, 0.0, 0.0, 0.0)

    def test_two_zeros_one_three(self):
        result = report(build_dataset([0.0, 0.0, 3.0]))
        assert result.gini == pytest.approx(2 / 3, rel=1e-15)
        assert result.g_right == pytest.approx(20 / 27, rel=1e-15)
        assert result.g_left == pytest.approx(16 / 27, rel=1e-15)
        assert result.sag == pytest.approx(20 / 27, rel=1e-15)

    def test_prefactor_simplification_at_n7(self):
        # 2n/n^2 and 2/n are the same float, so the shorter form is used;
        # the kernel's gini of 1..7 is the exact 2/7, correctly rounded.
        n = 7
        assert 2 * n / n**2 == 2 / n
        assert rational_report(range(1, n + 1)).gini == Fraction(2, 7)
        assert report(build_dataset(range(1, n + 1))).gini == 2 / 7

    def test_permutation_of_input_is_bit_identical(self):
        values = [17.0, 2.0, 9.0, 4.0, 250.0, 4.0, 61.0]
        shuffled = [4.0, 250.0, 17.0, 61.0, 2.0, 9.0, 4.0]
        a, b = report(build_dataset(values)), report(build_dataset(shuffled))
        assert indices(a) == indices(b)


class TestReport:
    def test_symmetric_fixture(self):
        result = report(build_dataset(SYMMETRIC_VALUES))
        assert result.skew_direction == "symmetric"
        assert result.n == 10
        assert result.mean == 10.0
        assert result.convex

    def test_all_equal_is_exactly_zero(self):
        result = report(build_dataset([1.0] * 5))
        assert result.gini == 0.0
        assert result.g_right == 0.0
        assert result.g_left == 0.0
        assert result.sag == 0.0
        assert result.skew_direction == "symmetric"

    def test_right_skew_case(self):
        result = report(build_dataset([0.0, 0.0, 3.0]))
        assert result.gini == pytest.approx(0.6667, abs=5e-5)
        assert result.g_right == pytest.approx(0.7407, abs=5e-5)
        assert result.g_left == pytest.approx(0.5926, abs=5e-5)
        assert result.sag == pytest.approx(0.7407, abs=5e-5)
        assert result.skew_direction == "right"

    def test_sag_is_max(self):
        result = report(build_dataset([0.0, 0.0, 3.0]))
        assert result.sag == pytest.approx(
            max(result.g_right, result.g_left), rel=1e-15
        )


class TestMetricsFromLorenz:
    def test_right_skewed_fixture(self):
        result = metrics_from_lorenz(points_from_q(RIGHT_SKEWED_Q))
        exp = RIGHT_SKEWED_EXPECTED
        assert result.gini == pytest.approx(exp["gini"], abs=1e-14)
        assert result.g_right == pytest.approx(exp["g_right"], abs=1e-14)
        assert result.g_left == pytest.approx(exp["g_left"], abs=1e-14)
        assert result.sag == pytest.approx(exp["sag"], abs=1e-14)
        assert result.skew_direction == exp["skew"]
        assert result.convex
        assert result.mean is None

    def test_left_skewed_fixture_not_convex(self):
        result = metrics_from_lorenz(points_from_q(LEFT_SKEWED_Q))
        exp = LEFT_SKEWED_EXPECTED
        assert result.gini == pytest.approx(exp["gini"], abs=1e-14)
        assert result.sag == pytest.approx(exp["sag"], abs=1e-14)
        assert result.skew_direction == "left"
        assert not result.convex

    def test_diagonal_points_all_zero(self):
        points = [(i / 8, i / 8) for i in range(1, 9)]
        result = metrics_from_lorenz(points)
        assert result.gini == 0.0
        assert result.sag == 0.0
        assert result.skew_direction == "symmetric"

    def test_leading_origin_dropped(self):
        with_origin = [(0.0, 0.0)] + points_from_q(RIGHT_SKEWED_Q)
        without = points_from_q(RIGHT_SKEWED_Q)
        assert metrics_from_lorenz(with_origin) == metrics_from_lorenz(without)

    def test_origin_with_nonzero_q_rejected(self):
        points = [(0.0, 0.2)] + points_from_q(RIGHT_SKEWED_Q)
        with pytest.raises(BadEndpointError):
            metrics_from_lorenz(points)

    def test_unequal_spacing_rejected(self):
        points = [(0.1, 0.05), (0.35, 0.2), (1.0, 1.0)]
        with pytest.raises(UnequalSpacingError):
            metrics_from_lorenz(points)

    def test_bad_final_q_rejected(self):
        points = [(0.5, 0.2), (1.0, 0.9)]
        with pytest.raises(BadEndpointError):
            metrics_from_lorenz(points)

    def test_too_few_points_rejected(self):
        with pytest.raises(EmptyOrSingletonError):
            metrics_from_lorenz([(1.0, 1.0)])
        with pytest.raises(EmptyOrSingletonError):
            metrics_from_lorenz([])

    def test_non_finite_points_rejected(self):
        points = [(0.5, float("nan")), (1.0, 1.0)]
        with pytest.raises(NonFiniteValueError, match="index 0"):
            metrics_from_lorenz(points)

    def test_agrees_with_dataset_pipeline(self):
        curve = lorenz_curve(build_dataset(SYMMETRIC_VALUES))
        from_points = metrics_from_lorenz(list(zip(curve.p, curve.q)))
        from_data = report(build_dataset(SYMMETRIC_VALUES))
        assert from_points.gini == from_data.gini
        assert from_points.g_right == from_data.g_right
        assert from_points.g_left == from_data.g_left
        assert from_points.sag == from_data.sag


def assert_matches_oracle(result, exact, rel=Fraction(1, 10**12)):
    for name in ("gini", "g_right", "g_left", "sag"):
        want = getattr(exact, name)
        got = Fraction(getattr(result, name))
        assert abs(got - want) <= rel * abs(want), (name, float(got), float(want))


class TestKernelAgainstOracle:
    @pytest.mark.parametrize(
        "values",
        [[-1e20, 1e20, 1.0], [1e300, 2e300, 3e300], [1e-310, 2e-310, 3e-310]],
        ids=["cancelling", "near-overflow", "subnormal"],
    )
    def test_extreme_magnitudes(self, values):
        exact = rational_report([Fraction(v) for v in values])
        assert_matches_oracle(report(build_dataset(values)), exact)

    @pytest.mark.parametrize("n", [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_values_across_chunk_boundaries(self, n):
        rng = np.random.default_rng(n)
        values = rng.lognormal(0.0, 1.5, n) - 0.2
        values[0] = abs(values[0])
        exact = rational_report([Fraction(v) for v in values.tolist()])
        assert_matches_oracle(report(build_dataset(values)), exact)

    @pytest.mark.parametrize("n", [2, _CHUNK, _CHUNK + 1, _CHUNK + 2, 2 * _CHUNK + 2])
    def test_points_across_chunk_boundaries(self, n):
        # n points carry n - 1 interior shares, so these n put the chunk
        # edges at the same places as the values test above.
        values = np.sort(np.random.default_rng(n).lognormal(0.0, 1.5, n))
        q = np.cumsum(values) / values.sum()
        q[-1] = 1.0
        points = [((i + 1) / n, v) for i, v in enumerate(q.tolist())]
        exact = rational_report_from_lorenz(
            [(Fraction(i + 1, n), Fraction(v)) for i, v in enumerate(q.tolist())]
        )
        assert_matches_oracle(metrics_from_lorenz(points), exact)

    def test_near_equal_values_need_the_compensation(self):
        # Index sums 1e12 times smaller than the sums of |terms|: a plain
        # float dot product is off by 2.5e-3 relative here, and dropping
        # any part of the TwoProduct error term costs more than 1e-12.
        values = 1e12 + np.random.default_rng(7).random(4 * _CHUNK + 3)
        exact = rational_report([Fraction(v) for v in values.tolist()])
        assert_matches_oracle(report(build_dataset(values)), exact)

    def test_all_equal_across_chunks_is_exactly_zero(self):
        result = report(build_dataset([0.1] * (2 * _CHUNK + 1)))
        assert (result.gini, result.g_right, result.g_left, result.sag) == (0.0,) * 4
        assert result.skew_direction == "symmetric"


class TestRankWeights:
    def test_exact_integers_up_to_the_limit(self):
        n = _MAX_EXACT_N
        assert 3 * n * n <= 2**53 < 3 * (n + 1) ** 2
        for start, stop in ((0, 3), (n // 2 - 1, n // 2 + 2), (n - 3, n)):
            weights = _rank_weights(n, start, stop)
            for k, column in zip(range(start + 1, stop + 1), weights.T.tolist()):
                c1 = 2 * k - n - 1
                c2 = 3 * k * (k - 1) - (n * n - 1)
                assert column == [c1, c2, 3 * n * c1 - c2]

    def test_beyond_the_limit_raises(self):
        with pytest.raises(InvalidNError):
            _rank_weights(_MAX_EXACT_N + 1, 0, 3)
