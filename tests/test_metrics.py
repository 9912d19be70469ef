"""Unit tests for the core metric pipeline."""

import dataclasses
import math
import operator
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sagini import (
    BadEndpointError,
    Dataset,
    EmptyOrSingletonError,
    ExperimentConfig,
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
    sensitivity_sweep,
)
from sagini import metrics
from sagini.metrics import (
    _CHUNK,
    _FSUM_BELOW,
    _MAX_EXACT_N,
    LorenzCurve,
    _exponents,
    _rank_rows,
    _rank_sums,
    _replication_scores,
    _rounded_sums,
    _share_rows,
    _two_product,
)

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


#: Fifty -1e308, fifty 1e308 and 4: a valid total, but indices and Lorenz
#: shares beyond the float64 range.
HUGE_INDICES = [-1e308] * 50 + [1e308] * 50 + [4.0]


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

    # The kernel scales by the largest |x|: the small value's share of the
    # total underflows (to a subnormal, or to zero). In the last case fsum's
    # own partial sums overflow.
    @pytest.mark.parametrize(
        "values",
        [[1e300, -1e300, 1e-10], [1e308, -1e308, 5e-324], [1e308, 1e308, -1e308, -1e308, 1e-300]],
        ids=["subnormal", "zero", "fsum overflows"],
    )
    def test_total_beyond_dynamic_range_rejected(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValueError, match="dynamic range"):
                build_dataset(values)
            block = np.array([np.arange(1.0, len(values) + 1), values])
            with pytest.raises(NonFiniteValueError, match="dynamic range"):
                _replication_scores(block)

    def test_sweep_raises_the_first_bad_rows_error(self):
        # A row whose indices are beyond float64 and a nan row, in both
        # orders: the block raises what a row-by-row loop raises first.
        good = np.arange(1.0, 102.0)
        nan_row = good.copy()
        nan_row[7] = np.nan
        for rows in ([good, HUGE_INDICES, nan_row], [good, nan_row, HUGE_INDICES]):
            with pytest.raises(NonFiniteValueError) as by_row:
                for row in rows:
                    report(build_dataset(row))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteValueError) as by_block:
                    _replication_scores(np.array(rows))
            assert str(by_block.value) == str(by_row.value)

    def test_cancelled_total_that_is_zero_stays_non_positive(self):
        with pytest.raises(NonPositiveTotalError, match="got 0.0"):
            build_dataset([1e308, -1e308, 1.0, -1.0])

    def test_nan_rejected_with_index(self):
        with pytest.raises(NonFiniteValueError, match="index 2"):
            build_dataset([1.0, 2.0, float("nan"), 3.0])

    def test_infinity_rejected(self):
        with pytest.raises(NonFiniteValueError):
            build_dataset([1.0, float("inf")])

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([float("nan"), 1.0], "non-finite value nan at index 0"),
            ([1.0, 2.0, float("inf")], "non-finite value inf at index 2"),
            (np.array([1.0, -np.inf]), "non-finite value -inf at index 1"),
        ],
    )
    def test_non_finite_message_uses_the_float_repr(self, raw, message):
        with pytest.raises(NonFiniteValueError) as info:
            build_dataset(raw)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "raw, index",
        [([1.0, None, 2.0], 1), ([None, 1.0], 0), (np.array([1.0, 2.0, None]), 2)],
        ids=["list", "first", "object-array"],
    )
    def test_none_rejected_with_index(self, raw, index):
        with pytest.raises(TypeError, match=f"^values: None at index {index} is not a number"):
            build_dataset(raw)

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

    @pytest.mark.parametrize(
        "raw", ["12", b"12", bytearray(b"12")], ids=["str", "bytes", "bytearray"]
    )
    def test_text_input_rejected(self, raw):
        # A bytearray would otherwise be read as its byte codes, 49.0 and 50.0.
        with pytest.raises(TypeError, match=f"^values: {type(raw).__name__} input is text"):
            build_dataset(raw)

    def test_memoryview_of_floats_reads(self):
        raw = memoryview(np.array([1.0, 2.0, 3.0]))
        assert build_dataset(raw).values.tolist() == [1.0, 2.0, 3.0]

    def test_caller_array_stays_writeable(self):
        raw = np.array([1.0, 2.0, 3.0])
        data = build_dataset(raw)
        raw[0] = 9.0
        assert data.values.tolist() == [1.0, 2.0, 3.0]
        assert data.n == 3

    def test_above_the_kernel_limit_the_total_is_taken_alone(self, monkeypatch):
        # Data beyond the kernel's limit is accepted with the same total;
        # only the weighted sums, and so report, are refused.
        self.check_total_alone(monkeypatch, 50)

    def test_above_the_kernel_limit_the_total_is_taken_alone_across_chunks(self, monkeypatch):
        # The same over several chunks.
        self.check_total_alone(monkeypatch, 3 * _CHUNK + 1)

    @staticmethod
    def check_total_alone(monkeypatch, n):
        values = np.random.default_rng(n).lognormal(0.0, 1.0, n)
        total = build_dataset(values).total
        monkeypatch.setattr(metrics, "_MAX_EXACT_N", 20)
        data = build_dataset(values)
        assert data.total == total
        with pytest.raises(InvalidNError, match=f"^n = {n} is above 20, beyond which"):
            report(data)


class TestOnePass:
    """A dataset is sorted once, at build, and one kernel pass gives its
    total and the sums its report scores."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = metrics._rank_sums

        def counted(*args):
            calls.append(args[0].shape)
            return kernel(*args)

        monkeypatch.setattr(metrics, "_rank_sums", counted)
        return calls

    @pytest.mark.parametrize("n", [10, 3 * _CHUNK + 1])
    def test_report_of_a_new_dataset_runs_the_kernel_once(self, kernel_calls, n):
        report(build_dataset(np.random.default_rng(n).lognormal(0.0, 1.0, n)))
        assert kernel_calls == [(1, n)]

    def test_sweep_runs_the_kernel_once_per_block(self, kernel_calls):
        block = _CHUNK // 10
        cfg = ExperimentConfig(
            family="lognormal", sample_size=10, replications=2 * block + 3, seed=1
        )
        sensitivity_sweep(cfg)
        assert kernel_calls == [(block, 10), (block, 10), (3, 10)]

    def test_a_dataset_built_by_hand_sorts_and_sums_on_first_report(self, kernel_calls):
        assert [f.name for f in dataclasses.fields(Dataset)] == ["values", "total"]
        x = np.random.default_rng(5).lognormal(0.0, 1.0, 50)
        built = build_dataset(x)
        data = Dataset(values=x, total=built.total)
        assert data.sorted_values.tolist() == built.sorted_values.tolist()
        assert report(data) == report(built)
        # The indices are scored with the pass's own total; the given total
        # gives only the mean.
        doubled = Dataset(values=x, total=2 * built.total)
        assert indices(report(doubled)) == indices(report(built))
        assert report(doubled).mean == 2 * report(built).mean
        assert kernel_calls == [(1, 50), (1, 50), (1, 50)]

    @pytest.mark.parametrize(
        "values",
        [[0.0, 0.0], [1.0, -5.0], [1.0, np.inf], [np.nan, 1.0], [1e300, -1e300, 1e-10]],
        ids=["zero total", "negative total", "infinity", "nan", "cancelled total"],
    )
    def test_a_dataset_built_by_hand_raises_what_build_dataset_raises(self, values):
        # Judged by the pass's own total, not the positive one given.
        x = np.array(values)
        with pytest.raises((NonFiniteValueError, NonPositiveTotalError)) as built:
            build_dataset(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(built.type) as by_hand:
                report(Dataset(values=x, total=1.0))
        assert str(by_hand.value) == str(built.value)

    def test_lorenz_curve_reuses_the_sorted_values(self, monkeypatch):
        data = build_dataset(np.random.default_rng(4).lognormal(0.0, 1.0, 100))
        x = data.sorted_values
        sorts = []
        monkeypatch.setattr(np, "sort", lambda *args, **kwargs: sorts.append(args))
        report(data)
        curve = lorenz_curve(data)
        assert sorts == [] and data.sorted_values is x
        assert curve.q[:-1].tolist() == (np.cumsum(x) / data.total)[:-1].tolist()


class TestLorenzCurve:
    def test_fields_are_q_and_convex(self):
        assert [f.name for f in dataclasses.fields(LorenzCurve)] == ["q", "convex"]

    def test_grid_is_derived_from_n(self):
        curve = LorenzCurve(q=np.array([0.1, 0.3, 1.0]), convex=True)
        assert curve.n == 3
        assert curve.p.tolist() == (np.arange(1, 4, dtype=float) / 3).tolist()
        assert curve.p is curve.p
        assert not curve.p.flags.writeable

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

    def test_shares_of_huge_values_are_finite(self):
        # The running sums overflow float64; scaled by the kernel's power of
        # two they do not, and the shares are the exact ones, rounded.
        values = [-1e308, -1e308, 1e300, 1e308, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = lorenz_curve(build_dataset(values)).q
        exact = [sum(map(Fraction, values[:i])) / sum(map(Fraction, values)) for i in range(1, 6)]
        assert q.tolist() == pytest.approx([float(share) for share in exact], rel=1e-15)

    def test_share_beyond_float64_raises(self):
        with pytest.raises(NonFiniteValueError, match="Lorenz share is beyond the float64 range"):
            lorenz_curve(build_dataset(HUGE_INDICES))

    def test_shares_are_of_the_pass_total_not_a_given_one(self):
        # A dataset built by hand: its total gives only the mean, and its
        # values are validated as report validates them.
        assert lorenz_curve(Dataset(values=np.array([1.0, 2.0]), total=100.0)).q.tolist() == [1 / 3, 1.0]
        with pytest.raises(NonFiniteValueError, match="non-finite value nan at index 1"):
            lorenz_curve(Dataset(values=np.array([1.0, np.nan]), total=3.0))

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

    def test_indices_beyond_float64_raise(self):
        # The total 4 is valid, and the exact gini is above the largest float.
        exact = rational_report([Fraction(v) for v in HUGE_INDICES])
        assert exact.gini > Fraction(sys.float_info.max)
        data = build_dataset(HUGE_INDICES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValueError, match="gini is beyond the float64 range"):
                report(data)

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

    @pytest.mark.parametrize(
        "points, error, message",
        [
            ([(0.0, 0.2), (0.5, 0.3), (1.0, 1.0)], BadEndpointError,
             "a curve through p=0 must start at q=0, got q=0.2"),
            ([(0.1, 0.05), (0.35, 0.2), (1.0, 1.0)], UnequalSpacingError,
             "p grid must be uniform i/n: point 2 has p=0.35, expected 0.6666666666666666"),
            ([(0.5, 0.2), (1.0, 0.9)], BadEndpointError, "last q must be 1, got 0.9"),
        ],
        ids=["origin", "grid", "last-q"],
    )
    def test_messages_name_plain_floats(self, points, error, message):
        with pytest.raises(error) as info:
            lorenz_from_points(np.array(points))
        assert str(info.value) == message

    def test_bad_final_q_rejected(self):
        points = [(0.5, 0.2), (1.0, 0.9)]
        with pytest.raises(BadEndpointError):
            metrics_from_lorenz(points)

    def test_too_few_points_rejected(self):
        with pytest.raises(EmptyOrSingletonError):
            metrics_from_lorenz([(1.0, 1.0)])
        with pytest.raises(EmptyOrSingletonError):
            metrics_from_lorenz([])

    @pytest.mark.parametrize("origin", [False, True], ids=["without-origin", "with-origin"])
    @pytest.mark.parametrize("row", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("column", [0, 1], ids=["p", "q"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    def test_non_finite_points_rejected(self, value, column, row, origin):
        # The message names the first row holding a nan or an inf, counted
        # in the input, so a leading origin row moves it by one.
        points = [[i / 5, q] for i, q in enumerate([0.05, 0.2, 0.4, 0.7, 1.0], 1)]
        points[row][column] = value
        if row < 4:
            points[4][1 - column] = value  # a later bad row is not named
        if origin:
            points.insert(0, [0.0, 0.0])
        with pytest.raises(NonFiniteValueError) as raised:
            metrics_from_lorenz(points)
        assert str(raised.value) == f"non-finite Lorenz point at index {row + origin}"

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
        # The points path sums all n shares, so n = _CHUNK fills one chunk
        # and the larger n spill one or two shares into a further chunk.
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


class TestBlockKernel:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_each_row_sums_as_it_would_alone(self, weighted, monkeypatch):
        # Rows of different scales and signs, two chunk edges, one block:
        # the iterated sums and their combination run column by column.
        self.check_rows_alone(weighted, 2 * _CHUNK + 5, monkeypatch)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_each_row_sums_as_it_would_alone_in_one_chunk(self, weighted, monkeypatch):
        # One chunk: the coefficient rows are summed into the weights.
        self.check_rows_alone(weighted, _CHUNK, monkeypatch)

    @staticmethod
    def check_rows_alone(weighted, n, monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.lognormal(0.0, 2.0, (4, n)) * np.array([[1e-300], [1.0], [-3e7], [1e300]])
        x[1, ::7] = 0.0
        e = _exponents(x.min(axis=1), x.max(axis=1))
        if not weighted:
            # Above the limit _rank_rows gives the total's row alone.
            monkeypatch.setattr(metrics, "_MAX_EXACT_N", 1)
        for rows in (_rank_rows, _share_rows) if weighted else (_rank_rows,):
            sums = _rank_sums(x, e, rows)
            assert sums.shape == (4, 4 if weighted else 1)
            for row, e_row, sums_row in zip(x, e, sums.tolist()):
                alone = _rank_sums(row[np.newaxis], e_row[np.newaxis], rows)
                assert alone.tolist() == [sums_row]

    def test_scaling_matches_ldexp_at_every_magnitude(self):
        # Rows whose largest |x| is subnormal (2**-e is then no float), near
        # the top of the range (small values scale into the subnormals and
        # round there) and ordinary: each scales as np.ldexp(x, -e) would.
        rng = np.random.default_rng(5)
        n = 1000
        x = np.stack(
            [
                rng.integers(1, 2**20, n) * 5e-324,
                np.concatenate((rng.random(n - 3) * 3.0, [1.7e308, -1e308, 2**-60])),
                rng.lognormal(0.0, 1.0, n) - 0.5,
            ]
        )
        e = _exponents(x.min(axis=1), x.max(axis=1))
        assert e.tolist() == np.frexp(np.abs(x).max(axis=1))[1].tolist()
        sums = _rank_sums(x, e, _rank_rows)
        scaled = np.ldexp(x, -e[:, np.newaxis])
        assert (np.abs(scaled[1]) < 2.0**-1022).sum() > n // 2
        # One chunk: the total is the fsum of the scaled values themselves.
        assert sums[:, -1].tolist() == [math.fsum(row) for row in scaled.tolist()]

    @pytest.mark.parametrize("n", [2, 10, _CHUNK])
    def test_one_chunk_sums_are_correctly_rounded(self, n):
        # Within one chunk every TwoProduct piece is exact, so each sum,
        # c3's and the total's included, is the exact dot product rounded
        # once: for the rank weights and for their differences over shares.
        rng = np.random.default_rng(n)
        x = np.sort(rng.lognormal(0.0, 2.0, n) * rng.choice([-1.0, 1.0], n))
        e = _exponents(x[:1], x[-1:])
        scaled = [Fraction(v) for v in np.ldexp(x, -e[0]).tolist()]
        for rows, weights in ((_rank_rows, rank_weights), (_share_rows, share_weights)):
            sums = _rank_sums(x[np.newaxis], e, rows)
            exact = [float(sum(w * v for w, v in zip(c, scaled))) for c in weights(n)]
            assert sums[0].tolist() == exact

    @pytest.mark.parametrize("b", [3.0 * _MAX_EXACT_N, math.pi], ids=["3n at the limit", "53 bits"])
    def test_two_product_error_is_exact(self, b):
        # a b == ab + err exactly, element by element. Below n of about
        # 2.2e7 the low half of 3n's split is zero, so one product of the
        # error term can only be checked at larger n.
        rng = np.random.default_rng(3)
        a = rng.standard_normal(1000) * 2.0 ** rng.integers(-40, 40, 1000)
        ab = a * b
        err = _two_product(a, b, ab)
        for a_k, ab_k, err_k in zip(a.tolist(), ab.tolist(), err.tolist()):
            assert Fraction(a_k) * Fraction(b) == Fraction(ab_k) + Fraction(err_k)


def rank_weights(n):
    """The weights ``c1``, ``c2`` and ``c3`` of ranks 1 .. n and the
    total's weight 1, as Python ints."""
    c1 = [2 * k - n - 1 for k in range(1, n + 1)]
    c2 = [3 * k * (k - 1) - (n * n - 1) for k in range(1, n + 1)]
    return c1, c2, [3 * n * a - b for a, b in zip(c1, c2)], [1] * n


def share_weights(n):
    """The differences ``c_k - c_(k+1)`` of the index weights of
    :func:`rank_weights`, ``c_(n+1) = 0``, and the weights of the shares'
    total ``q_n``."""
    differences = [[a - b for a, b in zip(c, c[1:] + [0])] for c in rank_weights(n)[:3]]
    return differences + [[0] * (n - 1) + [1]]


class TestRankWeights:
    """The W-column coefficient rows stand for the rank weights exactly."""

    def test_exact_integers_up_to_the_limit(self):
        assert 3 * _MAX_EXACT_N**2 <= 2**53 < 3 * (_MAX_EXACT_N + 1) ** 2
        self.check_rows(_MAX_EXACT_N)

    @pytest.mark.parametrize("n", [_CHUNK + 1, 4 * _CHUNK + 3])
    def test_exact_integers_across_chunks(self, n):
        self.check_rows(n)

    @staticmethod
    def check_rows(n):
        W = _CHUNK
        kappa = range(1, W + 1)
        rank, none = _rank_rows(n)
        share, last = _share_rows(n)
        assert none is None and rank.shape == (4, 3, W) and share.shape == (4, 2, W)
        d1 = [[2 * k - n - 1 - 2 * W for k in kappa], [2 * W] * W, [0] * W]
        d2 = [
            [3 * k * (k - 1) - 3 * W * (2 * k - 1) + 3 * W * W - (n * n - 1) for k in kappa],
            [3 * W * (2 * k - 1) - 9 * W * W for k in kappa],
            [6 * W * W] * W,
        ]
        total = [[1] * W, [0] * W, [0] * W]
        s1 = [[-2] * W, [0] * W]
        s2 = [[-6 * (k - W) for k in kappa], [-6 * W] * W]
        for got, (a, b), more in ((rank, (d1, d2), [total]), (share, (s1, s2), [[[0] * W] * 2])):
            third = [[3 * n * u - v for u, v in zip(r, s)] for r, s in zip(a, b)]
            assert got.tolist() == [a, b, third] + more
            assert np.abs(got).max() < 2**53
        assert last.tolist() == [n + 1, (2 * n + 1) * (n + 1), n * n - 1, 1]
        # Sparse integer data at both ends, in the middle and at chunk
        # edges: the rows on its iterated sums give the weighted sums.
        ranks = sorted({1, 2, W, W + 1, n // 2, n - W - 1, n - W, n - 1, n} - {0})
        values = dict(zip(ranks, np.random.default_rng(n).integers(-(2**40), 2**40, len(ranks)).tolist()))
        sums = {}
        for k, v in values.items():
            c, j = divmod(k - 1, W)
            a, b, e = sums.get(j, (0, 0, 0))
            sums[j] = (a + v, b + (c + 1) * v, e + (c + 1) * (c + 2) // 2 * v)
        for rows, extra in ((rank, [0, 0, 0, 0]), (share, last.tolist())):
            got = [
                sum(int(row[s][j]) * sums[j][s] for j in sums for s in range(rows.shape[1]))
                + int(x) * values[n]
                for row, x in zip(rows.tolist(), extra)
            ]
            if rows is rank:
                c1 = {k: 2 * k - n - 1 for k in values}
                c2 = {k: 3 * k * (k - 1) - (n * n - 1) for k in values}
            else:
                c1 = {k: -2 if k < n else n - 1 for k in values}
                c2 = {k: -6 * k if k < n else (2 * n - 1) * (n - 1) for k in values}
            want = [sum(c[k] * v for k, v in values.items()) for c in (c1, c2)]
            want.append(3 * n * want[0] - want[1])
            want.append(sum(values.values()) if rows is rank else values[n])
            assert got == want

    @pytest.mark.parametrize("n", [2, 10, _CHUNK])
    def test_one_chunk_rows_sum_to_the_weights(self, n):
        rank, _ = _rank_rows(n)
        share, last = _share_rows(n)
        assert rank.sum(axis=1).tolist() == [list(c) for c in rank_weights(n)]
        summed = share.sum(axis=1)
        summed[:, -1] += last
        assert summed.tolist() == share_weights(n)

    def test_beyond_the_limit_raises(self):
        # Checked before the values are sorted or summed; a broadcast view
        # holds the n values in one float.
        n = _MAX_EXACT_N + 1
        message = f"^n = {n} is above {_MAX_EXACT_N}, beyond which"
        data = Dataset(values=np.broadcast_to(1.0, (n,)), total=float(n))
        with pytest.raises(InvalidNError, match=message):
            report(data)
        curve = LorenzCurve(q=np.broadcast_to(1.0, (n,)), convex=True)
        with pytest.raises(InvalidNError, match=message):
            metrics_from_lorenz(curve)
        # Only the total's row is exact there, and it is all the rows.
        rows, last = _rank_rows(n)
        assert rows.tolist() == [[[1.0] * _CHUNK]] and last is None


def fsums(p):
    """math.fsum of each row of ``p``, as the bits of a uint64 array."""
    rows = p.reshape(-1, p.shape[-1]).tolist()
    return np.array(list(map(math.fsum, rows))).reshape(p.shape[:-1]).view(np.uint64)


class TestRoundedSums:
    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """The number of rows each call of _rounded_sums leaves to fsum."""
        calls = []
        fsum_rows = metrics._fsums

        def counted(p):
            calls.append(p.size // p.shape[-1])
            return fsum_rows(p)

        monkeypatch.setattr(metrics, "_fsums", counted)
        return calls

    def test_the_fast_path_proves_nearly_every_sum_of_a_sweep_block(self, fallbacks):
        cfg = ExperimentConfig("lognormal", sample_size=10, replications=_CHUNK // 10, seed=1)
        sensitivity_sweep(cfg)
        assert sum(fallbacks) <= 0.01 * 4 * cfg.replications

    def test_rows_it_cannot_prove_fall_back_to_fsum(self, fallbacks):
        rng = np.random.default_rng(8)
        p = rng.lognormal(0.0, 1.0, (_FSUM_BELOW // 20 + 6, 20))
        chosen = [
            [1.0, 2.0**-53],  # a tie, rounded to even
            [1.0, -1.0],  # zero
            [-0.0, -0.0],
            [2.0**-1070, -(2.0**-1072)],  # subnormal
            [1.7e308, -1.7e308],  # 2**(E + M) overflows
            [1.0, 2.0**-53 + 2.0**-104],  # just past a tie
        ]
        for i, row in enumerate(chosen):
            p[i] = 0.0
            p[i, : len(row)] = row
        p = p.reshape(-1, 2, 20)
        assert p.size >= _FSUM_BELOW
        got = _rounded_sums(p)
        assert got.view(np.uint64).tolist() == fsums(p).tolist()
        assert len(chosen) <= fallbacks[0] < len(chosen) + 3

    def test_small_arrays_go_to_fsum_alone(self, fallbacks):
        p = np.random.default_rng(9).lognormal(0.0, 1.0, (1, 4, 20))
        assert _rounded_sums(p).view(np.uint64).tolist() == fsums(p).tolist()
        assert fallbacks == [4]


@st.composite
def fsum_rows(draw):
    """A ``(b, m)`` block of finite rows of one kind: cancelling pairs,
    magnitudes to 1e+-300, huge values near the top of the range,
    subnormals, zeros of both signs, exact ties and near-ties, or sums on
    and next to a power of two."""
    b = draw(st.integers(1, 60))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(
            ["cancelling", "wide", "huge", "subnormal", "zeros", "ties", "power of two"]
        )
    )
    if kind == "cancelling":
        half = rng.standard_normal((b, m // 2)) * 10.0 ** rng.integers(-300, 301, (b, m // 2))
        rest = rng.standard_normal((b, m % 2)) * 10.0 ** rng.integers(-300, 301, (b, 1))
        p = rng.permuted(np.concatenate((half, -half, rest), axis=1), axis=1)
    elif kind == "wide":
        p = rng.standard_normal((b, m)) * 10.0 ** rng.integers(-300, 301, (b, m))
    elif kind == "huge":
        # Pairs that cancel one after the other, so fsum never overflows.
        a = rng.uniform(1e307, 1.7e308, (b, (m + 1) // 2))
        p = np.stack((a, -a * rng.choice([1.0, 1.0 - 2.0**-52], a.shape)), axis=-1)
        p = p.reshape(b, -1)[:, :m]
    elif kind == "subnormal":
        p = rng.integers(-(2**20), 2**20, (b, m)) * 5e-324
    elif kind == "zeros":
        p = np.where(rng.random((b, m)) < 0.5, -0.0, 0.0)
    elif kind == "ties":
        # A value, half the gap to its neighbour either way, cancelling
        # pairs and sometimes a nudge off the tie, which the float sum of
        # the small pieces may keep or lose. Half the values are powers of
        # two, whose gap below is half the gap above.
        mantissa = np.where(rng.random((b, 1)) < 0.5, 2**52, rng.integers(2**52, 2**53, (b, 1)))
        base = mantissa * 2.0 ** rng.integers(-60, 60, (b, 1))
        below = rng.random((b, 1)) < 0.5
        half = np.where(below, np.nextafter(base, 0.0) - base, np.spacing(base)) / 2
        nudge = half * 2.0 ** -rng.integers(40, 100, (b, 1)) * rng.integers(0, 2, (b, 1))
        pairs = rng.lognormal(0.0, 1.0, (b, 2)) * base
        pieces = np.concatenate((base, half, nudge, pairs, -pairs), axis=1)
        p = np.concatenate((rng.permuted(pieces, axis=1), np.zeros((b, m))), axis=1)[:, :m]
    else:
        # Integers whose exact sum is 2**k, less or more a small piece.
        ints = rng.integers(-(2**40), 2**40, (b, m))
        k = rng.integers(41, 52, b)
        ints[:, -1] = 2**k - ints[:, :-1].sum(axis=1)
        tweak = rng.choice([0.0, 2.0**-30, -(2.0**-30)], (b, 1))
        p = np.concatenate((ints * 1.0, tweak), axis=1)
    return p


@settings(max_examples=200, deadline=None)
@given(fsum_rows())
def test_rounded_sums_are_fsum_bit_for_bit(p):
    # On the block as drawn, which may be below the small-array limit, and
    # on the block repeated to above it, where the fast path runs.
    big = np.tile(p, (-(-_FSUM_BELOW // p.size), 1))
    assert big.size >= _FSUM_BELOW
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in (p, big, big.reshape(big.shape[0], 1, -1)):
            assert _rounded_sums(block).view(np.uint64).tolist() == fsums(block).tolist()


@st.composite
def scaled_integers(draw):
    """Integer-valued floats over two to four chunks: wide magnitudes with
    mixed signs, cancelling pairs, or near-equal values, sorted or not.
    ``n`` takes exact multiples of the chunk and multiples plus one."""
    n = draw(
        st.one_of(
            st.integers(_CHUNK + 1, 4 * _CHUNK),
            st.sampled_from([2 * _CHUNK, 4 * _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1]),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["wide", "cancelling", "near-equal"]))
    if kind == "wide":
        x = rng.integers(-(2**53) + 1, 2**53, n) * 2.0 ** rng.integers(0, 60, n)
    elif kind == "cancelling":
        half = rng.integers(1, 2**53, (n - 1) // 2) * 2.0 ** rng.integers(0, 40, (n - 1) // 2)
        x = np.concatenate((half, -half, rng.integers(1, 2**20, n - 2 * half.size) * 1.0))
    else:
        x = 2.0**52 + rng.integers(0, 8, n)
    return np.sort(x) if draw(st.booleans()) else rng.permutation(x)


@settings(max_examples=20, deadline=None)
@given(scaled_integers(), st.booleans())
def test_kernel_sums_stay_within_the_bound_across_chunks(x, shares):
    # The module doc's bound on each sum D with coefficient rows alpha,
    # beta, epsilon on A, B, E: u |D| + gamma**2 sum_j (|alpha_j| B~_j +
    # |beta_j| E~_j + 2 |epsilon_j| F~_j), gamma = 4Lu / (1 - 4Lu), with
    # B~, E~, F~ the column sums of |x| weighted by (c+1), (c+1)(c+2)/2
    # and (c+1)(c+2)(c+3)/6. Evaluated exactly, on the unscaled integers.
    rows = _share_rows if shares else _rank_rows
    n = x.size
    e = _exponents(x[np.newaxis, :].min(axis=1), x[np.newaxis, :].max(axis=1))
    got = _rank_sums(x[np.newaxis], e, rows)[0].tolist()
    ints = [int(v) for v in x.tolist()]
    exact = [sum(map(operator.mul, c, ints)) for c in (share_weights if shares else rank_weights)(n)]
    weighted = [[0] * _CHUNK for _ in range(3)]
    for k, v in enumerate(ints):
        c, j = divmod(k, _CHUNK)
        weighted[0][j] += (c + 1) * abs(v)
        weighted[1][j] += (c + 1) * (c + 2) // 2 * abs(v)
        weighted[2][j] += (c + 1) * (c + 2) * (c + 3) // 6 * abs(v)
    u = Fraction(1, 2**53)
    four_l = 4 * (-(-n // _CHUNK) + 1)
    gamma = four_l * u / (1 - four_l * u)
    for d_hat, d, row in zip(got, exact, rows(n)[0].tolist()):
        s = sum(
            f * int(abs(a)) * t for f, r, w in zip((1, 1, 2), row, weighted) for a, t in zip(r, w)
        )
        assert abs(Fraction(d_hat) * 2 ** int(e[0]) - d) <= u * abs(d) + gamma**2 * s


@settings(max_examples=20, deadline=None)
@given(scaled_integers())
def test_kernel_total_stays_within_its_bound_across_chunks(x):
    # The total's weight 1 on A alone makes every Dot2 product exact: the
    # total row is the plain Sum2 of A bit for bit, within the module doc's
    # u |T| + gamma_L**2 sum|x_k|, gamma_L = Lu / (1 - Lu).
    n = x.size
    e = _exponents(x[np.newaxis, :].min(axis=1), x[np.newaxis, :].max(axis=1))
    total = _rank_sums(x[np.newaxis], e, _rank_rows)[0, -1]
    with pytest.MonkeyPatch.context() as patch:
        # Above the limit _rank_rows gives the total's row alone.
        patch.setattr(metrics, "_MAX_EXACT_N", 1)
        assert total == _rank_sums(x[np.newaxis], e, _rank_rows)[0, 0]
    ints = [int(v) for v in x.tolist()]
    exact = sum(ints)
    u = Fraction(1, 2**53)
    big_l = -(-n // _CHUNK) + 1
    gamma = big_l * u / (1 - big_l * u)
    bound = u * abs(exact) + gamma**2 * sum(map(abs, ints))
    assert abs(Fraction(total) * 2 ** int(e[0]) - exact) <= bound


def dataset_outcome(x):
    """The total and report of ``x``, or the error it raises."""
    try:
        data = build_dataset(x)
        return data.total, report(data)
    except (NonFiniteValueError, NonPositiveTotalError) as exc:
        return type(exc), str(exc)


@settings(max_examples=20, deadline=None)
@given(scaled_integers(), st.integers(0, 2**32 - 1))
def test_total_and_report_do_not_depend_on_the_input_order(x, seed):
    # The kernel pass runs over the sorted values, so the order of the
    # input cannot change a bit, across chunks too.
    y = np.random.default_rng(seed).permutation(x)
    assert dataset_outcome(x) == dataset_outcome(y)
