"""Lorenz curves and asymmetry-sensitive inequality indices.

The classical dispersion index is ``(2/n) * sum(p_i - q_i)`` over the n-1
interior points of the Lorenz curve; the textbook prefactor ``2n/n^2``
reduces to ``2/n`` and is implemented that way (the two expressions divide
to the same float). Two weighted variants emphasize the tails: ``g_right``
weights each gap by ``2i/n`` (upper tail), ``g_left`` by ``(2n-2i)/n``
(lower tail, the same weights reversed). Their mean is always the plain
index, and ``sag = gini + |g_right - g_left|/2`` equals the larger of the
two, so it adds asymmetry information on top of dispersion.

Summed by parts, each index is an L-statistic: with ``x`` sorted ascending,
``T`` its total and ``k`` the 1-based rank,

* ``gini    = sum(c1_k x_k) / (n T)``,      ``c1 = 2k - n - 1``,
* ``g_right = 2 sum(c2_k x_k) / (3 n^2 T)``, ``c2 = 3k(k-1) - (n^2 - 1)``,
* ``g_left  = 2 sum(c3_k x_k) / (3 n^2 T)``, ``c3 = 3n c1 - c2``.

:func:`build_dataset` sorts the values once, and one pass of one kernel
over them gives ``T`` and the three sums, which :func:`report` scores;
:func:`metrics_from_lorenz` runs the same kernel over the shares. It takes
the values in chunks of ``W = _CHUNK``. Write the rank as ``k =
cW + j + 1``, with chunk ``c``, column ``j`` and ``kappa = j + 1``. Every
weight is then a polynomial of degree at most two in ``c + 1``, so each
weighted sum is a column-wise combination of three iterated sums that need
no weights::

    A_j = sum_c x,   B_j = sum_c (c+1) x,   E_j = sum_c (c+1)(c+2)/2 x,

    D1 = sum_j (2 kappa - n - 1 - 2W) A_j + 2W B_j,
    D2 = sum_j (3 (kappa - W)(kappa - W - 1) - (n^2 - 1)) A_j
             + (3W (2 kappa - 1) - 9 W^2) B_j + 6 W^2 E_j,

and ``D3``'s rows are ``3n`` times ``D1``'s minus ``D2``'s, from the identity
``g_right + g_left = 2 gini`` (``c3 = 3n c1 - c2``). ``T`` is a fourth
weighting, the weight 1: its rows are 1 on ``A`` and 0 on ``B`` and
``E``. It is the last weighting of every pass, so each pass ends in the
total of the values it summed. The kernel forms the
iterated sums from the last chunk to the first: ``A += x_c``, then ``B +=
A``, then ``E += B``, each an error-free TwoSum whose rounding error goes
to a low column; ``B``'s low column also takes ``A``'s, and ``E``'s takes
``B``'s. These W-column coefficient rows are exact integers, within about
``2 n^2 + 6 n W``; the first-to-last order would put ``3 (n + W)^2`` on the
``A`` row. At the end each column's products with the rows are combined
as in Dot2 (Ogita, Rump and Oishi, "Accurate Sum and Dot Product", SIAM J.
Sci. Comput. 2005): an exact TwoProduct for each high column, a TwoSum
across the rows, and the errors and the low columns' products summed in a
low column. Each sum's columns are then added up correctly rounded, to
the bits :func:`math.fsum` gives, by :func:`_rounded_sums` for all sums
of a block at once: it splits every piece of a sum at a power of two
``sigma`` well above the sum's largest piece (ExtractVector, from Rump,
Ogita and Oishi, "Accurate Floating-Point Summation Part I", SIAM J.
Sci. Comput. 2008) into high parts that add up exactly and low parts
whose float sum has a bounded error, and keeps the TwoSum of the two
where that bound proves it is the correctly rounded sum. The few sums it
cannot prove, and all sums of a small block, are summed by
:func:`math.fsum` itself. The kernel takes a block of rows, one dataset
each, and sums each row on its own, so a block gives every row the bits
it would get alone; a report is the block of one, and a replication
sweep evaluates many rows per block. Data of one chunk has ``A = B = E =
x``: the rows are summed into ``c1``, ``c2``, ``c3`` and 1 first, every
TwoProduct with ``x`` is exact, and each sum is the correctly rounded sum
of those exact products.

With ``C`` chunks, ``L = C + 1``, ``u = 2**-53`` and ``gamma = 4Lu / (1 -
4Lu)``, each sum ``D`` whose rows on ``A``, ``B`` and ``E`` are ``alpha``,
``beta`` and ``epsilon`` is within ``u |D| + gamma**2 * sum_j (|alpha_j|
B~_j + |beta_j| E~_j + 2 |epsilon_j| F~_j)`` of its exact value, where
``B~``, ``E~`` and ``F~`` are the column sums of ``|x|`` weighted by
``(c+1)``, ``(c+1)(c+2)/2`` and ``(c+1)(c+2)(c+3)/6``. Each low column adds
up rounding errors of its own high column and the low column one level
down, so each level of iteration weights the bound by one more factor of
about ``c``. ``T``'s rows make every Dot2 product exact, so ``T`` is a
Sum2 of ``A`` in each column, as a plain sum would be, and is within ``u
|T| + gamma_L**2 * sum|x_k|`` with ``gamma_L = Lu / (1 - Lu)``.

Values are first scaled by the power of two ``2**-e`` that brings the
largest ``|x|`` into [0.5, 1), so no product or partial sum overflows;
sorted data takes ``e`` from its ends. The scores divide ``D1``, ``D2``
and ``D3`` by the same pass's scaled ``T``, so the scale cancels and is
never undone.
The scaling is a multiplication, exact upwards and correctly rounded
downwards, in two factors where ``2**-e`` exceeds the largest float (the
largest ``|x|`` below ``2**-1024``). The bounds hold barring underflow,
which only touches values some 1e290 times smaller than the largest. Data
whose scaled total is zero or subnormal, where that underflow can swamp
the total, is rejected by :func:`build_dataset` and by a replication sweep
rather than divided by. No weight is formed per value, so only the
coefficient rows and the normalisers ``n`` and ``3 n^2`` need to be exact
in float64: both are up to ``n = _MAX_EXACT_N`` (about 5.5e7). Larger
inputs make :func:`report` and :func:`metrics_from_lorenz` raise
:class:`InvalidNError` before any sort or sum; there the rank rows are
``T``'s alone, which stay exact, so :func:`build_dataset` still totals.

For Lorenz points the weights are summed by parts over the shares: ``D =
sum((c_k - c_(k+1)) q_k)`` with ``c_(n+1) = 0`` and ``T = q_n = 1``. The
differences are ``-2`` and ``-6k`` below ``k = n``, so ``D1 = -2 sum_j A_j
+ (n + 1) q_n`` and ``D2 = sum_j (-6 (kappa - W) A_j - 6W B_j) + (2n +
1)(n + 1) q_n``, ``D3``'s rows are again ``3n`` times ``D1``'s minus
``D2``'s, and the ``q_n`` pieces are exact products: ``T``, with zero
rows and the weight 1 on ``q_n``, is ``q_n`` scaled, exactly.

This kernel is the only float path for the indices; the exact rational
evaluations in :mod:`sagini.oracle` are its ground truth. Every value
type is immutable after construction; all operations are pure functions
and safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Literal, NoReturn, Sequence, get_args

import numpy as np

from .errors import (
    BadEndpointError,
    EmptyOrSingletonError,
    InvalidNError,
    NonFiniteValueError,
    NonPositiveTotalError,
    UnequalSpacingError,
)

SkewDirection = Literal["symmetric", "right", "left"]

#: |g_right - g_left| at or below this reports as "symmetric", so float noise
#: on palindromic gaps never shows up as spurious skew.
SKEW_TOLERANCE = 1e-9

#: Slack for float checks that are exact identities in real arithmetic
#: (convexity of share increments, gaps above the diagonal).
_CONVEXITY_SLACK = 1e-12

#: Values per chunk of the compensated kernel: large enough to amortise
#: numpy's per-call cost, small enough that a chunk's temporaries stay in
#: cache and peak memory does not grow with n.
_CHUNK = 8192

#: Arrays of fewer pieces are summed by :func:`math.fsum` alone in
#: :func:`_rounded_sums`: below this the vectorised path's fixed cost of
#: about thirty numpy calls exceeds fsum's per-piece cost.
_FSUM_BELOW = 1000

#: Dekker's splitting constant ``2**27 + 1``: ``a * _SPLIT`` cuts a float
#: into two halves of at most 26 significant bits each, whose products are
#: exact.
_SPLIT = 134217729.0

#: Largest n for which the tail normaliser ``3 n^2`` is an exact integer in
#: float64 (``3 n^2 <= 2**53``). The coefficient rows of :func:`_rank_rows`
#: and :func:`_share_rows`, within about ``2 n^2 + 6 n _CHUNK``, are exact
#: integers there too.
_MAX_EXACT_N = math.isqrt(2**53 // 3)


#: The smallest normal float64. A total scaled as in :func:`_rank_sums` that
#: is smaller in magnitude has cancelled into the range where the
#: scaled values underflow, and the kernel's bound no longer holds.
_TINY = sys.float_info.min

#: The numerators' factors in :func:`_scores`: ``D1``, ``2 D2``, ``2 D3``.
_ONE_TWO_TWO = np.array([[1.0], [2.0], [2.0]])

#: Element types :func:`build_dataset` refuses rather than converting.
_NOT_NUMBERS = (str, bytes, type(None))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Dataset:
    """Validated observations, kept in input order and sorted.

    Build one with :func:`build_dataset`; it enforces at least two finite
    values with a strictly positive total. Individual zeros and negatives
    are fine. :func:`build_dataset` sorts the values once and keeps the
    sorted copy, and the kernel pass that gives the total also gives the
    sums :func:`report` scores; a dataset built by hand sorts, checks and
    sums on first use, raising what :func:`build_dataset` would, and its
    ``total`` gives only the ``mean``.
    """

    values: np.ndarray
    total: float

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def mean(self) -> float:
        return self.total / self.n

    @cached_property
    def sorted_values(self) -> np.ndarray:
        """Ascending copy of the observations."""
        return _readonly(np.sort(self.values))

    @cached_property
    def _sums(self) -> np.ndarray:
        """The scaled sums ``D1``, ``D2``, ``D3`` and ``T`` of
        ``sorted_values`` (``T`` alone above ``_MAX_EXACT_N`` values), as
        :func:`_sorted_sums` gives them for a block of one.

        Values that :func:`build_dataset` would refuse raise its error here:
        a dataset built by hand is validated on first use, by the pass's
        own total rather than by ``total``."""
        return _checked_sums(self.values, self.sorted_values)[0]


@dataclass(frozen=True, eq=False)
class LorenzCurve:
    """Cumulative resource shares ``q`` at the population shares ``p_i = i/n``.

    A curve holds only ``q`` (``q_n`` is exactly 1) and ``convex``; ``n`` is
    the length of ``q`` and the grid ``p`` is derived from it, so every
    curve is scored on the grid it shows. ``convex`` records whether
    successive increments of ``q`` are non-decreasing; curves built from
    sorted observations always are, point-set input may not be.
    """

    q: np.ndarray
    convex: bool

    @property
    def n(self) -> int:
        return self.q.size

    @cached_property
    def p(self) -> np.ndarray:
        """The uniform grid ``i/n``, ``i = 1 .. n``."""
        n = self.n
        return _readonly(np.arange(1, n + 1, dtype=float) / n)


@dataclass(frozen=True)
class InequalityReport:
    """The four indices plus the skew call for one dataset or point set.

    ``mean`` is None when the report came from Lorenz points alone, which
    carry no scale information. ``convex`` is False when the underlying
    curve has a decreasing share increment somewhere (possible only for
    point-set input).
    """

    n: int
    mean: float | None
    gini: float
    g_right: float
    g_left: float
    sag: float
    skew_direction: SkewDirection
    convex: bool = True


def build_dataset(raw: Iterable[float]) -> Dataset:
    """Validate raw observations into a :class:`Dataset`.

    The values are copied and sorted once; the sorted copy is the
    dataset's ``sorted_values``. One kernel pass over it gives the total
    and the sums :func:`report` scores (the total alone above
    ``_MAX_EXACT_N``, see module doc). A dataset that is never reported,
    say one only drawn with :func:`lorenz_curve`, pays for those sums all
    the same: the pass costs about three times the total alone.

    Parameters
    ----------
    raw : iterable of real numbers
        Resource values (e.g. incomes), any order.

    Raises
    ------
    TypeError
        Text as the input or as any value, or None; numeric text is not
        silently parsed, so read it with :mod:`sagini.io` or convert it
        first, and None is not read as NaN. The first bad index is reported.
    EmptyOrSingletonError
        Fewer than two observations; the curve needs at least one
        interior point.
    NonFiniteValueError
        Any NaN or infinity (the first offending index is reported), or a
        sum beyond the float64 range: above it, or positive but cancelled
        to less than ``2**-1022`` times the largest ``|value|``, where the
        scaled kernel loses the small values.
    NonPositiveTotalError
        Values summing to zero or less; shares would be undefined or
        sign-flipped.
    """
    if isinstance(raw, (str, bytes, bytearray)):
        raise TypeError(f"values: {type(raw).__name__} input is text, not a sequence of numbers")
    if not hasattr(raw, "__len__"):
        raw = list(raw)
    _reject_non_numbers(raw)
    # A copy, so the caller's array is never made read-only.
    values = np.array(raw, dtype=float)
    if values.ndim != 1:
        raise ValueError("expected a one-dimensional sequence of values")
    if values.size < 2:
        raise EmptyOrSingletonError(
            f"need at least 2 observations, got {values.size}"
        )
    x = np.sort(values)
    sums, total = _checked_sums(values, x)
    data = Dataset(values=_readonly(values), total=total)
    # The cached properties take what this pass already has.
    vars(data)["sorted_values"] = _readonly(x)
    vars(data)["_sums"] = sums
    return data


def _checked_sums(values: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """The kernel pass over ``x``, the sorted copy of ``values``: its sums
    as :func:`_sorted_sums` gives them for a block of one, and its total.

    Raises what :func:`build_dataset` documents for values that are not
    finite or whose total, the pass's own, is not positive.
    """
    # NaN sorts last and the infinities sit at the ends.
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NonFiniteValueError(f"non-finite value {float(values[i])!r} at index {i}")
    sums, totals = _sorted_sums(x[np.newaxis])
    total = float(totals[0])
    if math.isinf(total):
        raise NonFiniteValueError("the sum of the values overflows float64")
    if abs(sums[0, -1]) < _TINY:
        _raise_cancelled_total(values)
    if total <= 0.0:
        raise NonPositiveTotalError(
            f"sum of values must be positive, got {total!r}"
        )
    return sums, total


def _raise_cancelled_total(values: np.ndarray) -> NoReturn:
    """Raise for finite values whose scaled total is zero or subnormal.

    The kernel cannot tell such a total from zero, so a correctly rounded
    :func:`math.fsum` decides: a total of zero or less is
    :class:`NonPositiveTotalError` as usual, a positive one is beyond the
    dynamic range the kernel holds. When fsum's partial sums overflow,
    the values cancel from beyond float64's range, which counts as the
    latter.
    """
    try:
        total = math.fsum(values.tolist())
    except OverflowError:
        total = math.inf
    if total <= 0.0:
        raise NonPositiveTotalError(f"sum of values must be positive, got {total!r}")
    raise NonFiniteValueError(
        "the values span more than float64's dynamic range: their total "
        "cancels to less than 2**-1022 times their largest magnitude, "
        f"{float(np.abs(values).max())!r}"
    )


def _reject_non_numbers(raw: Iterable[float]) -> None:
    """Raise :class:`TypeError` at the first str, bytes or None value.

    numpy would parse numeric text and turn None into NaN, so neither
    reaches the conversion. A numeric array costs only a dtype check;
    other input is scanned once for the set of types it holds.
    """
    if isinstance(raw, np.ndarray):
        if raw.dtype.kind not in "OSU":
            return
        raw = raw.tolist()
    if not any(issubclass(t, _NOT_NUMBERS) for t in set(map(type, raw))):
        return
    i, v = next((i, v) for i, v in enumerate(raw) if isinstance(v, _NOT_NUMBERS))
    if v is None:
        raise TypeError(f"values: None at index {i} is not a number; pass int or float")
    raise TypeError(
        f"values: string {v!r} at index {i} is not silently parsed as a "
        "number; pass int or float"
    )


def lorenz_curve(data: Dataset) -> LorenzCurve:
    """Accumulate shares ``q_i = s_i/T`` of ``data.sorted_values``.

    The running sums ``s_i`` are of those values scaled by the kernel's
    ``2**-e``, and ``T`` is the scaled total of the dataset's own
    kernel pass (see module doc). Scaling by a power of two is exact
    barring underflow, so the shares are those of the unscaled sums, and
    no running sum overflows. ``T`` is not the running float sum, which can
    cancel to zero or below on mixed-sign data whose exact total is
    positive, nor the ``total`` given to a dataset built by hand, whose
    values are validated here as :func:`report` validates them. A share
    beyond the float64 range, possible only where the negative values far
    outweigh the total, raises :class:`NonFiniteValueError`. The endpoint
    ``q_n`` is forced to exactly 1.0 so cumulative-sum drift cannot leak
    into the last interior gap. Sorted data always gives a convex curve, so
    it is marked convex without looking at float noise in ``q``.
    """
    total = data._sums[0, -1]
    x = data.sorted_values
    scale, rest = _scale_factors(_exponents(x[:1], x[-1:]))
    q = np.multiply(x, scale[0])
    if rest is not None:
        q *= rest[0]
    np.cumsum(q, out=q)
    with np.errstate(over="ignore"):
        q /= total
    # The running sums fall while the values are negative, then rise to T,
    # so only a negative share can overflow.
    if x[0] < 0.0 and math.isinf(q.min()):
        raise NonFiniteValueError(
            "a Lorenz share is beyond the float64 range: a running sum of the "
            "sorted values exceeds their total by more than the largest float"
        )
    q[-1] = 1.0
    return LorenzCurve(q=_readonly(q), convex=True)


def _is_convex(q: np.ndarray) -> bool:
    inc = np.diff(q, prepend=0.0)
    return bool(np.all(np.diff(inc) >= -_CONVEXITY_SLACK))


def _skew_codes(g_right, g_left) -> np.ndarray:
    """The skew call of each pair of ``g_right`` and ``g_left``, as its index
    into ``get_args(SkewDirection)``: "right" where g_right exceeds g_left
    by more than :data:`SKEW_TOLERANCE`, "left" where g_left exceeds
    g_right so, and "symmetric" otherwise, a nan difference too."""
    calls = get_args(SkewDirection)
    d = np.subtract(g_right, g_left)
    return np.where(
        d > SKEW_TOLERANCE,
        calls.index("right"),
        np.where(d < -SKEW_TOLERANCE, calls.index("left"), calls.index("symmetric")),
    )


def _skew_call(gr: float, gl: float) -> SkewDirection:
    return get_args(SkewDirection)[_skew_codes(gr, gl)]


def report(data: Dataset) -> InequalityReport:
    """All four indices and the skew call, scored from the sums of the
    kernel pass :func:`build_dataset` made over the sorted values.

    Raises :class:`InvalidNError` above ``_MAX_EXACT_N`` values (see module
    doc), and :class:`NonFiniteValueError` where an index is beyond the
    float64 range.
    """
    _check_exact(data.n)
    scores = _sorted_scores(data.sorted_values[np.newaxis], data._sums)
    return _make_report(data.n, data.mean, scores, convex=True)


def _replication_scores(x: np.ndarray) -> np.ndarray:
    """:func:`report` of :func:`build_dataset` for every row of ``x``, as a
    ``(4, b)`` array of gini, g_right, g_left and sag.

    The block is sorted, and one kernel pass gives every row's total and
    weighted sums. If a row is not finite, its total is not valid or an
    index of it is beyond the float64 range, :func:`report` of
    :func:`build_dataset` is run on the first such row, so the error is the
    one a row-by-row loop would raise.
    """
    s = np.sort(x, axis=1)
    # NaN sorts last and the infinities sit at the ends. Rows with one are
    # summed as zeros: fsum refuses inf + -inf.
    finite = np.isfinite(s[:, 0]) & np.isfinite(s[:, -1])
    s[~finite] = 0.0
    sums, total = _sorted_sums(s)
    valid = finite & (np.abs(sums[:, -1]) >= _TINY) & (total > 0.0) & (total < math.inf)
    scores = _sorted_scores(s, sums)
    valid &= np.isfinite(scores).all(axis=0)
    if not valid.all():
        report(build_dataset(x[np.argmin(valid)]))  # raises that row's error
    return scores


def lorenz_from_points(points: Sequence[tuple[float, float]] | np.ndarray) -> LorenzCurve:
    """Validate and normalize raw ``(p, q)`` pairs into a curve.

    ``points`` is a sequence of pairs or an ``(n, 2)`` float64 array, such
    as :func:`sagini.io.read_lorenz_points` returns, which is read without
    a copy. The ``p`` grid must be uniform (``p_i = i/n``, the grid the
    weights are defined on) and the last ``q`` must be 1; both are checked
    to 1e-9. A leading (0, 0) point is tolerated and dropped. No sorting or convexity
    enforcement happens here: point sets that no sorted dataset can produce
    are accepted and merely flagged ``convex=False``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyOrSingletonError("need at least 2 points beyond the origin")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected a sequence of (p, q) pairs")
    # One flat check; the row-wise pass runs only to name the first bad row.
    if not np.isfinite(pts).all():
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        raise NonFiniteValueError(
            f"non-finite Lorenz point at index {int(bad[0])}"
        )
    if pts.shape[0] and abs(pts[0, 0]) <= 1e-12:
        if abs(pts[0, 1]) > 1e-9:
            raise BadEndpointError(
                f"a curve through p=0 must start at q=0, got q={float(pts[0, 1])!r}"
            )
        pts = pts[1:]
    n = pts.shape[0]
    if n < 2:
        raise EmptyOrSingletonError(
            "need at least 2 points beyond the origin"
        )
    p = pts[:, 0]
    q = pts[:, 1].copy()
    grid = np.arange(1, n + 1, dtype=float) / n
    off = np.abs(p - grid)
    worst = int(np.argmax(off))
    if off[worst] > 1e-9:
        raise UnequalSpacingError(
            f"p grid must be uniform i/n: point {worst + 1} has "
            f"p={float(p[worst])!r}, expected {float(grid[worst])!r}"
        )
    if abs(q[-1] - 1.0) > 1e-9:
        raise BadEndpointError(f"last q must be 1, got {float(q[-1])!r}")
    q[-1] = 1.0
    return LorenzCurve(q=_readonly(q), convex=_is_convex(q))


def metrics_from_lorenz(
    points: Sequence[tuple[float, float]] | LorenzCurve,
) -> InequalityReport:
    """Indices straight from ``(p, q)`` points on the uniform grid.

    ``points`` may also be a curve already validated by
    :func:`lorenz_from_points`, which is then used as it is. The report's
    ``mean`` is None (shares carry no scale) and ``convex`` is False when
    some share increment decreases; that is a warning flag, not an error.

    The increments of ``q`` play the sorted values with total 1. Summed by
    parts, ``sum(c_k (q_k - q_(k-1)))`` becomes ``sum((c_k - c_(k+1)) q_k)``
    over all ``k`` with ``c_(n+1) = 0``: the rank weights of :func:`report`,
    differenced, evaluated by the same kernel on its own coefficient rows
    (see module doc).
    """
    curve = points if isinstance(points, LorenzCurve) else lorenz_from_points(points)
    n = curve.n
    _check_exact(n)
    q = curve.q[np.newaxis]
    e = _exponents(q.min(axis=1), q.max(axis=1))
    return _make_report(n, None, _scores(n, _rank_sums(q, e, _share_rows)), convex=curve.convex)


def _make_report(
    n: int, mean: float | None, scores: np.ndarray, convex: bool
) -> InequalityReport:
    """The report of a batch of one: ``scores`` is a ``(4, 1)`` array from
    :func:`_scores`. An index beyond the float64 range raises
    :class:`NonFiniteValueError`; the indices are of order ``max|x| / |T|``
    there, and their exact values are above the largest float."""
    values = scores[:, 0].tolist()
    for name, value in zip(("gini", "g_right", "g_left", "sag"), values):
        if not math.isfinite(value):
            raise NonFiniteValueError(
                f"{name} is beyond the float64 range: the values are too "
                "large beside their total"
            )
    g, gr, gl, sag = values
    return InequalityReport(
        n=n,
        mean=mean,
        gini=g,
        g_right=gr,
        g_left=gl,
        sag=sag,
        skew_direction=_skew_call(gr, gl),
        convex=convex,
    )


def _exponents(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The binary exponent ``e`` of each row's largest ``|x|``, from the
    row's smallest and largest values: ``2**-e`` scales the row into
    ``(-1, 1)``."""
    return np.frexp(np.maximum(-low, high))[1]


def _sorted_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One kernel pass with :func:`_rank_rows` over each row of the finite
    ``(b, n)`` array ``x``, sorted ascending: the sums scaled by the row's
    power of two, ending in ``T``, and the totals ``T`` unscaled (+-inf
    where they overflow float64). A sorted row's largest ``|x|`` is at one
    of its ends."""
    e = _exponents(x[:, 0], x[:, -1])
    sums = _rank_sums(x, e, _rank_rows)
    with np.errstate(over="ignore"):
        return sums, np.ldexp(sums[:, -1], e)


def _sorted_scores(x: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """:func:`_scores` of each sorted row of ``x``, from its sums as
    :func:`_sorted_sums` gives them."""
    sums = sums.copy()
    # Perfect equality. The compensated sums would leave rounding noise of
    # order u**2 here; the exact answer is zero.
    sums[x[:, 0] == x[:, -1], :3] = 0.0
    return _scores(x.shape[1], sums)


def _scores(n: int, sums: np.ndarray) -> np.ndarray:
    """gini, g_right, g_left and sag as the rows of a ``(4, b)`` array: the
    weighted sums ``D1``, ``D2`` and ``D3`` of each of the ``b`` rows of
    ``sums`` divided by their normalisers and by the row's ``T``, all four
    scaled alike by one pass (see module doc). A score beyond the float64
    range is left an inf or a nan, without a warning, for the caller to
    refuse."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scores = sums[:, :3].T * _ONE_TWO_TWO / np.multiply.outer([n, 3 * n * n, 3 * n * n], sums[:, 3])
        g, gr, gl = scores
        return np.concatenate((scores, (g + abs(gr - gl) / 2.0)[np.newaxis]))


def _check_exact(n: int) -> None:
    """Raise :class:`InvalidNError` above ``_MAX_EXACT_N`` values, where the
    index sums' coefficient rows and normalisers are not exact in float64."""
    if n > _MAX_EXACT_N:
        raise InvalidNError(
            f"n = {n} is above {_MAX_EXACT_N}, beyond which the kernel's "
            "coefficient rows and normalisers are not exact in float64"
        )


def _rank_rows(n: int) -> tuple[np.ndarray, None]:
    """The W-column coefficient rows of ``c1``, ``c2``, ``c3`` and ``T``'s
    weight 1 on the iterated sums ``A``, ``B`` and ``E``, shape ``(4, 3,
    min(n, W))``, and no weight of their own for the last value (see
    module doc); above ``_MAX_EXACT_N``, ``T``'s row alone, shape ``(1, 1,
    min(n, W))``. Built in int64: ``3n`` times ``D1``'s rows passes
    ``2**53`` near the limit before ``D2``'s are subtracted."""
    if n > _MAX_EXACT_N:
        return np.ones((1, 1, min(n, _CHUNK))), None
    k = np.arange(1, min(n, _CHUNK) + 1, dtype=np.int64)
    d = k - _CHUNK
    rows = np.zeros((4, 3, k.size), dtype=np.int64)
    rows[0, 0] = 2 * k - (n + 1 + 2 * _CHUNK)
    rows[0, 1] = 2 * _CHUNK
    rows[1, 0] = 3 * d * (d - 1) - (n * n - 1)
    rows[1, 1] = 6 * _CHUNK * k - 3 * _CHUNK * (1 + 3 * _CHUNK)
    rows[1, 2] = 6 * _CHUNK * _CHUNK
    rows[2] = 3 * n * rows[0] - rows[1]
    rows[3, 0] = 1
    return rows.astype(float), None


def _share_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The W-column coefficient rows of the differenced weights ``c_k -
    c_(k+1)`` and of ``T = q_n`` (zero rows) on ``A`` and ``B``, shape
    ``(4, 2, min(n, W))``, and the weights of the last share ``q_n`` beyond
    them, ``T``'s 1 (see module doc)."""
    k = np.arange(1, min(n, _CHUNK) + 1, dtype=np.int64)
    rows = np.zeros((4, 2, k.size), dtype=np.int64)
    rows[0, 0] = -2
    rows[1, 0] = 6 * (_CHUNK - k)
    rows[1, 1] = -6 * _CHUNK
    rows[2] = 3 * n * rows[0] - rows[1]
    last = np.array([n + 1, (2 * n + 1) * (n + 1), n * n - 1, 1], dtype=float)
    return rows.astype(float), last


def _two_product(a: np.ndarray, b: float | np.ndarray, ab: np.ndarray) -> np.ndarray:
    """The rounding error ``a b - ab`` of the products ``ab = a * b``,
    exact barring underflow (Dekker's TwoProduct)."""
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    t = b * _SPLIT
    bh = t - (t - b)
    bl = b - bh
    r = bh * ah
    r -= ab
    r += bl * ah
    r += bh * al
    r += bl * al
    return r


def _rank_sums(
    x: np.ndarray,
    e: np.ndarray,
    rows: Callable[[int], tuple[np.ndarray, np.ndarray | None]],
) -> np.ndarray:
    """Compensated rank-weighted sums of each row ``b`` of the ``(b, n)``
    array ``x`` multiplied by ``2**-e_b`` (see module doc).

    ``e`` (shape ``(b,)``) holds the binary exponent of each row's largest
    ``|x|``, so the scaled values lie in ``(-1, 1)`` and no partial sum can
    overflow. ``rows(n)`` gives the coefficient rows of ``k`` weightings on
    the iterated sums ``A``, ``B``, ... (shape ``(k, depth, min(n, W))``)
    and the weights of the last value beyond them (shape ``(k,)``, or
    None); the result has shape ``(b, k)``. Both :func:`_rank_rows` and
    :func:`_share_rows` end in ``T``, the scaled total of the pass.

    Each column of each row keeps its iterated sums as error-free TwoSum
    pairs of high and low columns, formed from the last chunk to the
    first. At the end the columns' products with the coefficient rows are
    combined column by column (exact TwoProducts, and TwoSum across the
    rows), and :func:`_rounded_sums` adds up the high and low columns of
    every row of a weighting at once, correctly rounded as one
    :func:`math.fsum` per row and weighting would, so a row comes out as it
    would if it were summed alone. Data of one chunk sums the rows first,
    takes exact TwoProducts with the values and rounds all its sums in one
    call. Memory beyond ``x`` is a few chunks per row.
    """
    b, n = x.shape
    coef, last = rows(n)
    scale, rest = _scale_factors(e)

    def scaled(start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        v = np.multiply(x[:, start:stop], scale, out=out)
        if rest is not None:
            v *= rest
        return v

    if n <= _CHUNK:
        # One chunk: A = B = E = x, so the rows sum to the weights.
        v = scaled(0, n)[:, np.newaxis]
        c = coef.sum(axis=1)
        if last is not None:
            c[:, -1] += last
        h = c * v
        pieces = np.concatenate((h, _two_product(v, c, h)), axis=-1)
        return _rounded_sums(pieces)

    # The first chunk taken is the last, and may be short: A = B = E = x.
    depth = coef.shape[1]
    top = (n - 1) // _CHUNK * _CHUNK
    first = np.zeros((b, _CHUNK))
    first[:, : n - top] = scaled(top, n)
    hi = [first] + [first.copy() for _ in range(depth - 1)]
    lo = [np.zeros((b, _CHUNK)) for _ in range(depth)]
    v0, t, z, d = (np.empty((b, _CHUNK)) for _ in range(4))
    for start in range(top - _CHUNK, -1, -_CHUNK):
        v = scaled(start, start + _CHUNK, out=v0)
        for s in range(depth):
            # A += x, then B += A, then E += B: TwoSum t + d = hi[s] + v,
            # with d = (p - (t - z)) + (v - z), into the spare buffer t.
            p = hi[s]
            np.add(p, v, out=t)
            np.subtract(t, p, out=z)
            np.subtract(t, z, out=d)
            np.subtract(p, d, out=d)
            np.subtract(v, z, out=z)
            d += z
            lo[s] += d
            if s:
                lo[s] += lo[s - 1]
            hi[s], t = t, p
            v = hi[s]
    sums = np.empty((b, coef.shape[0]))
    for i, weighting in enumerate(coef):
        # Dot2 down each column: h + r is sum_s weighting[s] (hi[s] + lo[s]),
        # with r's own rounding. One weighting at a time keeps the
        # temporaries to a few chunks per row.
        h = r = None
        for c, a, a_lo in zip(weighting, hi, lo):
            p = c * a
            err = _two_product(a, c, p)
            err += c * a_lo
            if h is None:
                h, r = p, err
                continue
            t = h + p
            z = t - h
            r += h - (t - z)
            r += p - z
            r += err
            h = t
        pieces = [h, r]
        if last is not None:
            a = scaled(n - 1, n)
            p = a * last[i]
            pieces += [p, _two_product(a, last[i], p)]
        sums[:, i] = _rounded_sums(np.concatenate(pieces, axis=-1))
    return sums


def _scale_factors(e: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Column vectors whose product is ``2**-e`` for each row, the second
    None where one suffices.

    Multiplying by 2**-e is exact scaling up and one correctly rounded
    multiply scaling down, as np.ldexp(x, -e) is. Where the largest |x|
    is subnormal, 2**-e can exceed the largest float: such rows are
    multiplied by 2**1023 and then by the rest.
    """
    scale = np.ldexp(1.0, np.minimum(-e, 1023))[:, np.newaxis]
    rest = None
    if e.min() < -1023:
        rest = np.ldexp(1.0, np.maximum(-e - 1023, 0))[:, np.newaxis]
    return scale, rest


def _rounded_sums(p: np.ndarray) -> np.ndarray:
    """:func:`math.fsum` of every row of the finite ``(..., m)`` array
    ``p``, bit for bit, as an array of shape ``p.shape[:-1]``.

    Each row is split as in ExtractVector (Rump, Ogita and Oishi,
    "Accurate Floating-Point Summation Part I: Faithful Rounding", SIAM J.
    Sci. Comput. 2008). With ``2**E`` above the row's largest ``|p|`` and
    ``2**M >= m + 2``, ``sigma = 2**(E + M)`` cuts every piece exactly into
    ``hi = (sigma + p) - sigma``, a multiple of ``u sigma``, and ``lo = p -
    hi``. The ``hi`` add up exactly in any order, as every partial sum is
    such a multiple below ``sigma``; the ``lo`` add up to ``r`` within
    ``m 2**-52 sum|lo|``, and a TwoSum of the two gives ``s`` and its
    error. Where that error and the bound are less than half the gap
    below ``|s|``, the gap above being no narrower, ``s`` is the only float
    that near the exact sum, so it is the correctly rounded sum fsum gives
    whatever the tie rule; rounding is monotone, so the test, made in
    floats, holds for the exact values too. Every other row (a zero, subnormal or tied sum,
    or a row whose ``sigma`` would overflow) is summed by fsum. So are all
    rows of an array of fewer than :data:`_FSUM_BELOW` pieces.
    """
    if p.size < _FSUM_BELOW:
        return _fsums(p)
    m = p.shape[-1]
    es = np.frexp(np.abs(p).max(axis=-1, keepdims=True))[1] + (m + 1).bit_length()
    split = p
    big = es > 1023
    if big.any():
        # Those rows sum to zero here and fall back to fsum.
        split = np.where(big, 0.0, p)
        es[big] = 0
    sigma = np.ldexp(1.0, es)
    hi = sigma + split
    hi -= sigma
    lo = np.subtract(split, hi)
    tau = hi.sum(axis=-1)
    r = lo.sum(axis=-1)
    np.abs(lo, out=lo)
    bound = lo.sum(axis=-1) * (m * 2.0**-52)
    s = tau + r
    z = s - tau
    bound += abs((tau - (s - z)) + (r - z))
    a = abs(s)
    bad = ~(bound < (a - np.nextafter(a, 0.0)) * 0.5)
    if bad.any():
        s[bad] = _fsums(p[bad])
    return s


def _fsums(p: np.ndarray) -> np.ndarray:
    """:func:`math.fsum` of every row of the ``(..., m)`` array ``p``."""
    rows = p.reshape(-1, p.shape[-1]).tolist()
    return np.array(list(map(math.fsum, rows)), dtype=float).reshape(p.shape[:-1])
