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

:func:`report` and :func:`metrics_from_lorenz` evaluate these with one
kernel: a compensated dot product (Dot2 of Ogita, Rump and Oishi, "Accurate
Sum and Dot Product", SIAM J. Sci. Comput. 2005) that runs over the sorted
values in fixed-size chunks and keeps one error-free TwoProduct/TwoSum
accumulator per chunk column; :func:`math.fsum` adds up the columns at the
end. It takes two dot products, ``D1`` and ``D2`` with ``c1`` and ``c2``.
The third follows from the identity ``g_right + g_left = 2 gini``, which in
rank weights reads ``c3 = 3n c1 - c2``: ``D3 = 3n D1 - D2`` is one fsum over
the exact TwoProduct pieces of ``3n`` times ``D1``'s column partials and
over minus ``D2``'s, taken before either is rounded. Data of at most one
chunk sums ``c3`` in that chunk instead, which keeps its fsum short; there
every piece is an exact product, so both forms give the same correctly
rounded ``D3``. The kernel takes a block of rows, one dataset each, and
sums each row on its own, so a block gives every row the bits it would get
alone; a report is the block of one, and a replication sweep evaluates
many rows per block.

With ``L`` the number of chunks plus one, ``u = 2**-53`` and ``gamma_L =
L u / (1 - L u)``, ``D1`` and ``D2`` come out within ``u |D| + gamma_L**2
* sum|c_k x_k|`` of their exact values, as if computed in twice the
working precision and then rounded. ``D3`` inherits the error of both
partials: it is within ``u |D3| + gamma_L**2 * (3n sum|c1_k x_k| +
sum|c2_k x_k|)``, a term never smaller than ``gamma_L**2 * sum|c3_k
x_k|``. Within one chunk every sum is correctly rounded. The total ``T``
is the same chunked compensated sum without the products, so it is within
``u |T| + gamma_L**2 * sum|x_k|``.

Values are first scaled by the power of two ``2**-e`` that brings the
largest ``|x|`` into [0.5, 1), which leaves every index unchanged, so no
product or partial sum overflows. The scaling is a multiplication, exact
upwards and correctly rounded downwards, in two factors where ``2**-e``
exceeds the largest float (the largest ``|x|`` below ``2**-1024``). The
bounds hold barring underflow, which only touches values some 1e290 times
smaller than the largest. Data whose scaled total is zero or subnormal,
where that underflow can swamp the total, is rejected by
:func:`build_dataset` and by a replication sweep rather than divided by.
The rank weights, and the partial sums they are built from, are exact
integers in float64 only up to ``n = _MAX_EXACT_N`` (about 5.5e7); larger
inputs raise :class:`InvalidNError` before the data is read. For Lorenz
points the same weights are summed by parts over the shares: ``D =
sum((c_k - c_(k+1)) q_k)`` with ``c_(n+1) = 0`` and ``T = q_n = 1``; the
differenced weights still satisfy ``c3 = 3n c1 - c2``.

This kernel is the only float path for the indices; the exact rational
evaluations in :mod:`sagini.oracle` are its ground truth. Every value
type is immutable after construction; all operations are pure functions
and safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Literal, NoReturn, Sequence

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

#: The chunk-relative integer rows ``2j``, ``3j(j-1)`` and ``6j`` for
#: ``j = 0 .. _CHUNK``, from which :func:`_rank_weights` builds any chunk's
#: weights with a few exact additions.
_J = np.arange(_CHUNK + 1, dtype=float)
_TWO_J = 2.0 * _J
_THREE_J_J1 = 3.0 * _J * (_J - 1.0)
_SIX_J = 6.0 * _J

#: Dekker's splitting constant ``2**27 + 1``: ``a * _SPLIT`` cuts a float
#: into two halves of at most 26 significant bits each, whose products are
#: exact.
_SPLIT = 134217729.0

#: Largest n for which every rank weight, and every partial sum it is built
#: from (``3k(k-1)`` at most, and ``3n c1`` for a one-chunk ``c3``), is an
#: exact integer in float64 (``3 n^2 <= 2**53``). It also keeps ``3n``, the
#: factor of the derived third sum, below ``2**28``.
_MAX_EXACT_N = math.isqrt(2**53 // 3)


#: The smallest normal float64. A total scaled as in :func:`_compensated_sums`
#: that is smaller in magnitude has cancelled into the range where the
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
    """Validated observations, kept in input order.

    Build one with :func:`build_dataset`; it enforces at least two finite
    values with a strictly positive total. Individual zeros and negatives
    are fine.
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

    Parameters
    ----------
    raw : iterable of real numbers
        Resource values (e.g. incomes), any order.

    Raises
    ------
    TypeError
        Any string (or bytes) value, or None; numeric text is not silently
        parsed, so read it with :mod:`sagini.io` or convert it first, and
        None is not read as NaN. The first offending index is reported.
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
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteValueError(
            f"non-finite value {float(values[bad[0]])!r} at index {int(bad[0])}"
        )
    totals, scaled = _totals(values[np.newaxis])
    total = float(totals[0])
    if math.isinf(total):
        raise NonFiniteValueError("the sum of the values overflows float64")
    if abs(scaled[0]) < _TINY:
        _raise_cancelled_total(values)
    if total <= 0.0:
        raise NonPositiveTotalError(
            f"sum of values must be positive, got {total!r}"
        )
    return Dataset(values=_readonly(values), total=total)


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
    """Sort ascending and accumulate shares ``q_i = s_i/T``.

    ``T`` is the dataset's compensated total, not the running float sum,
    which can cancel to zero or below on mixed-sign data whose exact total
    is positive. The endpoint ``q_n`` is forced to exactly 1.0 so
    cumulative-sum drift cannot leak into the last interior gap. Sorted
    data always gives a convex curve, so the curve is marked convex
    without looking at float noise in ``q``.
    """
    q = np.cumsum(data.sorted_values) / data.total
    q[-1] = 1.0
    return LorenzCurve(q=_readonly(q), convex=True)


def _is_convex(q: np.ndarray) -> bool:
    inc = np.diff(q, prepend=0.0)
    return bool(np.all(np.diff(inc) >= -_CONVEXITY_SLACK))


def _skew_call(gr: float, gl: float) -> SkewDirection:
    d = gr - gl
    if d > SKEW_TOLERANCE:
        return "right"
    if d < -SKEW_TOLERANCE:
        return "left"
    return "symmetric"


def report(data: Dataset) -> InequalityReport:
    """All four indices and the skew call, from one pass over the sorted values.

    Raises :class:`InvalidNError` above ``_MAX_EXACT_N`` values (see module doc).
    """
    scores = _sorted_scores(data.sorted_values[np.newaxis], np.array([data.total]))
    return _make_report(data.n, data.mean, scores, convex=True)


def _replication_scores(x: np.ndarray) -> np.ndarray:
    """:func:`report` of :func:`build_dataset` for every row of ``x``, as a
    ``(4, b)`` array of gini, g_right, g_left and sag.

    The finite check and the compensated totals run over the whole block.
    If a row fails either, :func:`build_dataset` is run on the first such
    row, so the error is the one a row-by-row loop would raise.
    """
    finite = np.isfinite(x).all(axis=1)
    # Rows with a nan or inf are summed as zeros: fsum refuses inf + -inf.
    total, scaled = _totals(np.where(finite[:, np.newaxis], x, 0.0))
    valid = finite & (np.abs(scaled) >= _TINY) & (total > 0.0) & (total < math.inf)
    if not valid.all():
        build_dataset(x[np.argmin(valid)])  # raises that row's error
    return _sorted_scores(np.sort(x, axis=1), total)


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
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
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
    differenced, evaluated by the same kernel.
    """
    curve = points if isinstance(points, LorenzCurve) else lorenz_from_points(points)
    n = curve.n
    q = curve.q
    e, sums = _compensated_sums(q[np.newaxis], partial(_share_weights, n))
    return _make_report(n, None, _scores(n, sums, np.ldexp(1.0, -e)), convex=curve.convex)


def _make_report(
    n: int, mean: float | None, scores: np.ndarray, convex: bool
) -> InequalityReport:
    """The report of a batch of one: ``scores`` is a ``(4, 1)`` array from
    :func:`_scores`."""
    g, gr, gl, sag = scores[:, 0].tolist()
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


def _totals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The compensated sum of each row of the finite ``(b, n)`` array ``x``
    (+-inf where it overflows float64), and the same sums still scaled by
    each row's power of two (see :func:`_compensated_sums`)."""
    e, sums = _compensated_sums(x)
    with np.errstate(over="ignore"):
        return np.ldexp(sums[:, 0], e), sums[:, 0]


def _sorted_scores(x: np.ndarray, total: np.ndarray) -> np.ndarray:
    """:func:`_scores` of each row of ``x``, sorted ascending, whose totals
    are ``total``."""
    n = x.shape[1]
    e, sums = _compensated_sums(x, partial(_rank_weights, n))
    total = np.ldexp(total, -e)
    # Perfect equality. The compensated sums would leave rounding noise of
    # order u**2 here; the exact answer is zero.
    equal = x[:, 0] == x[:, -1]
    sums[equal] = 0.0
    total[equal] = 1.0
    return _scores(n, sums, total)


def _scores(n: int, sums: np.ndarray, total: np.ndarray) -> np.ndarray:
    """gini, g_right, g_left and sag as the rows of a ``(4, b)`` array: the
    three weighted sums of each of the ``b`` rows of ``sums`` divided by
    their normalisers, with the row's scaled total (see module doc)."""
    scores = sums.T * _ONE_TWO_TWO / np.multiply.outer([n, 3 * n * n, 3 * n * n], total)
    g, gr, gl = scores
    return np.concatenate((scores, (g + abs(gr - gl) / 2.0)[np.newaxis]))


def _rank_weights(n: int, start: int, stop: int) -> np.ndarray:
    """Rows ``c1, c2`` of centred rank weights for ranks ``start+1 .. stop``.

    With ``a = start + 1`` and rank ``k = a + j``, ``c1 = 2j + (2a - n - 1)``
    and ``c2 = 3j(j-1) + 6j a + (3a(a-1) - (n^2 - 1))``: the chunk-relative
    rows plus per-chunk constants, every term and partial sum an exact
    integer in float64.
    """
    a = start + 1
    m = stop - start
    w = np.empty((2, m))
    np.add(_TWO_J[:m], float(2 * a - n - 1), out=w[0])
    np.multiply(_SIX_J[:m], float(a), out=w[1])
    w[1] += _THREE_J_J1[:m]
    w[1] += float(3 * a * (a - 1) - (n * n - 1))
    return w


def _share_weights(n: int, start: int, stop: int) -> np.ndarray:
    """Rows ``c_k - c_(k+1)`` of :func:`_rank_weights` for shares ``q_k``,
    ``k = start+1 .. stop``, with ``c_(n+1) = 0``."""
    c = _rank_weights(n, start, stop + 1)
    if stop == n:
        c[:, -1] = 0.0
    return c[:, :-1] - c[:, 1:]


def _two_product(a: np.ndarray, b: float, ab: np.ndarray) -> np.ndarray:
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


def _compensated_sums(
    x: np.ndarray, weights: Callable[[int, int], np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Chunked compensated dot products ``sum_k w_jk x_bk`` for each row
    ``b`` of the ``(b, n)`` array ``x``, scaled.

    Each row is first multiplied by ``2**-e_b``, with ``e_b`` the binary
    exponent of the row's largest ``|x|``, so ``|x| < 1`` and neither the
    split products nor the partial sums can overflow. Returns ``e`` (shape
    ``(b,)``) and the scaled sums. ``weights(start, stop)`` gives the rows
    ``c1, c2`` for columns ``start:stop`` (see :func:`_rank_weights`),
    shared by every row; the sums are then the three of ``c1``, ``c2`` and
    ``c3 = 3n c1 - c2`` (shape ``(b, 3)``). Without ``weights`` the single
    sum ``sum_k x_bk`` is taken (shape ``(b, 1)``).

    Each chunk column of each row keeps a running sum ``hi`` (TwoSum,
    error-free) and the rounding errors of every product and addition in
    ``lo`` (TwoProduct by Dekker splitting, error-free). At the end one
    :func:`math.fsum` per row and weight adds up that row's columns, so a
    row comes out as it would if it were summed alone. The third sum is
    the fsum of the exact pieces of ``3n`` times the columns of the first
    and of minus the columns of the second; a row of at most one chunk
    sums ``c3`` on that chunk instead, which is exact there as well and
    keeps its fsum short. Memory beyond ``x`` is a few chunks per row.
    """
    n = x.shape[1]
    if weights is not None and n > _MAX_EXACT_N:
        raise InvalidNError(
            f"n = {n} is above {_MAX_EXACT_N}, beyond which the rank weights "
            "are not exact in float64"
        )
    e = np.frexp(np.maximum(-x.min(axis=1), x.max(axis=1)))[1]
    # Multiplying by 2**-e is exact scaling up and one correctly rounded
    # multiply scaling down, as np.ldexp(x, -e) is. Where the largest |x|
    # is subnormal, 2**-e can exceed the largest float: such rows are
    # multiplied by 2**1023 and then by the rest.
    scale = np.ldexp(1.0, np.minimum(-e, 1023))[:, np.newaxis, np.newaxis]
    rest = None
    if e.min() < -1023:
        rest = np.ldexp(1.0, np.maximum(-e - 1023, 0))[:, np.newaxis, np.newaxis]
    derive = weights is not None and n > _CHUNK
    hi = lo = None
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        xs = x[:, np.newaxis, start:stop] * scale
        if rest is not None:
            xs *= rest
        if weights is None:
            h = xs
            r = None
        else:
            w = weights(start, stop)
            if not derive:
                w = np.concatenate((w, w[:1] * float(3 * n) - w[1:]))
            h = w * xs
            t = xs * _SPLIT
            xh = t - (t - xs)
            xl = xs - xh
            # |c1| < n < 2**26, so c1 splits into (c1, 0) and is used
            # unsplit; the other rows are split into wh + wl in place.
            c = w[1:]
            t = c * _SPLIT
            t -= t - c
            wl = c - t
            c[...] = t
            r = w * xh
            r -= h
            r[:, 1:] += wl * xh
            r += w * xl
            r[:, 1:] += wl * xl
        if hi is None:
            hi = h
            lo = np.zeros_like(h) if r is None else r
            continue
        m = stop - start
        p = hi[..., :m]
        s = p + h
        z = s - p
        # err = p - (s - z) + (h - z), in place: h is this chunk's own.
        err = s - z
        np.subtract(p, err, out=err)
        h -= z
        err += h
        if r is not None:
            err += r
        p[...] = s
        lo[..., :m] += err
    columns = np.concatenate((hi, lo), axis=-1)
    rows = columns.tolist()
    if derive:
        p1 = columns[:, 0]
        three_n = float(3 * n)
        p3 = p1 * three_n
        d3 = np.concatenate((p3, _two_product(p1, three_n, p3), -columns[:, 1]), axis=-1)
        for row, pieces in zip(rows, d3.tolist()):
            row.append(pieces)
    return e, np.array([list(map(math.fsum, row)) for row in rows])
