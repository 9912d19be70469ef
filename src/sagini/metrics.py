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
end. With ``L`` the number of chunks plus one, ``u = 2**-53`` and
``gamma_L = L u / (1 - L u)``, each dot product ``D`` comes out within
``u |D| + gamma_L**2 * sum|c_k x_k|`` of its exact value, so the result is
as accurate as if it were computed in twice the working precision and then
rounded. The total ``T`` is the same chunked compensated sum without the
products, so it is within ``u |T| + gamma_L**2 * sum|x_k|``. Values are
first scaled by the power of two that brings the largest ``|x|`` into
[0.5, 1), which leaves every index unchanged, so no product or partial sum
overflows; the bounds hold barring underflow, which only touches values
some 1e290 times smaller than the largest. The rank weights are exact
integers in float64 only up to ``n = _MAX_EXACT_N`` (about 5.5e7); larger
inputs raise :class:`InvalidNError`.

This kernel is the only float path for the indices; the exact rational
evaluations in :mod:`sagini.oracle` are its ground truth. Every value
type is immutable after construction; all operations are pure functions
and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Literal, Sequence

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

#: Dekker's splitting constant ``2**27 + 1``: ``a * _SPLIT`` cuts a float
#: into two halves of at most 26 significant bits each, whose products are
#: exact.
_SPLIT = 134217729.0

#: Largest n for which every rank weight, and the products ``3k(k-1)`` and
#: ``3n c1`` it is built from, is an exact integer in float64
#: (``3 n^2 <= 2**53``).
_MAX_EXACT_N = math.isqrt(2**53 // 3)


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
    """Cumulative population shares ``p`` and resource shares ``q``.

    ``p_i = i/n`` on the uniform grid and ``q_n`` is exactly 1. ``convex``
    records whether successive increments of ``q`` are non-decreasing;
    curves built from sorted observations always are, point-set input may
    not be.
    """

    p: np.ndarray
    q: np.ndarray
    convex: bool

    @property
    def n(self) -> int:
        return self.p.size


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
        Any string (or bytes) value; numeric text is not silently parsed,
        so read it with :mod:`sagini.io` or convert it first. The first
        offending index is reported.
    EmptyOrSingletonError
        Fewer than two observations; the curve needs at least one
        interior point.
    NonFiniteValueError
        Any NaN or infinity (the first offending index is reported), or a
        sum beyond the float64 range.
    NonPositiveTotalError
        Values summing to zero or less; shares would be undefined or
        sign-flipped.
    """
    if not hasattr(raw, "__len__"):
        raw = list(raw)
    _reject_strings(raw)
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
            f"non-finite value {values[bad[0]]!r} at index {int(bad[0])}"
        )
    top = max(-values.min(), values.max())
    e, (scaled_total,) = _compensated_sums(values, top)
    try:
        total = math.ldexp(scaled_total, e)
    except OverflowError:
        raise NonFiniteValueError("the sum of the values overflows float64") from None
    if total <= 0.0:
        raise NonPositiveTotalError(
            f"sum of values must be positive, got {total!r}"
        )
    return Dataset(values=_readonly(values), total=total)


def _reject_strings(raw: Iterable[float]) -> None:
    """Raise :class:`TypeError` at the first str or bytes value.

    A numeric array costs only a dtype check; other input is scanned once
    for the set of types it holds.
    """
    if isinstance(raw, np.ndarray):
        if raw.dtype.kind not in "OSU":
            return
        raw = raw.tolist()
    if any(issubclass(t, (str, bytes)) for t in set(map(type, raw))):
        i, v = next((i, v) for i, v in enumerate(raw) if isinstance(v, (str, bytes)))
        raise TypeError(
            f"values: string {v!r} at index {i} is not silently parsed as a "
            "number; pass int or float"
        )


def lorenz_curve(data: Dataset) -> LorenzCurve:
    """Sort ascending and accumulate shares: ``p_i = i/n``, ``q_i = s_i/T``.

    ``T`` is the dataset's compensated total, not the running float sum,
    which can cancel to zero or below on mixed-sign data whose exact total
    is positive. The endpoint ``q_n`` is forced to exactly 1.0 so
    cumulative-sum drift cannot leak into the last interior gap. Sorted
    data always gives a convex curve, so the curve is marked convex
    without looking at float noise in ``q``.
    """
    n = data.n
    q = np.cumsum(data.sorted_values) / data.total
    q[-1] = 1.0
    p = np.arange(1, n + 1, dtype=float) / n
    return LorenzCurve(p=_readonly(p), q=_readonly(q), convex=True)


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
    x = data.sorted_values
    n = data.n
    if x[0] == x[-1]:
        # Perfect equality. The compensated sums would leave rounding noise
        # of order u**2 here; the exact answer is zero.
        return _make_report(n, data.mean, (0.0, 0.0, 0.0), 1.0, convex=True)
    e, sums = _compensated_sums(x, max(-x[0], x[-1]), partial(_rank_weights, n))
    return _make_report(n, data.mean, sums, math.ldexp(data.total, -e), convex=True)


def lorenz_from_points(points: Sequence[tuple[float, float]]) -> LorenzCurve:
    """Validate and normalize raw ``(p, q)`` pairs into a curve.

    The ``p`` grid must be uniform (``p_i = i/n``, the grid the weights are
    defined on) and the last ``q`` must be 1; both are checked to 1e-9. A
    leading (0, 0) point is tolerated and dropped. No sorting or convexity
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
                f"a curve through p=0 must start at q=0, got q={pts[0, 1]!r}"
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
            f"p={p[worst]!r}, expected {grid[worst]!r}"
        )
    if abs(q[-1] - 1.0) > 1e-9:
        raise BadEndpointError(f"last q must be 1, got {q[-1]!r}")
    q[-1] = 1.0
    return LorenzCurve(p=_readonly(grid), q=_readonly(q), convex=_is_convex(q))


def metrics_from_lorenz(
    points: Sequence[tuple[float, float]] | LorenzCurve,
) -> InequalityReport:
    """Indices straight from ``(p, q)`` points on the uniform grid.

    ``points`` may also be a curve already validated by
    :func:`lorenz_from_points`, which is then used as it is. The report's
    ``mean`` is None (shares carry no scale) and ``convex`` is False when
    some share increment decreases; that is a warning flag, not an error.

    The increments of ``q`` play the sorted values with total 1. Summed by
    parts, ``sum(c_k (q_k - q_(k-1)))`` becomes ``c_n - sum((c_(k+1) - c_k) q_k)``
    over ``k < n``: integer weight differences ``2``, ``6k`` and ``6(n-k)``
    and the exact constants ``c_n``, evaluated by the same kernel as
    :func:`report`.
    """
    curve = points if isinstance(points, LorenzCurve) else lorenz_from_points(points)
    n = curve.n
    q = curve.q[:-1]
    # At least 1, so scaling the constants ``last`` (up to 2n^2) by 2**-e
    # cannot overflow when the shares are tiny.
    top = max(1.0, -q.min(), q.max())
    last = (n - 1, (n - 1) * (2 * n - 1), n * n - 1)
    e, sums = _compensated_sums(q, top, partial(_share_weights, n), last)
    return _make_report(n, None, sums, math.ldexp(1.0, -e), convex=curve.convex)


def _make_report(
    n: int,
    mean: float | None,
    sums: tuple[float, float, float],
    total: float,
    convex: bool,
) -> InequalityReport:
    """Divide the three weighted sums by their normalisers (see module doc)."""
    d1, d2, d3 = sums
    g = d1 / (n * total)
    right_left_scale = 3 * n * n * total
    gr = 2.0 * d2 / right_left_scale
    gl = 2.0 * d3 / right_left_scale
    return InequalityReport(
        n=n,
        mean=mean,
        gini=g,
        g_right=gr,
        g_left=gl,
        sag=g + abs(gr - gl) / 2.0,
        skew_direction=_skew_call(gr, gl),
        convex=convex,
    )


def _check_exact_n(n: int) -> None:
    if n > _MAX_EXACT_N:
        raise InvalidNError(
            f"n = {n} is above {_MAX_EXACT_N}, beyond which the rank weights "
            "are not exact in float64"
        )


def _rank_weights(n: int, start: int, stop: int) -> np.ndarray:
    """Rows ``c1, c2, c3`` of centred rank weights for ranks ``start+1 .. stop``."""
    _check_exact_n(n)
    k = np.arange(start + 1, stop + 1, dtype=float)
    w = np.empty((3, k.size))
    np.multiply(k, 2.0, out=w[0])
    w[0] -= n + 1
    np.multiply(k - 1.0, k, out=w[1])
    w[1] *= 3.0
    w[1] -= n * n - 1
    np.multiply(w[0], 3 * n, out=w[2])
    w[2] -= w[1]
    return w


def _share_weights(n: int, start: int, stop: int) -> np.ndarray:
    """Rows ``-(c_(k+1) - c_k)`` for shares ``q_k``, ``k = start+1 .. stop``."""
    _check_exact_n(n)
    k = np.arange(start + 1, stop + 1, dtype=float)
    w = np.empty((3, k.size))
    w[0] = -2.0
    np.multiply(k, -6.0, out=w[1])
    np.multiply(k, 6.0, out=w[2])
    w[2] -= 6 * n
    return w


def _compensated_sums(
    x: np.ndarray,
    top: float,
    weights: Callable[[int, int], np.ndarray] | None = None,
    base: tuple[int, ...] = (0, 0, 0),
) -> tuple[int, tuple[float, ...]]:
    """Chunked compensated dot products ``base_j + sum_k w_jk x_k``, scaled.

    ``x`` is first multiplied by ``2**-e``, with ``e`` the binary exponent
    of ``top >= max|x|``, so ``|x| < 1`` and neither the split products nor
    the partial sums can overflow; ``base`` is scaled likewise. Returns
    ``e`` and the scaled sums. ``weights(start, stop)`` gives the weight
    rows for ``x[start:stop]``; without it the single sum ``sum_k x_k`` is
    taken.

    Each chunk column keeps a running sum ``hi`` (TwoSum, error-free) and
    the rounding errors of every product and addition in ``lo``
    (TwoProduct by Dekker splitting, error-free); :func:`math.fsum` adds
    up the columns at the end. Memory beyond ``x`` is a few chunks.
    """
    e = math.frexp(top)[1]
    hi = lo = None
    for start in range(0, x.size, _CHUNK):
        stop = min(start + _CHUNK, x.size)
        xs = np.ldexp(x[start:stop], -e)
        if weights is None:
            h = xs[np.newaxis]
            r = None
        else:
            w = weights(start, stop)
            h = w * xs
            t = xs * _SPLIT
            xh = t - (t - xs)
            xl = xs - xh
            t = w * _SPLIT
            wh = t - (t - w)
            wl = w - wh
            r = wh * xh
            r -= h
            r += wl * xh
            r += wh * xl
            r += wl * xl
        if hi is None:
            hi = h
            lo = np.zeros_like(h) if r is None else r
            continue
        m = stop - start
        p = hi[:, :m]
        s = p + h
        z = s - p
        err = p - (s - z)
        err += h - z
        if r is not None:
            err += r
        p[...] = s
        lo[:, :m] += err
    columns = np.concatenate((hi, lo), axis=1).tolist()
    return e, tuple(
        math.fsum([math.ldexp(b, -e), *row]) for b, row in zip(base, columns)
    )
