"""Differential suite: the float kernel against the exact rational oracle.

On adversarial data -- mixed signs with cancellation, ties, near-equal
values, magnitudes from 1e-300 to 1e300 with a dynamic range of at most
1e280 -- ``report(build_dataset(x))`` must either agree with
``rational_report`` within the error bounds below, which start from the
``sagini.metrics`` module docstring, or raise the same typed error the
oracle raises. It
must never raise where the oracle returns, nor return where it raises.

The bounds are evaluated exactly, in rationals. With ``u = 2**-53`` and
``L`` the number of chunks plus one, the docstring bounds the total by
``u |T| + gamma_L**2 sum|x_k|``, ``gamma_L = L u / (1 - L u)``, which
:func:`index_bounds` checks as stated. For each rank-weighted sum of the
iterated-sum kernel it states ``u |D| + gamma**2 sum_j (|alpha_j| B~_j +
|beta_j| E~_j + 2 |epsilon_j| F~_j)``, ``gamma = 4 L u / (1 - 4 L u)``,
over the kernel's coefficient rows and ``(c+1)``-weighted column sums.
:func:`index_bounds` keeps instead the older, tighter ``u |D| + gamma_L**2
sum|c_k x_k|``, the bound of a dot product with the rank weights taken
directly, for ``D3`` (``c3 = 3n c1 - c2``) as for ``D1`` and ``D2``. The
documented bound does not imply it, so this part is an empirical check,
stricter than what the docstring promises: the kernel keeps the accuracy
of a direct dot product on these examples. Each index is ``a D / T``
(``a = 1/n`` for gini, ``2/(3 n^2)`` for the tails), evaluated with one
rounded multiplication and one rounded division, and ``sag = gini +
|g_right - g_left| / 2`` with two more roundings; the per-index bounds
below propagate exactly those errors. Where the total bound reaches
``|T|`` itself (a condition number above about 1e31) it promises no
digits, so only the error agreement is checked there.
"""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sagini import SaginiError, build_dataset, rational_report, report
from sagini.metrics import _CHUNK

U = Fraction(1, 2**53)
#: Relative error of one rounded multiplication followed by one rounded
#: division: (1 + u) / (1 - u) - 1.
THETA = 2 * U / (1 - U)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except SaginiError as exc:
        return type(exc), str(exc)


def index_bounds(values, exact):
    """Per-index error bounds from the docstring's bounds on D and T.

    Returns None where the bound on the total does not keep its sign. The
    values are scaled to integers first; every bound is homogeneous in the
    scale, so this changes nothing but the speed.
    """
    fractions = [Fraction(v) for v in values]
    scale = math.lcm(*(f.denominator for f in fractions))
    x = sorted(int(f * scale) for f in fractions)
    n = len(x)
    chunks = -(-n // _CHUNK)
    gamma = (chunks + 1) * U / (1 - (chunks + 1) * U)
    total = abs(sum(x))
    d_total = U * total + gamma**2 * sum(map(abs, x))
    if d_total >= total:
        return None
    c1 = [2 * k - n - 1 for k in range(1, n + 1)]
    c2 = [3 * k * (k - 1) - (n * n - 1) for k in range(1, n + 1)]
    c3 = [3 * n * a - b for a, b in zip(c1, c2)]

    def bound(c, a, value):
        d = abs(sum(map(operator.mul, c, x)))
        d_d = U * d + gamma**2 * sum(abs(w * v) for w, v in zip(c, x))
        quotient = (d_d * total + d * d_total) / (total * (total - d_total))
        return a * quotient * (1 + THETA) + abs(value) * THETA

    tails = Fraction(2, 3 * n * n)
    b_g = bound(c1, Fraction(1, n), exact.gini)
    b_r = bound(c2, tails, exact.g_right)
    b_l = bound(c3, tails, exact.g_left)
    skew = abs(exact.g_right - exact.g_left)
    before_sum = b_g + (U * (skew + b_r + b_l) + b_r + b_l) / 2
    b_s = before_sum + U * (abs(exact.sag) + before_sum)
    return {"gini": b_g, "g_right": b_r, "g_left": b_l, "sag": b_s}


def check_against_oracle(values):
    values = [float(v) for v in values]
    got = outcome(lambda: report(build_dataset(values)))
    want = outcome(rational_report, [Fraction(v) for v in values])
    if want[0] != "ok" or got[0] != "ok":
        assert got[0] == want[0], (got, want)
        return
    bounds = index_bounds(values, want[1])
    if bounds is None:
        return
    for name, limit in bounds.items():
        error = abs(Fraction(getattr(got[1], name)) - getattr(want[1], name))
        assert error <= limit, (name, float(error), float(limit))


@st.composite
def windows(draw):
    """Decimal exponents ``(low, top)`` of a window of at most 1e280 in [1e-300, 1e300]."""
    top = draw(st.integers(-20, 299))
    return max(-300, top - draw(st.integers(0, 279))), top


@st.composite
def magnitudes(draw, window):
    low, top = window
    mantissa = draw(st.floats(1.0, 9.999))
    return min(1e300, max(1e-300, mantissa * 10.0 ** draw(st.integers(low, top))))


@st.composite
def adversarial(draw):
    """Mixed signs with cancellation, ties and near-equal runs, over wide scales."""
    window = draw(windows())
    base = draw(st.lists(magnitudes(window), min_size=1, max_size=40))
    if draw(st.booleans()):
        values = [v if draw(st.booleans()) else -v for v in base]
    else:
        # Heavy cancellation: pairs x, -x, whose exact sum is zero, and a
        # few residuals from anywhere in the window, so the condition
        # number sum|x| / |sum x| can reach the window's full range.
        values = [w for v in base for w in (v, -v)]
        values += draw(st.lists(magnitudes(window), min_size=1, max_size=3))
    # Ties: repeats of values already present.
    values += draw(st.lists(st.sampled_from(values), max_size=8))
    # Near-equal runs: a value followed by its next few floats.
    for v in draw(st.lists(st.sampled_from(base), max_size=3)):
        values += _ulp_run(v if draw(st.booleans()) else -v, draw(st.integers(1, 6)))
    # Zeros, which count for n but not for the dynamic range.
    values += [0.0] * draw(st.integers(0, 3))
    # Mostly steer the total positive: negating every value keeps the
    # cancellation but flips the sign of the total.
    if draw(st.booleans()) and math.fsum(values) < 0:
        values = [-v for v in values]
    return draw(st.permutations(values))


def _ulp_run(v, steps):
    """``v`` and the ``steps`` floats after it, away from zero."""
    out = [v]
    for _ in range(steps):
        out.append(math.nextafter(out[-1], math.copysign(math.inf, v)))
    return out


@settings(max_examples=400, deadline=None)
@given(adversarial())
def test_report_agrees_with_oracle_or_raises_the_same_error(values):
    check_against_oracle(values)


@settings(max_examples=8, deadline=None)
@given(adversarial(), st.integers(_CHUNK + 1, 3 * _CHUNK))
def test_report_agrees_with_oracle_across_chunks(pattern, n):
    values = (list(pattern) * (n // len(pattern) + 1))[:n]
    check_against_oracle(values)


def _c3_sign_change(n):
    """The first rank ``k`` at which ``c3 = 3n c1 - c2`` is positive (about 0.42 n)."""
    return next(
        k for k in range(1, n + 1) if 3 * n * (2 * k - n - 1) > 3 * k * (k - 1) - (n * n - 1)
    )


def _step_at_sign_change(n):
    """Near-equal values that step up by one ulp at c3's sign change.

    Every weight row sums to zero, so each sum is the step times a partial
    sum of the weights, some 1e16 times smaller than ``sum|c_k x_k|``.
    """
    k = _c3_sign_change(n)
    return [1.0] * (k - 1) + [math.nextafter(1.0, 2.0)] * (n - k + 1)


def _cross_at_sign_change(n, residual):
    """Values that change sign at c3's sign change and cancel in the total
    to ``residual`` times ``sum|x|``: the condition number of the total is
    ``1 / residual``. The residual itself sits at the crossing."""
    below = _c3_sign_change(n) - 1
    above = n - 1 - below
    return [-float(above)] * below + [float(below)] * above + [residual * 2 * below * above]


@pytest.mark.parametrize(
    "values",
    [
        [-1e280, 1e280, 1.0],
        [1e-300, 1e-300, 3e-300, -1e-300],
        [1.0, 1.0 + 2**-52, 1.0 + 2**-51, 1.0],
        [-3.0, 1e20, -1e20, 4.0, 4.0],
        [-1.0, 1.0],
        [-1.0, -2.0, 2.0],
        _ulp_run(1.0, 2) * (_CHUNK // 2),
        _ulp_run(-1e-200, 3) * _CHUNK + [1e-180],
        _step_at_sign_change(2 * _CHUNK + 3),
        _cross_at_sign_change(2 * _CHUNK + 3, 1e-16),
        _cross_at_sign_change(3 * _CHUNK + 1, 1e-30),
    ],
    ids=["cancel-1e280", "tiny", "ulp-apart", "cancel-ties", "zero-total",
         "negative-total", "ulp-apart-over-chunks", "cancel-over-chunks",
         "c3-sign-change-step", "c3-sign-change-cond-1e16", "c3-sign-change-cond-1e30"],
)
def test_known_adversarial_cases(values):
    check_against_oracle(values)
