"""Verification paths for the float index implementations.

* exact rational evaluation of all four indices (:func:`rational_report`),
  the ground truth for the float pipeline,
* the pairwise mean-absolute-difference identity (:func:`pairwise_gini`),
* rank-preserving progressive transfers (:func:`apply_transfer`), the
  constructive side of the transfer-principle checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import (
    BadEndpointError,
    EmptyOrSingletonError,
    InvalidRanksError,
    NonPositiveTotalError,
    RankViolationError,
    UnequalSpacingError,
)
from .metrics import Dataset, build_dataset

Rationalish = Union[int, str, Fraction, Decimal]

#: Transfers must keep this many dataset means of clearance to the nearest
#: rank neighbour, so ties cannot scramble ranks.
TRANSFER_MARGIN = 1e-9


@dataclass(frozen=True)
class RationalReport:
    """Exact-arithmetic versions of the four indices.

    ``g_right + g_left == 2 * gini`` and ``sag == max(g_right, g_left)``
    hold with zero tolerance here, which is what makes this the ground
    truth for the float pipeline.
    """

    gini: Fraction
    g_right: Fraction
    g_left: Fraction
    sag: Fraction


def _to_fraction(value: Rationalish, where: str) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            f"{where}: floats are not silently promoted to rationals; "
            "pass int, str, Fraction, or Decimal"
        )
    if isinstance(value, (np.integer,)):
        return Fraction(int(value))
    return Fraction(value)


def rational_report(values: Sequence[Rationalish]) -> RationalReport:
    """All four indices in exact arithmetic.

    Values are scaled to a common integer denominator and everything is
    accumulated in arbitrary-precision integers, so no rounding occurs
    anywhere. Floats are rejected rather than silently promoted; pass
    decimal strings like ``"0.25"`` instead.
    """
    fracs = [_to_fraction(v, "values") for v in values]
    n = len(fracs)
    if n < 2:
        raise EmptyOrSingletonError(f"need at least 2 values, got {n}")
    den = math.lcm(*(f.denominator for f in fracs))
    ints = sorted(f.numerator * (den // f.denominator) for f in fracs)
    total = sum(ints)
    if total <= 0:
        raise NonPositiveTotalError(
            f"sum of values must be positive, got {Fraction(total, den)}"
        )
    # gap_i = (i*T - n*s_i) / (n*T); the common scale den cancels in every
    # share, so the integer values stand in for the originals exactly.
    running = 0
    gap_num = 0
    right_num = 0
    left_num = 0
    for i in range(1, n):
        running += ints[i - 1]
        num = i * total - n * running
        gap_num += num
        right_num += i * num
        left_num += (n - i) * num
    g = Fraction(2 * gap_num, n * n * total)
    gr = Fraction(4 * right_num, n**3 * total)
    gl = Fraction(4 * left_num, n**3 * total)
    return RationalReport(gini=g, g_right=gr, g_left=gl, sag=g + abs(gr - gl) / 2)


def rational_report_from_lorenz(
    points: Sequence[tuple[Rationalish, Rationalish]],
) -> RationalReport:
    """Exact indices from exact ``(p, q)`` Lorenz points.

    The p grid must equal ``i/n`` exactly and the last q must be exactly 1;
    a leading (0, 0) point is dropped.
    """
    pairs = [
        (_to_fraction(p, "p"), _to_fraction(q, "q")) for p, q in points
    ]
    if pairs and pairs[0][0] == 0:
        if pairs[0][1] != 0:
            raise BadEndpointError("a curve through p=0 must start at q=0")
        pairs = pairs[1:]
    n = len(pairs)
    if n < 2:
        raise EmptyOrSingletonError("need at least 2 points beyond the origin")
    for i, (p, _) in enumerate(pairs, start=1):
        if p != Fraction(i, n):
            raise UnequalSpacingError(
                f"p grid must be uniform i/n: point {i} has p={p}, "
                f"expected {Fraction(i, n)}"
            )
    if pairs[-1][1] != 1:
        raise BadEndpointError(f"last q must be 1, got {pairs[-1][1]}")
    gaps = [Fraction(i, n) - q for i, (_, q) in enumerate(pairs[:-1], start=1)]
    two_over_n = Fraction(2, n)
    g = two_over_n * sum(gaps)
    gr = two_over_n * sum(d * Fraction(2 * i, n) for i, d in enumerate(gaps, start=1))
    gl = two_over_n * sum(
        d * Fraction(2 * (n - i), n) for i, d in enumerate(gaps, start=1)
    )
    return RationalReport(gini=g, g_right=gr, g_left=gl, sag=g + abs(gr - gl) / 2)


def pairwise_gini(values: Sequence[float]) -> float:
    """Mean-absolute-difference form ``sum_ij |x_i - x_j| / (2 n^2 mean)``.

    Evaluated through the O(n log n) sorted form
    ``sum_i (2i - n - 1) x_(i) / (n * total)``, which equals the double sum
    exactly. That sorted form is the same L-statistic identity that
    :func:`sagini.metrics.report` evaluates for ``gini`` (weights
    ``c1 = 2k - n - 1``), so agreement between the two is no independent
    check of ``report``; only :func:`rational_report` is ground truth.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n < 2:
        raise EmptyOrSingletonError(f"need at least 2 values, got {n}")
    total = math.fsum(x)
    if total <= 0.0:
        raise NonPositiveTotalError(f"sum of values must be positive, got {total!r}")
    coeff = 2.0 * np.arange(1, n + 1, dtype=float) - (n + 1)
    return math.fsum(coeff * x) / (n * total)


@dataclass(frozen=True)
class TransferSpec:
    """A progressive transfer between two ranks of the ascending order.

    Ranks are 1-based positions in the sorted dataset; the donor must sit
    strictly above the recipient.
    """

    donor_rank: int
    recipient_rank: int
    amount: float

    def __post_init__(self) -> None:
        if not (isinstance(self.amount, (int, float)) and math.isfinite(self.amount)):
            raise ValueError(f"transfer amount must be a finite real, got {self.amount!r}")
        if self.amount <= 0:
            raise ValueError(f"transfer amount must be positive, got {self.amount!r}")
        if self.recipient_rank < 1:
            raise InvalidRanksError(
                f"ranks are 1-based, got recipient rank {self.recipient_rank}"
            )
        if self.recipient_rank >= self.donor_rank:
            raise InvalidRanksError(
                f"recipient rank {self.recipient_rank} must be below "
                f"donor rank {self.donor_rank}"
            )


def apply_transfer(data: Dataset, spec: TransferSpec) -> Dataset:
    """Move ``amount`` from donor to recipient, keeping the pair's order.

    Progressive means the donor stays at or above the recipient after the
    move; the transfer must leave them separated by at least
    ``TRANSFER_MARGIN * mean`` so a tie cannot make their ranks ambiguous.
    (Equivalently: ``amount`` may not reach ``(donor - recipient) / 2``.)
    Values stay in input order and the total is unchanged.
    """
    n = data.n
    if spec.donor_rank > n:
        raise InvalidRanksError(
            f"donor rank {spec.donor_rank} out of range for n={n}"
        )
    order = np.argsort(data.values, kind="stable")
    s = data.values[order]
    i = spec.recipient_rank - 1
    j = spec.donor_rank - 1
    new_recipient = s[i] + spec.amount
    new_donor = s[j] - spec.amount
    margin = TRANSFER_MARGIN * data.mean
    if new_donor - new_recipient < margin:
        raise RankViolationError(
            f"transfer of {spec.amount!r} from rank {spec.donor_rank} "
            f"({s[j]!r}) to rank {spec.recipient_rank} ({s[i]!r}) leaves "
            f"a donor-recipient gap of {new_donor - new_recipient!r}, "
            f"below the safety margin {margin!r}"
        )
    new_values = np.array(data.values)
    new_values[order[i]] = new_recipient
    new_values[order[j]] = new_donor
    return build_dataset(new_values)
