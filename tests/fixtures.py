"""Golden fixtures shared across the test suite.

Three ten-point Lorenz configurations with (nearly) equal dispersion but
different asymmetry, plus hand-derived small cases. The expected index
values are confirmed exactly by the rational oracle (see test_oracle.py
and test_acceptance.py) before being asserted against the float pipeline.
"""

from fractions import Fraction

from sagini import TransferSpec

SYMMETRIC_VALUES = [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 14.0, 16.0, 17.0, 18.0]
SYMMETRIC_Q = [0.02, 0.05, 0.09, 0.15, 0.23, 0.35, 0.49, 0.65, 0.82, 1.00]
RIGHT_SKEWED_Q = [0.06, 0.12, 0.18, 0.24, 0.30, 0.36, 0.43, 0.50, 0.66, 1.00]
LEFT_SKEWED_Q = [0.01, 0.03, 0.06, 0.11, 0.24, 0.38, 0.53, 0.67, 0.83, 1.00]

SYMMETRIC_GAPS = [0.08, 0.15, 0.21, 0.25, 0.27, 0.25, 0.21, 0.15, 0.08]
RIGHT_SKEWED_GAPS = [0.04, 0.08, 0.12, 0.16, 0.20, 0.24, 0.27, 0.30, 0.24]

SYMMETRIC_EXPECTED = {
    "gini": 0.33,
    "g_right": 0.33,
    "g_left": 0.33,
    "sag": 0.33,
    "skew": "symmetric",
}
RIGHT_SKEWED_EXPECTED = {
    "gini": 0.33,
    "g_right": 0.4036,
    "g_left": 0.2564,
    "sag": 0.4036,
    "skew": "right",
}
LEFT_SKEWED_EXPECTED = {
    "gini": 0.328,
    "g_right": 0.3116,
    "g_left": 0.3444,
    "sag": 0.3444,
    "skew": "left",
}


def points_from_q(q_values):
    """Lorenz (p, q) pairs on the uniform grid for the given q column."""
    n = len(q_values)
    return [((i + 1) / n, q) for i, q in enumerate(q_values)]


def points_from_gaps(gaps):
    """Lorenz (p, q) pairs on the grid i/n whose gaps p_i - q_i are ``gaps``."""
    n = len(gaps) + 1
    return [(i / n, i / n - d) for i, d in enumerate(gaps, start=1)] + [(1.0, 1.0)]


def exact_points(points):
    """The same points for the rational oracle: p on the exact grid i/n, q as is."""
    n = len(points)
    return [(Fraction(i, n), Fraction(q)) for i, (_, q) in enumerate(points, start=1)]


def propose_transfer(values):
    """A valid bottom-to-top progressive transfer, or None.

    Sized at 45% of the min-to-max spread, so it clears the tie margin
    comfortably and shrinks every index by well over 1e-12.
    """
    s = sorted(values)
    n = len(s)
    spread = s[-1] - s[0]
    mean = sum(values) / n
    if spread <= 0 or spread < 1e-8 * abs(mean):
        return None
    return TransferSpec(donor_rank=n, recipient_rank=1, amount=0.45 * spread)
