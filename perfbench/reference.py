"""A fixed slice of reference work that measures the host's current speed.

On a shared host the same op can take 40% longer for tens of seconds at a
time, while nothing in the process changes. Timing this slice right
before and after every command gives the speed the command ran at, so its
time can be scaled to the speed at which the slice takes ``REFERENCE_S``.
The slice mixes the two kinds of work sagini does: interpreter-bound text
formatting, parsing and JSON encoding of 20,000 floats (about 60% of the
slice), and a numpy sort and ``math.fsum`` over a 4 MB array. It touches
no sagini code, so a change to the program cannot move it.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

import numpy as np

#: Median seconds of one slice, over 770 slices taken between commands in
#: 40 workload runs on the host the bounds were set on (2 vCPUs, Python
#: 3.11, numpy 2.4), so scaled times read close to that host's typical
#: wall times. Only ratios against it matter: both sides of a comparison
#: use the same value.
REFERENCE_S = 0.087

_rng = np.random.default_rng(20210806)
_TEXT_VALUES = _rng.lognormal(0.0, 1.0, 20_000).tolist()
_ARRAY = _rng.random(500_000)


def slice_seconds() -> float:
    """Run the reference slice once and return its wall seconds."""
    start = perf_counter()
    text = ",".join(map(repr, _TEXT_VALUES))
    parsed = [float(cell) for cell in text.split(",")]
    json.dumps(parsed)
    ordered = np.sort(_ARRAY)
    math.fsum(ordered)
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two slices, scaled to the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
