"""Seeded inputs for the four workloads.

Every input is a pure function of the benchmark seed. Incomes are drawn as
integer cents, so each workload has an exact decimal dataset behind it: the
oracle runs on those integers (the indices are scale-invariant, so cents
give the same exact values as the decimal amounts), while the program sees
the float array, the cents-formatted CSV, or Lorenz points derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

KERNEL_N = 1_000_000
COMPUTE_ROWS = 200_000
POINTS_N = 100_000
SWEEP_N = 10
SWEEP_REPS = 5_000

REGIONS = ("north", "south", "east", "west", "central")

# One independent stream per workload, so adding a workload never shifts
# another workload's inputs.
_STREAMS = {"kernel_1e6": 1, "cli_compute_2e5": 2, "cli_points_1e5": 3}


@dataclass(frozen=True)
class Inputs:
    """What one workload run feeds the program, plus its exact reference.

    ``cents`` is the exact dataset in integer cents (None for the sweep,
    whose data the program draws itself from the seed). ``files`` maps a
    role name to a file the program reads.
    """

    workload: str
    seed: int
    values_per_op: int
    cents: np.ndarray | None
    files: dict[str, Path]


def incomes_cents(seed: int, stream: int, n: int) -> np.ndarray:
    """Lognormal(10, 1) incomes in cents, ~3% exact zeros, ~1% small losses.

    Losses are at most 49.99, so the total stays far from zero and no
    cancellation is involved; adversarial inputs belong to the fuzz suite.
    """
    rng = np.random.default_rng([seed, stream])
    cents = np.round(rng.lognormal(10.0, 1.0, n) * 100.0).astype(np.int64)
    u = rng.random(n)
    cents[u < 0.03] = 0
    losses = u >= 0.99
    cents[losses] = -rng.integers(1, 5000, size=int(losses.sum()))
    return cents


def cents_text(c: int) -> str:
    sign = "-" if c < 0 else ""
    whole, frac = divmod(abs(c), 100)
    return f"{sign}{whole}.{frac:02d}"


def lorenz_shares(sorted_cents: np.ndarray) -> np.ndarray:
    """Correctly rounded ``q_i = s_i / T``; every partial sum is below 2**53."""
    s = np.cumsum(sorted_cents)
    if s[-1] <= 0 or np.abs(s).max() >= 2**53:
        raise ValueError("need a positive total and partial sums exact in float64")
    return s.astype(float) / float(s[-1])


def prepare(workload: str, seed: int, work: Path) -> Inputs:
    """Build and write the inputs of one workload run under ``work``."""
    if workload == "kernel_1e6":
        cents = incomes_cents(seed, _STREAMS[workload], KERNEL_N)
        path = work / "incomes.npy"
        np.save(path, cents / 100.0)
        return Inputs(workload, seed, KERNEL_N, cents, {"values": path})
    if workload == "sweep_small_n":
        return Inputs(workload, seed, SWEEP_N * SWEEP_REPS, None, {})
    if workload == "cli_compute_2e5":
        cents = incomes_cents(seed, _STREAMS[workload], COMPUTE_ROWS)
        regions = np.random.default_rng([seed, 0]).integers(0, len(REGIONS), COMPUTE_ROWS)
        lines = ["id,region,income"]
        lines += [
            f"{i},{REGIONS[r]},{cents_text(c)}"
            for i, (r, c) in enumerate(zip(regions.tolist(), cents.tolist()), start=1)
        ]
        path = work / "incomes.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return Inputs(workload, seed, COMPUTE_ROWS, cents, {"csv": path})
    if workload == "cli_points_1e5":
        cents = np.sort(incomes_cents(seed, _STREAMS[workload], POINTS_N))
        q = lorenz_shares(cents)
        n = POINTS_N
        # p_i = i/n is written as an exact decimal, q_i as the shortest
        # repr of its correctly rounded float.
        lines = [f"{i // n}.{i % n:05d},{qi!r}" for i, qi in enumerate(q.tolist(), start=1)]
        path = work / "points.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # Three commands read the file per op: compute, lorenz svg, lorenz ascii.
        return Inputs(workload, seed, 3 * n, cents, {"points": path})
    raise ValueError(f"unknown workload {workload!r}")
