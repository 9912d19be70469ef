"""Seeded dataset generators and the replication sweep harness.

Randomness comes from NumPy's Philox 4x64 counter-based bit generator with
``key = seed`` and the counter block set to ``rep_index * 2**128``; streams
for distinct replications cannot overlap and every draw is a pure function
of ``(seed, rep_index)``, bit-for-bit across runs and platforms. Inverse-CDF
transforms are used for the pareto and triangular families so the mapping
from the bit stream to values is pinned down too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParamsError
from .metrics import _MAX_EXACT_N, Dataset, build_dataset, report

FAMILIES = ("lognormal", "pareto", "uniform", "symmetric_triangular", "one_holder")

_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "lognormal": {"sigma": 1.0},
    "pareto": {"alpha": 2.0},
    "uniform": {"low": 0.0, "high": 1.0},
    "symmetric_triangular": {"low": 0.0, "high": 2.0},
    "one_holder": {},
}

_SWEEP_METRICS = ("gini", "g_right", "g_left", "sag", "sag_minus_gini")


@dataclass(frozen=True)
class ExperimentConfig:
    """Distribution family, parameters, and replication plan."""

    family: str
    sample_size: int
    replications: int
    seed: int
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise BadParamsError(
                f"unknown family {self.family!r}; choose from {', '.join(FAMILIES)}"
            )
        if not 2 <= self.sample_size <= _MAX_EXACT_N:
            raise BadParamsError(
                f"sample_size must be in [2, {_MAX_EXACT_N}], got {self.sample_size}"
            )
        if self.replications < 1:
            raise BadParamsError(f"replications must be >= 1, got {self.replications}")
        if not 0 <= self.seed < 2**64:
            raise BadParamsError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        defaults = _DEFAULT_PARAMS[self.family]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise BadParamsError(
                f"parameter(s) {sorted(unknown)} not valid for family {self.family!r}"
            )
        merged = {**defaults, **dict(self.params)}
        for name, value in merged.items():
            if not math.isfinite(value):
                raise BadParamsError(f"{name} must be finite, got {value}")
        if self.family == "lognormal" and not merged["sigma"] >= 0.0:
            raise BadParamsError(f"lognormal sigma must be >= 0, got {merged['sigma']}")
        if self.family == "pareto" and not merged["alpha"] > 1.0:
            raise BadParamsError(
                f"pareto alpha must exceed 1 for a finite mean, got {merged['alpha']}"
            )
        if self.family in ("uniform", "symmetric_triangular"):
            if not merged["low"] <= merged["high"]:
                raise BadParamsError(
                    f"need low <= high, got low={merged['low']} high={merged['high']}"
                )
        object.__setattr__(self, "params", merged)


def _rng(seed: int, rep_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=rep_index << 128))


def generate(config: ExperimentConfig, rep_index: int) -> Dataset:
    """Draw one dataset; bit-identical for identical ``(config, rep_index)``."""
    if not 0 <= rep_index < config.replications:
        raise BadParamsError(
            f"rep_index must be in [0, {config.replications}), got {rep_index}"
        )
    n = config.sample_size
    par = config.params
    if config.family == "one_holder":
        values = np.zeros(n)
        values[-1] = 1.0
        return build_dataset(values)
    rng = _rng(config.seed, rep_index)
    if config.family == "lognormal":
        values = rng.lognormal(mean=0.0, sigma=par["sigma"], size=n)
    elif config.family == "pareto":
        # survival function (1/x)**alpha on [1, inf)
        values = (1.0 - rng.random(n)) ** (-1.0 / par["alpha"])
    elif config.family == "uniform":
        values = par["low"] + (par["high"] - par["low"]) * rng.random(n)
    else:  # symmetric_triangular, mode at the midpoint
        low, high = par["low"], par["high"]
        width = high - low
        u = rng.random(n)
        rising = low + width * np.sqrt(u / 2.0)
        falling = high - width * np.sqrt((1.0 - u) / 2.0)
        values = np.where(u < 0.5, rising, falling)
    return build_dataset(values)


@dataclass(frozen=True)
class SweepRow:
    rep_index: int
    gini: float
    g_right: float
    g_left: float
    sag: float
    sag_minus_gini: float
    skew_direction: str


@dataclass(frozen=True)
class SweepResult:
    """Per-replication index values plus summary statistics."""

    config: ExperimentConfig
    rows: tuple[SweepRow, ...]
    summary: dict[str, dict[str, float]]


def sensitivity_sweep(config: ExperimentConfig) -> SweepResult:
    """Run every replication and summarise the four indices.

    Rows come back ordered by replication index, and the whole result is a
    pure function of the config (seed included). The summary holds mean and
    quantiles for each index and for the asymmetry premium ``sag - gini``.
    """
    rows = []
    for rep in range(config.replications):
        rep_report = report(generate(config, rep))
        rows.append(
            SweepRow(
                rep_index=rep,
                gini=rep_report.gini,
                g_right=rep_report.g_right,
                g_left=rep_report.g_left,
                sag=rep_report.sag,
                sag_minus_gini=rep_report.sag - rep_report.gini,
                skew_direction=rep_report.skew_direction,
            )
        )
    summary: dict[str, dict[str, float]] = {}
    for name in _SWEEP_METRICS:
        col = np.array([getattr(row, name) for row in rows])
        summary[name] = {
            "mean": float(col.mean()),
            "min": float(col.min()),
            "p25": float(np.quantile(col, 0.25)),
            "median": float(np.quantile(col, 0.5)),
            "p75": float(np.quantile(col, 0.75)),
            "max": float(col.max()),
        }
    return SweepResult(config=config, rows=tuple(rows), summary=summary)
