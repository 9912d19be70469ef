"""Seeded dataset generators and the replication sweep harness.

Randomness comes from NumPy's Philox 4x64 counter-based bit generator with
``key = seed`` and the counter block set to ``rep_index * 2**128``; streams
for distinct replications cannot overlap and every draw is a pure function
of ``(seed, rep_index)``, bit-for-bit across runs and platforms. Inverse-CDF
transforms are used for the pareto and triangular families so the mapping
from the bit stream to values is pinned down too.

A sweep uses one generator for all its replications: before each one the
counter is reset to ``rep_index * 2**128`` and the buffer emptied, which
draws the same bits as a fresh generator for that replication. The reset
writes one word of a state dict of Python ints and hands it to the state
setter, about 0.5 µs, where numpy uint64 arrays cost 1–2 µs; at n = 10 a
replication's ``lognormal`` or ``random`` call takes about another 0.7–2
µs (2-core x86-64, numpy 2.4). Blocks of about one kernel chunk of values
get one batched validation and one kernel pass each
(:func:`sagini.metrics._replication_scores`), into columns of arrays. A
:class:`SweepResult` holds those columns, which the sweep writers of
:mod:`sagini.io` write as they are, and makes its rows only when they
are asked for. Rows and summary are the same, bit for bit, as
``report(generate(config, rep))`` one replication at a time; :func:`generate`
is the one-replication case of the same draw.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import get_args

import numpy as np

from .errors import BadParamsError
from .metrics import (
    _CHUNK,
    _MAX_EXACT_N,
    Dataset,
    SkewDirection,
    _readonly,
    _replication_scores,
    _skew_codes,
    build_dataset,
)

FAMILIES = ("lognormal", "pareto", "uniform", "symmetric_triangular", "one_holder")

_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "lognormal": {"sigma": 1.0},
    "pareto": {"alpha": 2.0},
    "uniform": {"low": 0.0, "high": 1.0},
    "symmetric_triangular": {"low": 0.0, "high": 2.0},
    "one_holder": {},
}


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
        for name in ("sample_size", "replications", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise BadParamsError(f"{name} must be an integer, got {value!r}")
            # A numpy integer becomes an int: the sweep document is json.
            object.__setattr__(self, name, int(value))
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
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise BadParamsError(f"{name} must be a real number, got {value!r}")
            # A float, as the CLI's options give: the sweep document is json.
            try:
                merged[name] = value = float(value)
            except OverflowError:
                raise BadParamsError(
                    f"{name} must be finite, got a number beyond the float range"
                ) from None
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
            if not math.isfinite(merged["high"] - merged["low"]):
                raise BadParamsError(
                    f"high - low must be finite, got low={merged['low']} high={merged['high']}"
                )
            # Same-sign bounds: every draw is at least the smaller magnitude.
            smallest = min(abs(merged["low"]), abs(merged["high"]))
            if (merged["low"] > 0.0 or merged["high"] < 0.0) and math.isinf(
                smallest * self.sample_size
            ):
                raise BadParamsError(
                    f"every sum of {self.sample_size} values in [low, high] overflows "
                    f"float64, got low={merged['low']} high={merged['high']}"
                )
        object.__setattr__(self, "params", merged)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _draw(config: ExperimentConfig, rng: np.random.Generator, reps: range) -> np.ndarray:
    """The values of replications ``reps``, one row each.

    ``rng`` is a generator on a ``Philox(key=config.seed)``. Before each
    replication its counter is set to ``rep << 128`` and its buffer
    emptied, which is the state of a fresh ``Philox(key=seed,
    counter=rep << 128)``, so the row holds the bits that fresh generator
    would draw.
    """
    n = config.sample_size
    par = config.params
    block = np.zeros((len(reps), n))
    if config.family == "one_holder":
        block[:, -1] = 1.0
        return block
    bit_generator = rng.bit_generator
    state = bit_generator.state
    # The setter reads Python ints several times faster than numpy uint64
    # scalars, and tolist() keeps a key up to 2**64 - 1 exact. Words are
    # little-endian, so counter[2] = rep is a counter of rep << 128.
    counter = [0, 0, 0, 0]
    state.update(
        state={"counter": counter, "key": state["state"]["key"].tolist()},
        buffer=state["buffer"].tolist(),
        buffer_pos=4,
        has_uint32=0,
    )
    if config.family == "lognormal":
        lognormal, sigma = rng.lognormal, par["sigma"]
        for row, rep in zip(block, reps):
            counter[2] = rep
            bit_generator.state = state
            row[:] = lognormal(0.0, sigma, n)
        return block
    random = rng.random
    for row, rep in zip(block, reps):
        counter[2] = rep
        bit_generator.state = state
        random(out=row)
    u = block
    if config.family == "pareto":
        # survival function (1/x)**alpha on [1, inf)
        return (1.0 - u) ** (-1.0 / par["alpha"])
    if config.family == "uniform":
        return par["low"] + (par["high"] - par["low"]) * u
    # symmetric_triangular, mode at the midpoint
    low, high = par["low"], par["high"]
    width = high - low
    rising = low + width * np.sqrt(u / 2.0)
    falling = high - width * np.sqrt((1.0 - u) / 2.0)
    return np.where(u < 0.5, rising, falling)


def generate(config: ExperimentConfig, rep_index: int) -> Dataset:
    """Draw one dataset; bit-identical for identical ``(config, rep_index)``."""
    if isinstance(rep_index, bool) or not isinstance(rep_index, numbers.Integral):
        raise BadParamsError(f"rep_index must be an integer, got {rep_index!r}")
    rep_index = int(rep_index)
    if not 0 <= rep_index < config.replications:
        raise BadParamsError(
            f"rep_index must be in [0, {config.replications}), got {rep_index}"
        )
    reps = range(rep_index, rep_index + 1)
    return build_dataset(_draw(config, _rng(config.seed), reps)[0])


@dataclass(frozen=True)
class SweepRow:
    """One replication of a sweep: its index, its four indices, ``sag -
    gini`` and its skew call. The fields, in order, are the columns of the
    sweep's JSON rows and CSV."""

    rep_index: int
    gini: float
    g_right: float
    g_left: float
    sag: float
    sag_minus_gini: float
    skew_direction: str


@dataclass(frozen=True)
class SweepResult:
    """Per-replication index values plus summary statistics.

    The values are kept as columns, replication ``i`` at index ``i``:
    ``columns`` holds the five float fields of :class:`SweepRow` as float64
    arrays by name, and ``skew`` the skew calls as codes into
    ``get_args(SkewDirection)``. :attr:`rows` makes the rows from them.
    """

    config: ExperimentConfig
    columns: dict[str, np.ndarray]
    skew: np.ndarray
    summary: dict[str, dict[str, float]]

    @cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        """The rows; a skew code outside ``range(3)`` raises
        :class:`ValueError`."""
        names = get_args(SkewDirection)
        bad = np.flatnonzero((self.skew < 0) | (self.skew >= len(names)))
        if bad.size:
            raise ValueError(f"code {self.skew.flat[bad[0]]} is not in range({len(names)})")
        calls = np.array(names, dtype=object)[self.skew].tolist()
        values = zip(*(column.tolist() for column in self.columns.values()), calls)
        return tuple(SweepRow(rep, *fields) for rep, fields in enumerate(values))

    def __eq__(self, other) -> bool:
        # Field-wise equality would compare the arrays with ==, whose truth
        # value is ambiguous.
        if not isinstance(other, SweepResult):
            return NotImplemented
        return (
            self.config == other.config
            and self.columns.keys() == other.columns.keys()
            and all(np.array_equal(self.columns[name], other.columns[name]) for name in self.columns)
            and np.array_equal(self.skew, other.skew)
            and self.summary == other.summary
        )


def sensitivity_sweep(config: ExperimentConfig) -> SweepResult:
    """Run every replication and summarise the four indices.

    Replications come back ordered by index, and the whole result is a pure
    function of the config (seed included). The summary holds mean and
    quantiles for each index and for the asymmetry premium ``sag - gini``.
    """
    reps = config.replications
    # Blocks of about one kernel chunk of values keep the working set small.
    block = max(1, _CHUNK // config.sample_size)
    rng = _rng(config.seed)
    gini, g_right, g_left, sag = np.concatenate(
        [
            _replication_scores(_draw(config, rng, range(start, min(start + block, reps))))
            for start in range(0, reps, block)
        ],
        axis=1,
    )
    columns = dict(gini=gini, g_right=g_right, g_left=g_left, sag=sag, sag_minus_gini=sag - gini)
    skew = _skew_codes(g_right, g_left)
    summary = {}
    for name, col in columns.items():
        p25, median, p75 = np.quantile(col, [0.25, 0.5, 0.75]).tolist()
        mean, low, high = float(col.mean()), float(col.min()), float(col.max())
        summary[name] = dict(mean=mean, min=low, p25=p25, median=median, p75=p75, max=high)
    columns = {name: _readonly(col) for name, col in columns.items()}
    return SweepResult(config=config, columns=columns, skew=_readonly(skew), summary=summary)
