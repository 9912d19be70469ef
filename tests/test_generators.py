"""Unit tests for the seeded generators and the replication sweep."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sagini import (
    BadParamsError,
    ExperimentConfig,
    generate,
    report,
    sensitivity_sweep,
)
from sagini.metrics import _MAX_EXACT_N


def config(family, n=100, reps=1, seed=1, **params):
    return ExperimentConfig(
        family=family, sample_size=n, replications=reps, seed=seed, params=params
    )


def adjusted_skewness(x):
    # adjusted Fisher-Pearson standardized third moment
    n = len(x)
    d = x - x.mean()
    g1 = (d**3).mean() / (d**2).mean() ** 1.5
    return math.sqrt(n * (n - 1)) / (n - 2) * g1


class TestConfigValidation:
    def test_unknown_family(self):
        with pytest.raises(BadParamsError, match="unknown family"):
            config("zipf")

    def test_sample_size_too_small(self):
        with pytest.raises(BadParamsError, match="sample_size"):
            config("uniform", n=1)

    def test_zero_replications(self):
        with pytest.raises(BadParamsError, match="replications"):
            config("uniform", reps=0)

    def test_seed_range(self):
        with pytest.raises(BadParamsError, match="seed"):
            config("uniform", seed=-1)
        with pytest.raises(BadParamsError, match="seed"):
            config("uniform", seed=2**64)

    def test_pareto_needs_finite_mean(self):
        with pytest.raises(BadParamsError, match="alpha"):
            config("pareto", alpha=1.0)
        with pytest.raises(BadParamsError, match="alpha"):
            config("pareto", alpha=0.5)

    def test_sample_size_above_kernel_limit(self):
        # Rejected when the config is built, before ~n floats are allocated.
        config("one_holder", n=_MAX_EXACT_N)
        with pytest.raises(BadParamsError, match=rf"sample_size must be in \[2, {_MAX_EXACT_N}\]"):
            config("one_holder", n=_MAX_EXACT_N + 1)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("lognormal", {"sigma": math.nan}),
            ("lognormal", {"sigma": math.inf}),
            ("pareto", {"alpha": math.inf}),
            ("uniform", {"high": math.inf}),
            ("uniform", {"low": -math.inf}),
            ("symmetric_triangular", {"low": math.nan}),
        ],
    )
    def test_non_finite_params(self, family, params):
        with pytest.raises(BadParamsError, match="must be finite"):
            config(family, **params)

    def test_negative_sigma(self):
        with pytest.raises(BadParamsError, match="sigma must be >= 0"):
            config("lognormal", sigma=-0.5)
        assert config("lognormal", sigma=0.0).params == {"sigma": 0.0}

    def test_bounds_ordering(self):
        with pytest.raises(BadParamsError, match="low"):
            config("uniform", low=2.0, high=1.0)

    def test_unknown_param(self):
        with pytest.raises(BadParamsError, match="sigma"):
            config("one_holder", sigma=1.0)

    def test_defaults_merged(self):
        cfg = config("lognormal")
        assert cfg.params == {"sigma": 1.0}


class TestGenerate:
    def test_one_holder(self):
        data = generate(config("one_holder", n=4), 0)
        assert data.values.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_bit_identical_reproduction(self):
        cfg = config("lognormal", n=500, reps=3, seed=42)
        again = config("lognormal", n=500, reps=3, seed=42)
        for rep in range(3):
            assert np.array_equal(generate(cfg, rep).values, generate(again, rep).values)

    def test_replications_differ(self):
        cfg = config("uniform", n=50, reps=2, seed=9)
        assert not np.array_equal(generate(cfg, 0).values, generate(cfg, 1).values)

    def test_seeds_differ(self):
        a = generate(config("uniform", n=50, seed=1), 0)
        b = generate(config("uniform", n=50, seed=2), 0)
        assert not np.array_equal(a.values, b.values)

    def test_rep_index_bounds(self):
        cfg = config("uniform", reps=2)
        with pytest.raises(BadParamsError, match="rep_index"):
            generate(cfg, 2)
        with pytest.raises(BadParamsError, match="rep_index"):
            generate(cfg, -1)

    def test_pareto_support(self):
        data = generate(config("pareto", n=2000, alpha=1.5), 0)
        assert np.all(data.values >= 1.0)

    def test_uniform_support(self):
        data = generate(config("uniform", n=2000, low=2.0, high=3.0), 0)
        assert np.all((data.values >= 2.0) & (data.values <= 3.0))

    def test_triangular_support_and_symmetry(self):
        data = generate(config("symmetric_triangular", n=20000, low=0.0, high=2.0), 0)
        assert np.all((data.values >= 0.0) & (data.values <= 2.0))
        assert data.mean == pytest.approx(1.0, abs=0.02)

    def test_lognormal_right_skew_sign(self):
        # right-skewed parent: positive sample skewness in at least 99/100 reps
        cfg = config("lognormal", n=1000, reps=100, seed=42, sigma=1.0)
        positive = sum(
            adjusted_skewness(generate(cfg, rep).values) > 0 for rep in range(100)
        )
        assert positive >= 99

    def test_triangular_population_symmetry(self):
        # symmetric parent: the tail indices straddle each other tightly
        cfg = config("symmetric_triangular", n=1001, reps=200, seed=7)
        diffs = []
        for rep in range(200):
            r = report(generate(cfg, rep))
            diffs.append(abs(r.g_right - r.g_left))
        assert float(np.median(diffs)) < 0.01


class TestSweep:
    def test_rows_ordered_and_deterministic(self):
        cfg = config("lognormal", n=200, reps=10, seed=5)
        result = sensitivity_sweep(cfg)
        assert [row.rep_index for row in result.rows] == list(range(10))
        assert sensitivity_sweep(cfg) == result

    def test_one_holder_matches_closed_form(self):
        # with a single positive holder the gaps are exactly i/n, so
        # g_right has the closed form (4/n^3) * sum of squares
        for n in (10, 100, 1000):
            result = sensitivity_sweep(config("one_holder", n=n))
            row = result.rows[0]
            squares = (n - 1) * n * (2 * n - 1) // 6
            expected = float(Fraction(4 * squares, n**3))
            assert row.g_right == pytest.approx(expected, rel=1e-12)
            assert row.gini == pytest.approx((n - 1) / n, rel=1e-12)
            assert row.g_left == pytest.approx(2 * (n - 1) / n - expected, rel=1e-12)

    def test_pareto_right_tail_dominates(self):
        result = sensitivity_sweep(config("pareto", n=2000, reps=50, seed=3, alpha=1.5))
        assert result.summary["g_right"]["median"] > result.summary["g_left"]["median"]

    def test_constant_family_all_zero(self):
        # degenerate uniform bounds = the perfect-equality family
        result = sensitivity_sweep(config("uniform", n=100, reps=5, seed=1, low=1.0, high=1.0))
        for metric, stats in result.summary.items():
            for value in stats.values():
                assert value == 0.0
        assert all(row.skew_direction == "symmetric" for row in result.rows)

    def test_summary_quantile_keys(self):
        result = sensitivity_sweep(config("uniform", n=50, reps=4, seed=2))
        assert set(result.summary) == {"gini", "g_right", "g_left", "sag", "sag_minus_gini"}
        for stats in result.summary.values():
            assert set(stats) == {"mean", "min", "p25", "median", "p75", "max"}
