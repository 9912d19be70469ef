"""Unit tests for the seeded generators and the replication sweep."""

import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from sagini import (
    BadParamsError,
    ExperimentConfig,
    SaginiError,
    build_dataset,
    generate,
    report,
    sensitivity_sweep,
)
from sagini import generators
from sagini.generators import SweepRow
from sagini.io import sweep_to_csv, sweep_to_json
from sagini.metrics import _CHUNK, _MAX_EXACT_N, SKEW_TOLERANCE, _skew_call


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

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None])
    @pytest.mark.parametrize("field", ["n", "reps", "seed"])
    def test_counts_and_seed_must_be_integers(self, field, value):
        # seed=1.5 would run seed 1's stream and write 1.5 into the document.
        name = {"n": "sample_size", "reps": "replications", "seed": "seed"}[field]
        with pytest.raises(BadParamsError, match=rf"^{name} must be an integer, got "):
            config("uniform", **{field: value})

    def test_numpy_integers_become_ints(self):
        cfg = config("uniform", n=np.int64(10), reps=np.uint8(2), seed=np.uint64(2**64 - 1))
        assert (cfg.sample_size, cfg.replications, cfg.seed) == (10, 2, 2**64 - 1)
        assert all(
            type(value) is int for value in (cfg.sample_size, cfg.replications, cfg.seed)
        )
        assert sensitivity_sweep(cfg).rows == sensitivity_sweep(
            config("uniform", n=10, reps=2, seed=2**64 - 1)
        ).rows

    @pytest.mark.parametrize("value", ["1", None, True, 1j, [1.0]])
    def test_params_must_be_real_numbers(self, value):
        with pytest.raises(BadParamsError, match=r"^sigma must be a real number, got "):
            config("lognormal", sigma=value)
        assert config("lognormal", sigma=2).params == {"sigma": 2}

    @pytest.mark.parametrize(
        "value, same",
        [(np.float32(0.5), 0.5), (Fraction(1, 2), 0.5), (1, 1.0), (np.int64(1), 1.0)],
        ids=["float32", "Fraction", "int", "int64"],
    )
    def test_params_become_floats(self, value, same):
        cfg = config("lognormal", n=10, reps=3, sigma=value)
        assert type(cfg.params["sigma"]) is float
        expected = sweep_to_json(sensitivity_sweep(config("lognormal", n=10, reps=3, sigma=same)))
        assert sweep_to_json(sensitivity_sweep(cfg)) == expected

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
            ("uniform", {"high": 10**400}),
            ("lognormal", {"sigma": Fraction(10**400)}),
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

    @pytest.mark.parametrize("family", ["uniform", "symmetric_triangular"])
    def test_width_must_be_finite(self, family):
        # Both bounds are finite, but every draw would be inf or nan.
        with pytest.raises(BadParamsError, match="high - low must be finite"):
            config(family, low=-1e308, high=1e308)
        config(family, low=-1e308, high=0.75e308)

    @pytest.mark.parametrize("family", ["uniform", "symmetric_triangular"])
    def test_same_sign_sum_must_fit(self, family):
        # Every draw is at least the smaller bound's magnitude, so every sum
        # of n draws overflows.
        with pytest.raises(BadParamsError, match="every sum of 2 values"):
            config(family, n=2, low=1e308, high=1e308)
        with pytest.raises(BadParamsError, match="every sum of 3 values"):
            config(family, n=3, low=-1e308, high=-0.6e308)
        config(family, n=2, low=0.8e308, high=1e308)
        config(family, n=3, low=-1e308, high=0.5e308)

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

    @pytest.mark.parametrize("rep", [True, False, 1.5, 1.0, "1", None])
    def test_rep_index_must_be_an_integer(self, rep):
        # As for ExperimentConfig's counts, a bool or a float is no index.
        with pytest.raises(BadParamsError, match=r"^rep_index must be an integer, got "):
            generate(config("uniform", reps=2), rep)

    @pytest.mark.parametrize("rep", [np.int64(1), np.uint8(1), np.uint64(1)])
    def test_rep_index_may_be_a_numpy_integer(self, rep):
        cfg = config("uniform", n=9, reps=2)
        assert np.array_equal(generate(cfg, rep).values, generate(cfg, 1).values)

    @pytest.mark.parametrize("rep", [0, 1, 7])
    def test_draws_follow_the_documented_stream(self, rep):
        # A fresh Philox(key=seed, counter=rep << 128) per replication.
        def fresh():
            return np.random.Generator(np.random.Philox(key=42, counter=rep << 128))

        lognormal = generate(config("lognormal", n=9, reps=8, seed=42, sigma=0.5), rep)
        assert np.array_equal(lognormal.values, fresh().lognormal(0.0, 0.5, 9))
        uniform = generate(config("uniform", n=9, reps=8, seed=42, low=-1.0, high=3.0), rep)
        assert np.array_equal(uniform.values, -1.0 + 4.0 * fresh().random(9))

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


def one_at_a_time(cfg):
    """The sweep's rows as a loop over replications computes them."""
    rows = []
    for rep in range(cfg.replications):
        r = report(generate(cfg, rep))
        rows.append(
            SweepRow(rep, r.gini, r.g_right, r.g_left, r.sag, r.sag - r.gini, r.skew_direction)
        )
    return rows


class TestBatchedSweep:
    """sensitivity_sweep evaluates blocks of max(1, _CHUNK // n) replications
    at a time; each row and the summary must be what one replication at a
    time gives, repr for repr."""

    @pytest.mark.parametrize(
        "cfg",
        [
            config("lognormal", n=10, reps=_CHUNK // 10 + 3, seed=12345, sigma=1.5),
            config("pareto", n=1000, reps=19, seed=3, alpha=1.3),
            config("uniform", n=3000, reps=5, seed=8, low=-0.5, high=4.0),
            config("symmetric_triangular", n=100, reps=3 * (_CHUNK // 100) + 1, seed=2),
            config("one_holder", n=5, reps=_CHUNK // 5 + 1),
            config("uniform", n=10, reps=_CHUNK // 10 + 1, seed=4, low=2.5, high=2.5),
            config("lognormal", n=_CHUNK + 3, reps=3, seed=7, sigma=2.0),
            config("pareto", n=2 * _CHUNK + 1, reps=2, seed=7, alpha=1.1),
        ],
        ids=[
            "lognormal",
            "pareto",
            "uniform",
            "triangular",
            "one_holder",
            "equal",
            "lognormal-multi-chunk",
            "pareto-multi-chunk",
        ],
    )
    def test_rows_match_one_replication_at_a_time(self, cfg):
        result = sensitivity_sweep(cfg)
        want = one_at_a_time(cfg)
        assert list(map(repr, result.rows)) == list(map(repr, want))
        for name, stats in result.summary.items():
            col = np.array([getattr(row, name) for row in want])
            expected = [col.mean(), col.min(), *np.quantile(col, [0.25, 0.5, 0.75]), col.max()]
            assert list(map(repr, stats.values())) == [repr(float(v)) for v in expected]

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize(
        "family, params",
        [
            ("lognormal", {"sigma": 0.75}),
            ("pareto", {"alpha": 1.5}),
            ("uniform", {"low": -1.0, "high": 3.0}),
            ("symmetric_triangular", {"low": 1.0, "high": 5.0}),
        ],
        ids=["lognormal", "pareto", "uniform", "triangular"],
    )
    def test_rows_follow_the_documented_stream(self, family, params, seed):
        # Each row is the report of draws from a fresh Philox(key=seed,
        # counter=rep << 128), drawn and transformed here, not by _draw,
        # across three draw blocks of _CHUNK // n replications.
        n = 50
        reps = 2 * (_CHUNK // n) + 3
        result = sensitivity_sweep(config(family, n=n, reps=reps, seed=seed, **params))
        want = []
        for rep in range(reps):
            rng = np.random.Generator(np.random.Philox(key=seed, counter=rep << 128))
            if family == "lognormal":
                x = rng.lognormal(0.0, params["sigma"], n)
            else:
                u = rng.random(n)
            if family == "pareto":
                x = (1.0 - u) ** (-1.0 / params["alpha"])
            elif family == "uniform":
                x = params["low"] + (params["high"] - params["low"]) * u
            elif family == "symmetric_triangular":
                low, width = params["low"], params["high"] - params["low"]
                x = np.where(
                    u < 0.5,
                    low + width * np.sqrt(u / 2.0),
                    params["high"] - width * np.sqrt((1.0 - u) / 2.0),
                )
            r = report(build_dataset(x))
            want.append(
                SweepRow(rep, r.gini, r.g_right, r.g_left, r.sag, r.sag - r.gini, r.skew_direction)
            )
        assert list(map(repr, result.rows)) == list(map(repr, want))

    def test_the_sweep_and_its_writers_build_no_rows(self, monkeypatch):
        # A result holds columns, and makes its rows only when asked for.
        cfg = config("lognormal", n=10, reps=20, seed=6)

        def no_rows(*_):
            raise AssertionError("built a SweepRow")

        with monkeypatch.context() as patch:
            patch.setattr(generators, "SweepRow", no_rows)
            result = sensitivity_sweep(cfg)
            text = sweep_to_json(result)
            sweep_to_csv(result)
        assert list(result.rows) == one_at_a_time(cfg)
        assert json.loads(text)["rows"] == [asdict(row) for row in result.rows]

    def test_skew_calls_at_the_tolerance_are_report_calls(self, monkeypatch):
        # The sweep calls skew a column at a time; report one row at a time.
        tol, above = SKEW_TOLERANCE, np.nextafter(SKEW_TOLERANCE, 1.0)
        g_right = np.array([tol, 0.0, above, 0.0, 0.5, np.nan])
        g_left = np.array([0.0, tol, 0.0, above, 0.5, 0.0])
        scores = np.stack([g_right, g_right, g_left, g_right])
        monkeypatch.setattr(generators, "_replication_scores", lambda x: scores[:, : len(x)])
        result = sensitivity_sweep(config("uniform", n=2, reps=6))
        calls = [_skew_call(gr, gl) for gr, gl in zip(g_right.tolist(), g_left.tolist())]
        assert calls == ["symmetric", "symmetric", "right", "left", "symmetric", "symmetric"]
        assert [row.skew_direction for row in result.rows] == calls

    @pytest.mark.parametrize("codes, bad", [([-1, 0], -1), ([0, 3, -1], 3)])
    def test_skew_codes_outside_the_calls_raise(self, codes, bad):
        # A negative code would read a call from the end; 3 indexes past them.
        result = sensitivity_sweep(config("lognormal", n=10, reps=len(codes)))
        made = generators.SweepResult(result.config, result.columns, np.array(codes), result.summary)
        for write in (lambda r: r.rows, sweep_to_csv, sweep_to_json):
            with pytest.raises(ValueError, match=rf"^code {bad} is not in range\(3\)$"):
                write(made)

    @pytest.mark.parametrize(
        "cfg, first_bad",
        [
            (config("uniform", n=10, reps=40, seed=14, low=-1.0, high=1.0), 7),
            (config("uniform", n=2000, reps=40, seed=155, low=-1.0, high=1.0), 8),
            (config("symmetric_triangular", n=10, reps=40, seed=9, low=-1e308, high=0.75e308), 1),
            (config("lognormal", n=10, reps=40, seed=3, sigma=500.0), 6),
        ],
        ids=["non-positive", "non-positive-third-block", "overflow", "inf-draw"],
    )
    def test_first_invalid_replication_raises_its_error(self, cfg, first_bad):
        for rep in range(first_bad):
            report(generate(cfg, rep))
        with pytest.raises(SaginiError) as want:
            report(generate(cfg, first_bad))
        with pytest.raises(type(want.value)) as got:
            sensitivity_sweep(cfg)
        assert str(got.value) == str(want.value)
