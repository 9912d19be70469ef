"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from sagini import build_dataset, cli, report
from sagini.cli import main
from sagini.errors import ParseError, SaginiError

DATA = Path(__file__).parent / "data"
SYMMETRIC = str(DATA / "symmetric.csv")
RIGHT = str(DATA / "right_lorenz.csv")
LEFT = str(DATA / "left_lorenz.csv")


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


VALIDATION_ERRORS = sorted(
    (e for e in _subclasses(SaginiError) if not issubclass(e, ParseError)),
    key=lambda e: e.__name__,
)


class TestLoadErrorExitCodes:
    @pytest.mark.parametrize("error", VALIDATION_ERRORS, ids=lambda e: e.__name__)
    @pytest.mark.parametrize("command", ["compute", "lorenz"])
    def test_validation_error_exit_3(self, runner, monkeypatch, command, error):
        def fail(_):
            raise error("injected")

        monkeypatch.setattr(cli, "build_dataset", fail)
        result = runner.invoke(main, [command, "-i", SYMMETRIC])
        assert result.exit_code == 3
        assert error.__name__ in result.stderr

    @pytest.mark.parametrize("command", ["compute", "lorenz"])
    def test_parse_error_keeps_exit_2(self, runner, monkeypatch, command):
        def fail(_):
            raise ParseError("injected")

        monkeypatch.setattr(cli, "read_values", fail)
        result = runner.invoke(main, [command, "-i", SYMMETRIC])
        assert result.exit_code == 2
        assert "ParseError" in result.stderr


class TestCompute:
    def test_symmetric_fixture_json(self, runner):
        result = run(runner, "compute", "-i", SYMMETRIC, "--no-provenance")
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["indices"]["gini"] == pytest.approx(0.33, abs=1e-12)
        assert doc["indices"]["sag"] == pytest.approx(0.33, abs=1e-12)
        assert doc["indices"]["skew_direction"] == "symmetric"
        assert doc["input"]["total"] == 100.0

    def test_stdin(self, runner):
        result = run(runner, "compute", input="0\n0\n3\n")
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["indices"]["sag"] == pytest.approx(20 / 27, rel=1e-12)

    def test_empty_input_exit_3(self, runner):
        result = runner.invoke(main, ["compute"], input="")
        assert result.exit_code == 3
        assert "EmptyOrSingleton" in result.stderr

    def test_nan_exit_3(self, runner):
        result = runner.invoke(main, ["compute"], input="1\nnan\n2\n")
        assert result.exit_code == 3
        assert "NonFiniteValue" in result.stderr

    def test_negative_total_exit_3(self, runner):
        result = runner.invoke(main, ["compute"], input="-5\n1\n")
        assert result.exit_code == 3
        assert "NonPositiveTotal" in result.stderr

    def test_parse_error_exit_2_with_line(self, runner):
        result = runner.invoke(main, ["compute"], input="1\nobviously-not-a-number\n")
        assert result.exit_code == 2
        assert "line 2" in result.stderr

    def test_comma_decimal_exit_2(self, runner):
        result = runner.invoke(main, ["compute", "--column", "1"], input='"1,5"\n"2,5"\n')
        assert result.exit_code == 2
        assert "decimal point" in result.stderr

    def test_missing_file_exit_2(self, runner):
        result = runner.invoke(main, ["compute", "-i", "no/such/file.csv"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["compute", "lorenz"])
    def test_missing_file_same_message_in_every_command(self, runner, command):
        result = runner.invoke(main, [command, "-i", "no/such/file.csv"])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: cannot read input: [Errno 2] No such file or directory: "
            "'no/such/file.csv'\n"
        )

    def test_nan_message_names_a_plain_float(self, runner):
        result = runner.invoke(main, ["compute"], input="1\nnan\n2\n")
        assert result.exit_code == 3
        assert result.stderr == (
            "error: NonFiniteValueError: non-finite value nan at index 1\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1\n2_000\n", "line 2, column 1: '2_000' is not a number"),
            ("1\n\u0663\n", "line 2, column 1: '\u0663' is not a number"),
        ],
    )
    def test_underscore_and_non_ascii_digits_exit_2(self, runner, text, message):
        result = runner.invoke(main, ["compute", "-c", "1"], input=text.encode())
        assert result.exit_code == 2
        assert result.stderr == f"error: ParseError: {message}\n"

    def test_from_lorenz_right_fixture(self, runner):
        result = run(runner, "compute", "-i", RIGHT, "--from-lorenz", "--no-provenance")
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["indices"]["gini"] == pytest.approx(0.33, abs=1e-12)
        assert doc["indices"]["sag"] == pytest.approx(0.4036, abs=1e-12)
        assert doc["input"]["mean"] is None

    def test_from_lorenz_nonconvex_warns(self, runner):
        result = run(runner, "compute", "-i", LEFT, "--from-lorenz", "--no-provenance")
        assert result.exit_code == 0
        assert "not convex" in result.stderr
        doc = json.loads(result.stdout)
        assert doc["indices"]["convex"] is False
        assert doc["indices"]["skew_direction"] == "left"

    def test_from_lorenz_bad_grid_exit_3(self, runner):
        result = runner.invoke(
            main, ["compute", "--from-lorenz"], input="0.1,0.0\n0.7,0.5\n1.0,1.0\n"
        )
        assert result.exit_code == 3
        assert "UnequalSpacing" in result.stderr

    def test_column_by_name(self, runner):
        result = run(
            runner,
            "compute",
            "-i",
            str(DATA / "labeled.csv"),
            "--header",
            "--column",
            "income",
            "--no-provenance",
        )
        doc = json.loads(result.stdout)
        assert doc["input"]["n"] == 10

    def test_text_format(self, runner):
        result = run(runner, "compute", "-i", SYMMETRIC, "-f", "text")
        assert "gini:             0.330000" in result.stdout

    def test_csv_format(self, runner):
        result = run(runner, "compute", "-i", SYMMETRIC, "-f", "csv", "--no-provenance")
        assert result.stdout.startswith("key,value\n")

    def test_provenance_present_by_default(self, runner):
        result = run(runner, "compute", "-i", SYMMETRIC)
        doc = json.loads(result.stdout)
        assert doc["provenance"]["input_digest"].startswith("sha256:")

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = run(runner, "compute", "-i", SYMMETRIC, "-o", str(out), "--no-provenance")
        assert result.exit_code == 0
        assert json.loads(out.read_text())["input"]["n"] == 10

    def test_unwritable_output_exit_2(self, runner):
        result = runner.invoke(
            main, ["compute", "-i", SYMMETRIC, "-o", "no/such/dir/out.json"]
        )
        assert result.exit_code == 2


class TestInputEdges:
    def test_cancelling_cumsum_exit_0(self, runner, tmp_path):
        rows = ["-1e20", "1e20", "1"]
        path = tmp_path / "cancel.csv"
        path.write_text("\n".join(rows) + "\n")
        result = run(runner, "compute", "-i", str(path), "--no-provenance")
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        expected = report(build_dataset([float(r) for r in rows]))
        assert doc["indices"]["gini"] == expected.gini
        assert doc["lorenz"]["q"][-1] == 1.0

    @pytest.mark.parametrize("command", ["compute", "lorenz"])
    def test_raw_values_never_warn_non_convex(self, runner, command):
        # The float cumulative sum of these sorted values has a decreasing
        # step; the exact curve does not.
        result = run(runner, command, "-i", "-", input="-1e16\n2\n2\n2\n1e16\n")
        assert result.exit_code == 0
        assert "not convex" not in result.stderr

    @pytest.mark.parametrize("command", ["compute", "lorenz"])
    def test_leading_bom_ignored(self, runner, command):
        result = run(
            runner, command, "-i", "-", "--header", "-c", "income",
            input=b"\xef\xbb\xbfid,income\n1,2\n2,3\n3,4\n",
        )
        assert result.exit_code == 0
        result = run(runner, command, "-i", "-", input=b"\xef\xbb\xbf2\n3\n4\n")
        assert result.exit_code == 0

    @pytest.mark.parametrize("from_lorenz", [[], ["--from-lorenz"]])
    @pytest.mark.parametrize("command", ["compute", "lorenz"])
    def test_invalid_utf8_exit_2_with_line(self, runner, command, from_lorenz):
        result = runner.invoke(
            main, [command, "-i", "-", *from_lorenz], input=b"0.5,0.25\n1.0,\xff1.0\n"
        )
        assert result.exit_code == 2
        assert "ParseError: line 2: byte 0xff is not valid UTF-8" in result.stderr

    def test_cell_over_csv_field_limit_exit_2_with_line(self, runner):
        cell = "7" * 140_000
        result = run(
            runner, "compute", "-i", "-", "-c", "2", input=f"a,1\nb,2\nc,{cell}\n"
        )
        assert result.exit_code == 2
        assert "ParseError: line 3: field larger than field limit" in result.stderr

    def test_header_only_points_exit_3_with_one_error_line(self, runner, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("p,q\n")
        result = runner.invoke(
            main, ["compute", "-i", str(path), "--from-lorenz", "--header"]
        )
        assert result.exit_code == 3
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("spec", ["\u00b2", "\u0661", "\uff11"])
    @pytest.mark.parametrize("command", ["compute", "lorenz"])
    def test_non_ascii_digit_column_is_a_name(self, runner, command, spec):
        result = runner.invoke(main, [command, "-i", "-", "-c", spec], input="1\n2\n")
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: ParseError: column selected by name {spec!r} but no header "
            "row (pass --header)\n"
        )

    @pytest.mark.parametrize("spec", ["\u00b2", "\u0661"])
    def test_non_ascii_digit_column_selects_by_header(self, runner, spec):
        result = run(
            runner, "compute", "--header", "-c", spec, "--no-provenance",
            input=f"a,{spec}\n1,5\n2,7\n",
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout)["input"]["total"] == 12.0


class TestLorenzCommand:
    def test_stdin_twice_rejected_before_reading(self, runner):
        result = run(runner, "lorenz", "-i", "-", "-i", "-", input="1\n2\n3\n")
        assert result.exit_code == 2
        assert "stdin ('-') can be read only once" in result.stderr
        assert "EmptyOrSingletonError" not in result.stderr


    def test_svg_output(self, runner):
        result = run(runner, "lorenz", "-i", SYMMETRIC)
        assert result.exit_code == 0
        assert result.stdout.startswith("<svg")
        assert "polyline" in result.stdout

    def test_three_curve_overlay(self, runner):
        result = run(
            runner,
            "lorenz",
            "-i",
            SYMMETRIC,
            "-i",
            RIGHT,
            "-i",
            LEFT,
            "--from-lorenz",
        )
        # --from-lorenz applies to every input; the one-column dataset file
        # cannot parse as (p, q) points
        assert result.exit_code == 2
        result = run(
            runner,
            "lorenz",
            "-i",
            str(DATA / "symmetric_lorenz.csv"),
            "-i",
            RIGHT,
            "-i",
            LEFT,
            "--from-lorenz",
        )
        assert result.exit_code == 0
        assert result.stdout.count("<polyline") == 3
        assert ">symmetric_lorenz</text>" in result.stdout
        assert ">right_lorenz</text>" in result.stdout
        assert ">left_lorenz</text>" in result.stdout

    def test_ascii_output(self, runner):
        result = run(runner, "lorenz", "-i", SYMMETRIC, "--style", "ascii")
        assert result.exit_code == 0
        assert "*" in result.stdout


class TestSimulate:
    def test_one_holder_row(self, runner):
        result = run(
            runner,
            "simulate",
            "--dist",
            "one_holder",
            "--n",
            "1000",
            "--reps",
            "1",
            "--seed",
            "1",
        )
        doc = json.loads(result.stdout)
        row = doc["rows"][0]
        n = 1000
        closed = 4 * ((n - 1) * n * (2 * n - 1) // 6) / n**3
        assert row["g_right"] == pytest.approx(closed, rel=1e-12)
        assert abs(row["g_right"] - 4 / 3) < 3 / n
        assert doc["summary"]["gini"]["median"] == pytest.approx((n - 1) / n, rel=1e-12)

    def test_one_holder_million_approaches_bound(self, runner):
        result = run(
            runner,
            "simulate",
            "--dist",
            "one_holder",
            "--n",
            "1000000",
            "--reps",
            "1",
            "--seed",
            "1",
        )
        row = json.loads(result.stdout)["rows"][0]
        n = 10**6
        assert abs(row["g_right"] - 4 / 3) < 3 / n
        assert abs(row["g_left"] - 2 / 3) < 3 / n

    def test_zero_reps_exit_4(self, runner):
        result = runner.invoke(
            main,
            ["simulate", "--dist", "uniform", "--n", "10", "--reps", "0", "--seed", "1"],
        )
        assert result.exit_code == 4
        assert "BadParams" in result.stderr

    def test_bad_alpha_exit_4(self, runner):
        result = runner.invoke(
            main,
            [
                "simulate",
                "--dist",
                "pareto",
                "--n",
                "10",
                "--reps",
                "1",
                "--seed",
                "1",
                "--alpha",
                "0.9",
            ],
        )
        assert result.exit_code == 4

    def test_csv_rows_and_summary(self, runner):
        result = run(
            runner,
            "simulate",
            "--dist",
            "uniform",
            "--n",
            "20",
            "--reps",
            "3",
            "--seed",
            "11",
            "-f",
            "csv",
        )
        lines = result.stdout.splitlines()
        assert lines[0].startswith("rep_index,")
        assert lines[1].startswith("0,")
        assert any(line.startswith("summary,gini,median,") for line in lines)

    def test_deterministic_bytes(self, runner):
        args = [
            "simulate",
            "--dist",
            "lognormal",
            "--n",
            "200",
            "--reps",
            "5",
            "--seed",
            "99",
            "--sigma",
            "0.7",
        ]
        assert run(runner, *args).stdout == run(runner, *args).stdout


class TestDeterminism:
    def test_json_byte_identical(self, runner, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(runner, "compute", "-i", SYMMETRIC, "--no-provenance", "-o", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_svg_byte_identical(self, runner, tmp_path):
        outs = []
        for name in ("a.svg", "b.svg"):
            out = tmp_path / name
            run(runner, "lorenz", "-i", RIGHT, "--from-lorenz", "-o", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
