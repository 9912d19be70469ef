"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from sagini import build_dataset, cli, lorenz_curve, lorenz_from_points, report
from sagini import io as sagini_io
from sagini.cli import main
from sagini.errors import ParseError, SaginiError
from sagini.generators import ExperimentConfig, sensitivity_sweep
from sagini.io import (
    build_document,
    document_to_csv,
    document_to_json,
    json_pieces,
    sweep_to_csv,
    sweep_to_json,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"
POINTS_7 = [(i / 7, q) for i, q in enumerate([0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0], 1)]
SYMMETRIC = str(DATA / "symmetric.csv")
RIGHT = str(DATA / "right_lorenz.csv")
LEFT = str(DATA / "left_lorenz.csv")


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


def refuse_constant(name):
    """A ``json.loads`` ``parse_constant`` that makes it read strict JSON."""
    raise ValueError(f"{name} is not JSON")


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

    @pytest.mark.parametrize(
        "text", ["1e300\n-1e300\n1e-10\n", "1e308\n-1e308\n5e-324\n"], ids=["subnormal", "zero"]
    )
    def test_total_beyond_dynamic_range_exit_3(self, runner, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["compute"], input=text)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: NonFiniteValueError: the values span more ")

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

    @pytest.mark.parametrize(
        "text, options, curve",
        [
            (
                "5\n0\n1.5\n7\n2\n11\n3\n",
                [],
                lorenz_curve(build_dataset([5, 0, 1.5, 7, 2, 11, 3])),
            ),
            (
                "0,0\n" + "".join(f"{p!r},{q!r}\n" for p, q in POINTS_7),
                ["--from-lorenz"],
                lorenz_from_points(POINTS_7),
            ),
        ],
        ids=["values", "points from the origin"],
    )
    def test_csv_rows_are_i_over_n(self, runner, text, options, curve):
        result = run(runner, "compute", *options, "-f", "csv", input=text)
        assert result.exit_code == 0
        n = curve.n
        rows = [f"{i},{i / n!r},{q!r}" for i, q in enumerate(curve.q.tolist(), 1)]
        assert result.stdout.endswith("\ni,p,q\n" + "\n".join(rows) + "\n")
        assert [float(row.split(",")[1]) for row in rows] == curve.p.tolist()

    @pytest.mark.parametrize(
        "path, options",
        [(str(DATA / "labeled.csv"), ["--header", "-c", "income"]),
         (LEFT, ["--from-lorenz"])],
        ids=["values", "points"],
    )
    def test_json_q_rebuilds_the_indices_from_lorenz(self, runner, tmp_path, path, options):
        doc = json.loads(run(runner, "compute", "-i", path, *options, "-f", "json").stdout)
        n = doc["input"]["n"]
        assert len(doc["lorenz"]["q"]) == n and "p" not in doc["lorenz"]
        points = tmp_path / "points.csv"
        points.write_text(
            "".join(f"{i / n!r},{q!r}\n" for i, q in enumerate(doc["lorenz"]["q"], 1))
        )
        result = run(runner, "compute", "-i", str(points), "--from-lorenz")
        again = json.loads(result.stdout)
        for key in ("gini", "g_right", "g_left", "sag"):
            assert again["indices"][key] == pytest.approx(
                doc["indices"][key], rel=1e-12, abs=1e-12
            )
        assert again["lorenz"]["q"] == doc["lorenz"]["q"]

    @pytest.mark.parametrize(
        "out_format, writer", [("json", document_to_json), ("csv", document_to_csv)]
    )
    def test_stdout_is_the_public_document_in_blocks(
        self, runner, monkeypatch, out_format, writer
    ):
        # The losses make the first shares negative, and the small gains
        # after them bring shares below 1e-4, where repr turns to exponent
        # notation; the CLI writes q from the curve's array, three to a block.
        monkeypatch.setattr(sagini_io, "_WRITE_BLOCK", 3)
        values = [-40.0, 3.5, -2.5, 0.0, 1e-3, -0.0, 12.5, 1e6, 27.0, 0.75, 2.5e5, 1e4, -1e-3]
        result = run(
            runner, "compute", "-f", out_format, "--no-provenance",
            input="".join(f"{v!r}\n" for v in values),
        )
        assert result.exit_code == 0
        data = build_dataset(values)
        doc = build_document(report(data), lorenz_curve(data), data=data, digest=None)
        q = doc["lorenz"]["q"]
        assert q.min() < 0 and ((0 < q) & (q < 1e-4)).any()
        assert "e-05" in result.stdout
        assert result.stdout == writer(doc)

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

    def test_failed_stdout_write_exit_2(self, monkeypatch, capsys):
        # A pipe whose reader is gone: a real buffered stdout whose failed
        # flush keeps the unwritten bytes for the interpreter's last flush.
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            with pytest.raises(SystemExit) as stopped:
                main(["compute", "-i", SYMMETRIC], standalone_mode=False)
            stdout.flush()  # as the interpreter does at exit
        assert stopped.value.code == 2
        assert capsys.readouterr().err == (
            "error: cannot write stdout: [Errno 32] Broken pipe\n"
        )

    @pytest.mark.parametrize("target", ["full device", "closed pipe"])
    def test_failed_stdout_exit_2_without_traceback(self, target):
        if target == "full device":
            if not Path("/dev/full").exists():
                pytest.skip("needs /dev/full")
            stdout = os.open("/dev/full", os.O_WRONLY)
            reason = "[Errno 28] No space left on device"
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
            reason = "[Errno 32] Broken pipe"
        # Buffered stdout, so the small report waits for the final flush.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "sagini.cli", "compute", "-i", SYMMETRIC],
                stdout=stdout,
                stderr=subprocess.PIPE,
                text=True,
                env={**env, "PYTHONPATH": str(SRC)},
            )
        finally:
            os.close(stdout)
        assert done.returncode == 2
        assert done.stderr == f"error: cannot write stdout: {reason}\n"

    def test_stdout_closed_after_the_first_piece_exit_2(self, tmp_path):
        # A report of many pieces, several times a pipe's buffer: the reader
        # takes the first piece and leaves, so a later piece fails to write.
        values = [i % 97 + 1.25 for i in range(50_000)]
        path = tmp_path / "many.csv"
        path.write_text("".join(f"{v}\n" for v in values))
        data = build_dataset(values)
        doc = build_document(report(data), lorenz_curve(data), data=data, digest=None)
        first = next(json_pieces(doc))
        assert first.count(",") > sagini_io._WRITE_BLOCK
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with subprocess.Popen(
            [sys.executable, "-m", "sagini.cli", "compute", "-i", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**env, "PYTHONPATH": str(SRC)},
        ) as child:
            assert child.stdout.read(len(first)) == first.encode()
            child.stdout.close()
            stderr = child.stderr.read().decode()
            assert child.wait(timeout=60) == 2
        assert stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.fixture
def sha256_calls(monkeypatch):
    """Count the reader's sha256 objects: each one hashes a whole input."""
    calls = []
    sha256 = hashlib.sha256

    def counting(*args, **kwargs):
        calls.append(args)
        return sha256(*args, **kwargs)

    monkeypatch.setattr(sagini_io.hashlib, "sha256", counting)
    return calls


class TestInputDigest:
    """The input is hashed only for the provenance block that writes it."""

    @pytest.mark.parametrize(
        "args",
        [
            ["lorenz", "-i", SYMMETRIC],
            ["lorenz", "-i", SYMMETRIC, "--style", "ascii"],
            ["lorenz", "-i", RIGHT, "-i", LEFT, "--from-lorenz"],
            ["lorenz", "-i", RIGHT, "--from-lorenz", "--style", "ascii"],
            ["compute", "-i", SYMMETRIC, "--no-provenance"],
            ["compute", "-i", RIGHT, "--from-lorenz", "--no-provenance", "-f", "csv"],
            # CSV and text reports write no provenance block.
            ["compute", "-i", SYMMETRIC, "-f", "csv"],
            ["compute", "-i", RIGHT, "--from-lorenz", "-f", "text"],
        ],
        ids=" ".join,
    )
    def test_no_hash_without_a_digest(self, runner, sha256_calls, args):
        assert run(runner, *args).exit_code == 0
        assert sha256_calls == []

    @pytest.mark.parametrize("from_lorenz", [False, True])
    def test_provenance_digest_of_a_file(self, runner, sha256_calls, from_lorenz):
        path = RIGHT if from_lorenz else SYMMETRIC
        flags = ["--from-lorenz"] if from_lorenz else []
        result = run(runner, "compute", "-i", path, *flags)
        assert result.exit_code == 0
        assert len(sha256_calls) == 1
        raw = Path(path).read_bytes()
        digest = json.loads(result.stdout)["provenance"]["input_digest"]
        assert digest == "sha256:" + hashlib.sha256(raw).hexdigest()

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("block", [3, sagini_io._READ_BLOCK])
    def test_provenance_digest_of_stdin(self, runner, monkeypatch, sha256_calls, bom, block):
        # With 3-byte blocks the bytes are hashed across many read blocks.
        monkeypatch.setattr(sagini_io, "_READ_BLOCK", block)
        raw = bom + b"id,income\r\n" + b"".join(b"%d,%d.5\n" % (i, i) for i in range(40))
        result = run(runner, "compute", "--header", "-c", "income", input=raw)
        assert result.exit_code == 0
        assert len(sha256_calls) == 1
        digest = json.loads(result.stdout)["provenance"]["input_digest"]
        assert digest == "sha256:" + hashlib.sha256(raw).hexdigest()


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

    def test_shares_of_huge_values_are_finite(self, runner, tmp_path):
        # The running sums of the sorted values overflow float64, their
        # shares of the total 1e300 do not: JSON (parsed strictly), CSV
        # and the ASCII plot all get the finite shares.
        values = [-1e308, -1e308, 1e300, 1e308, 1e308]
        path = tmp_path / "huge.csv"
        path.write_text("".join(f"{v!r}\n" for v in values))
        result = run(runner, "compute", "-i", str(path), "--no-provenance")
        assert result.exit_code == 0
        doc = json.loads(result.stdout, parse_constant=refuse_constant)
        assert doc["lorenz"]["q"] == lorenz_curve(build_dataset(values)).q.tolist()
        assert doc["lorenz"]["q"][:2] == [-1e8, -2e8]
        table = run(runner, "compute", "-i", str(path), "-f", "csv")
        assert table.exit_code == 0 and "inf" not in table.stdout
        assert run(runner, "lorenz", "-i", str(path), "--style", "ascii").exit_code == 0

    def test_indices_beyond_float64_exit_3(self, runner):
        # A valid total of 4 beside values of 1e308: the exact gini is above
        # the largest float, and no Infinity or NaN is written.
        result = runner.invoke(main, ["compute"], input="-1e308\n" * 50 + "1e308\n" * 50 + "4\n")
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: NonFiniteValueError: ")

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
        # Only a quoted cell is read by the csv module, which limits its size;
        # an unquoted one is read as numpy's reader reads it.
        cell = "1." + "0" * 140_000
        result = run(
            runner, "compute", "-i", "-", "-c", "2", "--no-provenance", input=f"a,1\nb,2\nc,{cell}\n"
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout)["input"] == {"n": 3, "mean": 4 / 3, "min": 1.0, "max": 2.0, "total": 4.0}
        result = run(
            runner, "compute", "-i", "-", "-c", "2", input=f'a,1\nb,2\nc,"{cell}"\n'
        )
        assert result.exit_code == 2
        assert "ParseError: line 3: field larger than field limit" in result.stderr

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_vertical_tab_inside_a_whitespace_row(self, runner, tmp_path, source):
        # "\v" ends no line: it separates the row's cells, as a space does.
        text = "1\v10 100\n2 20\v200\n3 30 300\n"
        path = tmp_path / "rows.txt"
        path.write_text(text)
        where = ["-i", str(path)] if source == "file" else ["-i", "-"]
        args = ["compute", *where, "--input-format", "whitespace", "-c", "2", "--no-provenance"]
        result = run(runner, *args, input=text if source == "stdin" else None)
        assert result.exit_code == 0
        assert json.loads(result.stdout)["input"] == {"n": 3, "mean": 20.0, "min": 10.0, "max": 30.0, "total": 60.0}

    def test_header_only_points_exit_3_with_one_error_line(self, runner, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("p,q\n")
        result = runner.invoke(
            main, ["compute", "-i", str(path), "--from-lorenz", "--header"]
        )
        assert result.exit_code == 3
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("text", ["", "\n\n", "id,income\n"])
    @pytest.mark.parametrize("from_lorenz", [[], ["--from-lorenz"]])
    @pytest.mark.parametrize("command", ["compute", "lorenz"])
    def test_no_data_rows_with_header_exit_3(self, runner, command, from_lorenz, text):
        # Input without data rows is an empty table, header or not.
        result = runner.invoke(main, [command, "-i", "-", "--header", *from_lorenz], input=text)
        assert result.exit_code == 3
        assert result.stderr.startswith("error: EmptyOrSingletonError: ")
        assert len(result.stderr.splitlines()) == 1

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

    @pytest.mark.parametrize("spec", ["3", "nosuch"])
    @pytest.mark.parametrize("command", ["compute", "lorenz"])
    def test_column_with_from_lorenz_exit_2_before_reading(self, runner, tmp_path, command, spec):
        # The path does not exist: the option is refused before any read.
        missing = str(tmp_path / "missing.csv")
        for path in (RIGHT, missing):
            result = runner.invoke(main, [command, "-i", path, "--from-lorenz", "-c", spec])
            assert result.exit_code == 2
            assert result.stderr == (
                f"error: ParseError: --column {spec!r} does not apply to --from-lorenz "
                "input, which is read as (p, q) from the first two columns\n"
            )


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

    @pytest.mark.parametrize(
        "dist, options, message",
        [
            ("lognormal", ["--sigma", "-1"], "lognormal sigma must be >= 0, got -1.0"),
            ("lognormal", ["--sigma", "nan"], "sigma must be finite, got nan"),
            ("uniform", ["--high", "inf"], "high must be finite, got inf"),
            ("symmetric_triangular", ["--low", "-inf"], "low must be finite, got -inf"),
            ("pareto", ["--alpha", "inf"], "alpha must be finite, got inf"),
            (
                "uniform",
                ["--low", "-1e308", "--high", "1e308"],
                "high - low must be finite, got low=-1e+308 high=1e+308",
            ),
            (
                "uniform",
                ["--low", "1e308", "--high", "1e308"],
                "every sum of 10 values in [low, high] overflows float64, "
                "got low=1e+308 high=1e+308",
            ),
        ],
        ids=[
            "negative sigma",
            "nan sigma",
            "inf high",
            "-inf low",
            "inf alpha",
            "inf width",
            "inf same-sign sum",
        ],
    )
    def test_bad_parameter_exit_4_before_drawing(
        self, runner, monkeypatch, dist, options, message
    ):
        def draw(*_):
            raise AssertionError("drew values for an invalid config")

        monkeypatch.setattr(cli, "sensitivity_sweep", draw)
        result = runner.invoke(
            main,
            ["simulate", "--dist", dist, "--n", "10", "--reps", "1", "--seed", "1", *options],
        )
        assert result.exit_code == 4
        assert result.stderr == f"error: BadParamsError: {message}\n"

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

    @pytest.mark.parametrize("block", [None, 2], ids=["one block", "two rows a block"])
    @pytest.mark.parametrize(
        "dist, params",
        [
            ("lognormal", {"sigma": 2.5}),
            ("pareto", {"alpha": 1.1}),
            ("uniform", {"low": -0.5, "high": 2.0}),
            ("symmetric_triangular", {}),
            ("one_holder", {}),
        ],
    )
    @pytest.mark.parametrize("out_format", ["json", "csv"])
    def test_stdout_is_the_public_sweep_document(
        self, runner, monkeypatch, out_format, dist, params, block
    ):
        if block:
            monkeypatch.setattr(sagini_io, "_WRITE_BLOCK", block)
        options = [arg for key, value in params.items() for arg in (f"--{key}", repr(value))]
        result = run(
            runner, "simulate", "--dist", dist, "--n", "7", "--reps", "9", "--seed", "3",
            *options, "-f", out_format,
        )
        assert result.exit_code == 0
        writer = sweep_to_json if out_format == "json" else sweep_to_csv
        assert result.stdout == writer(sensitivity_sweep(ExperimentConfig(dist, 7, 9, 3, params)))

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
