"""Unit tests for input parsing and report-document serialization."""

import csv
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sagini import (
    ExperimentConfig,
    build_dataset,
    lorenz_curve,
    lorenz_from_points,
    metrics_from_lorenz,
    report,
    sensitivity_sweep,
)
from sagini import io as sagini_io
from sagini.errors import ParseError
from sagini.io import (
    InputSpec,
    _read_stream,
    build_document,
    csv_pieces,
    document_to_csv,
    document_to_json,
    document_to_text,
    json_pieces,
    read_lorenz_points,
    read_values,
    sweep_csv_pieces,
    sweep_json_pieces,
    sweep_to_csv,
    sweep_to_json,
)
from sagini.metrics import LorenzCurve

DATA = Path(__file__).parent / "data"


def write(tmp_path, text, name="in.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestReadValues:
    def test_single_column(self):
        values, digest = read_values(InputSpec(path=str(DATA / "symmetric.csv")))
        assert values.tolist() == [2, 3, 4, 6, 8, 12, 14, 16, 17, 18]
        assert len(digest) == 64

    def test_header_and_named_column(self):
        spec = InputSpec(path=str(DATA / "labeled.csv"), column="income", header=True)
        values, _ = read_values(spec)
        assert values.tolist() == [2, 3, 4, 6, 8, 12, 14, 16, 17, 18]

    def test_one_based_index_column(self, tmp_path):
        path = write(tmp_path, "9,1\n8,2\n7,3\n")
        assert read_values(InputSpec(path=path, column=2))[0].tolist() == [1, 2, 3]
        assert read_values(InputSpec(path=path, column="2"))[0].tolist() == [1, 2, 3]

    def test_first_numeric_column_detected(self, tmp_path):
        path = write(tmp_path, "alpha,4.5,x\nbeta,2.5,y\n")
        assert read_values(InputSpec(path=path))[0].tolist() == [4.5, 2.5]

    def test_whitespace_format(self, tmp_path):
        path = write(tmp_path, "1  2\t3\n4 5 6\n", "in.txt")
        spec = InputSpec(path=path, format="whitespace", column=2)
        assert read_values(spec)[0].tolist() == [2, 5]

    def test_tsv_format(self, tmp_path):
        path = write(tmp_path, "1\t2\n3\t4\n", "in.tsv")
        assert read_values(InputSpec(path=path, format="tsv", column=2))[0].tolist() == [2, 4]

    def test_non_numeric_cell_reports_line_and_column(self, tmp_path):
        path = write(tmp_path, "1\n2\npotato\n4\n")
        with pytest.raises(ParseError, match=r"line 3, column 1"):
            read_values(InputSpec(path=path))

    def test_missing_value_is_hard_error(self, tmp_path):
        path = write(tmp_path, "1,a\n,b\n3,c\n")
        with pytest.raises(ParseError, match=r"line 2.*missing"):
            read_values(InputSpec(path=path, column=1))

    def test_comma_decimal_rejected_with_hint(self, tmp_path):
        path = write(tmp_path, '"1,5"\n"2,0"\n')
        with pytest.raises(ParseError, match="decimal point"):
            read_values(InputSpec(path=path))

    @pytest.mark.parametrize("cell", ["x,y", "1,5,0", "1,,5"])
    def test_comma_hint_only_for_a_comma_decimal(self, tmp_path, cell):
        path = write(tmp_path, f'1\n"{cell}"\n')
        message = rf"^line 2, column 1: {cell!r} is not a number$"
        with pytest.raises(ParseError, match=message):
            read_values(InputSpec(path=path, column=1))

    def test_short_row_rejected(self, tmp_path):
        path = write(tmp_path, "1,2\n3\n")
        with pytest.raises(ParseError, match="line 2"):
            read_values(InputSpec(path=path, column=2))

    @pytest.mark.parametrize(
        "text, header",
        [("", False), ("", True), ("\n \n", False), ("\n \n", True), ("id,income\n", True)],
    )
    def test_no_data_rows_is_an_empty_table(self, tmp_path, text, header):
        spec = InputSpec(path=write(tmp_path, text), header=header)
        values, _ = read_values(spec)
        assert values.dtype == float and values.shape == (0,)
        points, _ = read_lorenz_points(spec)
        assert points.dtype == float and points.shape == (0, 2)

    def test_named_column_needs_header(self, tmp_path):
        path = write(tmp_path, "1\n2\n")
        with pytest.raises(ParseError, match="header"):
            read_values(InputSpec(path=path, column="income"))

    @pytest.mark.parametrize("spec", ["\u00b2", "\u0661", "\uff11", "--1", "-"])
    def test_column_spec_other_than_ascii_digits_is_a_name(self, tmp_path, spec):
        path = write(tmp_path, f"a,{spec}\n1,5\n2,7\n")
        assert read_values(InputSpec(path=path, column=spec, header=True))[0].tolist() == [5, 7]
        with pytest.raises(ParseError, match="selected by name"):
            read_values(InputSpec(path=write(tmp_path, "1\n2\n", "b.csv"), column=spec))

    @pytest.mark.parametrize(
        "column", [np.int64(3), np.uint8(3), 3.0, b"3", True], ids=["int64", "uint8", "float", "bytes", "bool"]
    )
    def test_column_of_another_type(self, tmp_path, column):
        # Any other type would be taken for no column: the first numeric one.
        path = write(tmp_path, "1,10,100\n2,20,200\n")
        if isinstance(column, np.integer):
            spec = InputSpec(path=path, column=column)
            assert type(spec.column) is int and spec.column == 3
            assert read_values(spec)[0].tolist() == [100.0, 200.0]
        else:
            with pytest.raises(TypeError, match=f"not {type(column).__name__}$"):
                InputSpec(path=path, column=column)

    def test_unknown_header_name(self):
        spec = InputSpec(path=str(DATA / "labeled.csv"), column="wealth", header=True)
        with pytest.raises(ParseError, match="wealth"):
            read_values(spec)

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "1\n\n2\n\n")
        assert read_values(InputSpec(path=path))[0].tolist() == [1, 2]

    def test_empty_file_yields_no_values(self, tmp_path):
        path = write(tmp_path, "")
        values, _ = read_values(InputSpec(path=path))
        assert values.dtype == np.float64 and values.shape == (0,)

    @pytest.mark.parametrize(
        "text, line, cell",
        [
            ("1_000\n2\n", 1, "1_000"),
            ("1\n2_0\n", 2, "2_0"),
            ("1\n\u0663\n", 2, "\u0663"),
            ("1\n\uff15\n", 2, "\uff15"),
            ("1\n1e1_0\n", 2, "1e1_0"),
        ],
    )
    def test_underscore_and_non_ascii_are_not_numbers(self, tmp_path, text, line, cell):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        message = rf"^line {line}, column 1: {cell!r} is not a number$"
        with pytest.raises(ParseError, match=message):
            read_values(InputSpec(path=str(path), column=1))

    def test_unicode_padding_is_stripped(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes("\u30001.5\u3000\n\xa02\n".encode())
        assert read_values(InputSpec(path=str(path)))[0].tolist() == [1.5, 2.0]

    def test_auto_column_skips_underscore_cells(self, tmp_path):
        path = write(tmp_path, "1_0,5\n2_0,6\n")
        assert read_values(InputSpec(path=path))[0].tolist() == [5.0, 6.0]

    def test_returns_float64_array_on_both_paths(self, tmp_path):
        table = read_values(InputSpec(path=write(tmp_path, "1\n2\n", "a.csv")))[0]
        lines = read_values(InputSpec(path=write(tmp_path, '"1"\n2\n', "b.csv")))[0]
        for values in (table, lines):
            assert isinstance(values, np.ndarray)
            assert values.dtype == np.float64 and values.shape == (2,)
            assert values.tolist() == [1.0, 2.0]

    def test_digest_tracks_bytes(self, tmp_path):
        a = read_values(InputSpec(path=write(tmp_path, "1\n2\n", "a.csv")))[1]
        b = read_values(InputSpec(path=write(tmp_path, "1\n2\n", "b.csv")))[1]
        c = read_values(InputSpec(path=write(tmp_path, "1\n3\n", "c.csv")))[1]
        assert a == b != c


@pytest.mark.parametrize("block", [3, sagini_io._READ_BLOCK])
@pytest.mark.parametrize("quoted", [False, True], ids=["loadtxt", "line parser"])
@pytest.mark.parametrize("points", [False, True], ids=["values", "points"])
def test_no_digest_reads_the_same_table(tmp_path, monkeypatch, block, quoted, points):
    monkeypatch.setattr(sagini_io, "_READ_BLOCK", block)
    first = '"0.1"' if quoted else "0.1"
    rows = [f"{first},0.05"] + [f"{i / 10!r},{i * i / 100!r}" for i in range(2, 11)]
    raw = ("\ufeffp,q\r\n" + "\n".join(rows) + "\n").encode()
    path = tmp_path / "in.csv"
    path.write_bytes(raw)
    reader = read_lorenz_points if points else read_values
    spec = InputSpec(path=str(path), header=True, column=None if points else 2)
    table, digest = reader(spec)
    plain, none = reader(replace(spec, digest=False))
    assert digest == hashlib.sha256(raw).hexdigest() and none is None
    assert plain.dtype == table.dtype and plain.shape == table.shape
    assert plain.tobytes() == table.tobytes()


class TestReadLorenzPoints:
    def test_two_columns(self):
        points, _ = read_lorenz_points(InputSpec(path=str(DATA / "right_lorenz.csv")))
        assert points.dtype == np.float64 and points.shape == (10, 2)
        assert points[0].tolist() == [0.1, 0.06]
        assert points[-1].tolist() == [1.0, 1.0]

    def test_single_column_rejected(self, tmp_path):
        path = write(tmp_path, "0.5\n1.0\n")
        with pytest.raises(ParseError, match="two columns"):
            read_lorenz_points(InputSpec(path=path))

    def test_returns_n_by_2_float64_array_on_both_paths(self, tmp_path):
        table = read_lorenz_points(InputSpec(path=write(tmp_path, "0.5,0.2\n1,1\n", "a.csv")))[0]
        lines = read_lorenz_points(InputSpec(path=write(tmp_path, '"0.5",0.2\n1,1\n', "b.csv")))[0]
        for points in (table, lines):
            assert isinstance(points, np.ndarray)
            assert points.dtype == np.float64 and points.shape == (2, 2)
            assert points.tolist() == [[0.5, 0.2], [1.0, 1.0]]

    def test_empty_input_is_zero_by_2(self, tmp_path):
        points, _ = read_lorenz_points(InputSpec(path=write(tmp_path, "")))
        assert points.dtype == np.float64 and points.shape == (0, 2)

    def test_header_skipped(self, tmp_path):
        path = write(tmp_path, "p,q\n0.5,0.2\n1.0,1.0\n")
        points, _ = read_lorenz_points(InputSpec(path=path, header=True))
        assert points.tolist() == [[0.5, 0.2], [1.0, 1.0]]

    @pytest.mark.parametrize("column", [1, 3, "nosuch"])
    def test_column_refused_before_reading(self, tmp_path, column):
        # Points are always the first two columns; the path does not exist.
        spec = InputSpec(path=str(tmp_path / "missing.csv"), column=column)
        with pytest.raises(ParseError) as err:
            read_lorenz_points(spec)
        assert str(err.value) == (
            f"--column {column!r} does not apply to --from-lorenz input, "
            "which is read as (p, q) from the first two columns"
        )


def document_for(values, with_provenance=True):
    data = build_dataset(values)
    return build_document(
        report(data),
        lorenz_curve(data),
        data=data,
        digest="ab" * 32,
        with_provenance=with_provenance,
    )


class TestDocument:
    def test_fields(self):
        doc = document_for([2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 14.0, 16.0, 17.0, 18.0])
        assert doc["schema_version"] == "2"
        assert doc["input"]["n"] == 10
        assert doc["input"]["total"] == 100.0
        assert doc["indices"]["skew_direction"] == "symmetric"
        assert list(doc["lorenz"]) == ["q"]
        assert len(doc["lorenz"]["q"]) == 10
        assert doc["lorenz"]["q"][-1] == 1.0
        assert doc["provenance"]["input_digest"].startswith("sha256:")

    @pytest.mark.parametrize(
        "values, min_max",
        [
            ([0.0, -0.0, 1.0], '"min": 0.0,\n    "max": 1.0,'),
            ([-0.0, 0.0, 1.0], '"min": -0.0,\n    "max": 1.0,'),
        ],
        ids=["zero first", "negative zero first"],
    )
    def test_min_max_keep_the_first_extreme(self, values, min_max):
        doc = document_for(values, with_provenance=False)
        assert min_max in document_to_json(doc)
        assert type(doc["input"]["min"]) is float and type(doc["input"]["max"]) is float

    def test_stats_come_from_the_dataset(self):
        data = build_dataset([3.0, -1.0, 4.0, 1.5])
        doc = build_document(report(data), lorenz_curve(data), data=data, digest=None)
        assert doc["input"] == {"n": 4, "mean": data.mean, "min": -1.0, "max": 4.0,
                                "total": data.total}
        assert list(doc["input"]) == ["n", "mean", "min", "max", "total"]

    def test_provenance_suppressed(self):
        doc = document_for([1.0, 2.0], with_provenance=False)
        assert "provenance" not in doc

    def test_json_round_trip_recovers_indices(self):
        doc = document_for([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        parsed = json.loads(document_to_json(doc))
        n = parsed["input"]["n"]
        points = [(i / n, q) for i, q in enumerate(parsed["lorenz"]["q"], start=1)]
        recomputed = metrics_from_lorenz(points)
        for key in ("gini", "g_right", "g_left", "sag"):
            assert getattr(recomputed, key) == pytest.approx(
                parsed["indices"][key], rel=1e-12, abs=1e-12
            )

    def test_json_floats_round_trip_exactly(self):
        doc = document_for([1.0, 7.0, 3.0])
        parsed = json.loads(document_to_json(doc))
        assert parsed["indices"]["gini"] == doc["indices"]["gini"]
        assert parsed["lorenz"]["q"] == doc["lorenz"]["q"]

    def test_csv_layout(self):
        text = document_to_csv(document_for([1.0, 2.0, 3.0]))
        lines = text.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("gini,") for line in lines)
        assert "i,p,q" in lines
        assert lines[-1].startswith("3,1.0,")

    def test_text_mode_six_decimals(self):
        text = document_to_text(document_for([1.0, 2.0, 3.0]))
        assert "gini:             0.222222" in text
        assert "JSON output is authoritative" in text

    def test_text_mode_handles_missing_stats(self):
        points = [(0.5, 0.25), (1.0, 1.0)]
        doc = build_document(
            metrics_from_lorenz(points),
            lorenz_curve(build_dataset([1.0, 3.0])),
            data=None,
            digest=None,
        )
        text = document_to_text(doc)
        assert "mean:             n/a" in text


class TestDecoding:
    def test_bom_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfid,income\n1,10\n2,20\n")
        spec = InputSpec(path=str(path), column="income", header=True)
        assert read_values(spec)[0].tolist() == [10, 20]

    def test_bom_before_first_numeric_row(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1\n2\n")
        assert read_values(InputSpec(path=str(path)))[0].tolist() == [1, 2]
        path.write_bytes(b"\xef\xbb\xbf0.5,0.25\n1,1\n")
        assert read_lorenz_points(InputSpec(path=str(path)))[0].tolist() == [[0.5, 0.25], [1, 1]]

    def test_digest_covers_the_bom(self, tmp_path):
        plain, marked = tmp_path / "a.csv", tmp_path / "b.csv"
        plain.write_bytes(b"1\n2\n")
        marked.write_bytes(b"\xef\xbb\xbf1\n2\n")
        assert read_values(InputSpec(path=str(plain)))[1] != read_values(
            InputSpec(path=str(marked))
        )[1]

    @pytest.mark.parametrize(
        "raw, line",
        [
            (b"\xff1\n2\n", 1),
            (b"1\n2\n\xff\n", 3),
            (b"1\r\n2\r\n3\xe9\r\n", 3),
            (b"1\r2\r\xc3", 3),
            (b"\xef\xbb\xbf1\n\xed\xa0\x80\n", 2),
        ],
    )
    @pytest.mark.parametrize("reader", [read_values, read_lorenz_points])
    def test_invalid_utf8_names_line(self, tmp_path, reader, raw, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        message = rf"^line {line}: byte 0x[0-9a-f]{{2}} is not valid UTF-8$"
        with pytest.raises(ParseError, match=message):
            reader(InputSpec(path=str(path)))


# (text, InputSpec keywords): every case is read by both readers and must
# give what the line-by-line parser gives.
READER_CORPUS = {
    "plain": ("1\n2.5\n-3\n", {}),
    "quoted": ('"1",2\n"3",4\n', {"column": 1}),
    "quoted comma decimal": ('"1,5"\n"2,0"\n', {}),
    "crlf": ("1,2\r\n3,4\r\n", {"column": 2}),
    "crlf no final break": ("1,2\r\n3,4", {"column": 2}),
    "mixed lf crlf": ("1,2\n3,4\r\n5,6\n", {"column": 2}),
    "cr only": ("1,2\r3,4\r", {"column": 2}),
    # A form feed and U+2028 are characters of their line, in its second cell.
    "form feed break": ("1,2\x0c3,4\n", {"column": 3}),
    "line separator": ("1,2\u20283,4\n", {"column": 3}),
    "blank line": ("1,2\n\n3,4\n", {"column": 2}),
    "trailing blank lines": ("1\n2\n\n\n", {}),
    "leading blank line": ("\n1\n2\n", {}),
    "whitespace-only line": ("1\n   \n2\n", {}),
    "tab-only line tsv": ("1\t2\n \t \n3\t4\n", {"format": "tsv", "column": 2}),
    "blank line before header": ("\n5\n1\n2\n", {"header": True, "column": 1}),
    "blank line after header": ("x,y\n\n1,2\n", {"header": True}),
    "no final break": ("1,2\n3,4", {"column": 2}),
    "only breaks": ("\n\n", {}),
    "empty": ("", {}),
    "empty with header": ("", {"header": True}),
    "header only": ("id,income\n", {"header": True, "column": "income"}),
    "padded cells": (" 1 , 2 \n 3 ,4\t\n", {"column": 2}),
    "unicode padding": ("\u30001\u3000,\xa02\n3,4\n", {"column": 1}),
    "missing cell": ("1,a\n,b\n3,c\n", {"column": 1}),
    "missing last cell": ("1,2\n3,\n", {"column": 2}),
    "balanced ragged": ("1,2,3\n4,5\n6,7,8,9\n", {"column": 3}),
    "balanced ragged two": ("1,2\n3\n4,5,6\n", {"column": 1}),
    "long row then short": ("1,2,3\n4,5,6,7\n8,9\n", {"column": 2}),
    "short rows between full ones": ("1,2\n3\n4\n5,6\n", {"column": 1}),
    "ragged but wide enough": ("1,2,3\n4,5,6,7\n", {"column": 2}),
    "column past width": ("1,2\n3,4\n", {"column": 3}),
    "column zero": ("1,2\n3,4\n", {"column": 0}),
    "underscore": ("1_000\n2\n", {}),
    "underscore later": ("1\n2_0\n", {}),
    "underscore in exponent": ("1\n1e1_0\n", {"column": 1}),
    "arabic-indic digit": ("1\n\u0663\n", {}),
    "fullwidth digit": ("\uff11,2\n3,4\n", {"column": 1}),
    "first numeric column skips underscore": ("1_0,5\n2_0,6\n", {}),
    "non-ascii label": ("caf\xe9,10\nna\xefve,20\n", {"column": 2}),
    "points underscore": ("0.5,0.2_5\n1.0,1.0\n", {}),
    "points unicode padding": ("0.5,\u20030.25\n1.0,1.0\n", {}),
    "specials": ("nan\n-inf\n-0.0\n1e-05\n5e-324\n", {}),
    "not a number": ("1\npotato\n4\n", {}),
    "first numeric column": ("alpha,4.5,x\nbeta,2.5,y\n", {}),
    "no numeric column": ("a,b\nc,d\n", {}),
    "nul": ("1,2\x00\n3,4\n", {"column": 2}),
    "nul in an unused cell": ("1\x00,2\n3,4\n", {"column": 2}),
    "tsv": ("1\t2\n3\t4\n", {"format": "tsv", "column": 2}),
    "tsv with commas": ("1,5\t2\n3\t4\n", {"format": "tsv", "column": 1}),
    "whitespace": ("1  2\t3\n4 5 6\n", {"format": "whitespace", "column": 2}),
    "whitespace ragged": ("1 2\n3\n", {"format": "whitespace", "column": 2}),
    "whitespace unit separator": ("1\x1f2\n3\x1f4\n", {"format": "whitespace", "column": 2}),
    "whitespace quotes": ('"1" 2\n3 4\n', {"format": "whitespace", "column": 2}),
    "header named column": ("id,income\n1,10\n2,20\n", {"header": True, "column": "income"}),
    "header numeric index": ("id,income\n1,10\n2,20\n", {"header": True, "column": "2"}),
    "header unknown name": ("id,income\n1,10\n", {"header": True, "column": "wealth"}),
    "name without header": ("1\n2\n", {"column": "income"}),
    "points": ("0.5,0.25\n1.0,1.0\n", {}),
    "points header": ("p,q\n0.5,0.25\n1.0,1.0\n", {"header": True}),
    "points three columns": ("0.5,0.25,x\n1.0,1.0,y\n", {}),
    "points bad q": ("0.5,oops\n1.0,1.0\n", {}),
    "unknown format": ("1\n2\n", {"format": "json"}),
}


def outcome(read, *args):
    """A reader's result as comparable text, every float bit for bit.

    ``repr`` of the list, not of the array: numpy prints 8 digits.
    """
    try:
        result = read(*args)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", result.dtype.str, result.shape, repr(result.tolist())


def read_bytes(raw, spec, points):
    """What the reader makes of the input ``raw``."""
    return _read_stream(io.BytesIO(raw), spec, points)[0]


def line_parse(raw, spec, points):
    """The reference the reader must match: the whole input decoded and
    split at once, in one block, and every line parsed by the line parser,
    as numpy's reader is made to refuse it."""
    with mock.patch.object(sagini_io, "_READ_BLOCK", len(raw) + 1), mock.patch.object(
        sagini_io.np, "loadtxt", side_effect=ValueError
    ):
        return read_bytes(raw, spec, points)


def takes_table_path(raw, spec, points):
    """Whether numpy's reader gives the reader's table of ``raw``: it reads,
    and hands no block to the line parser."""
    with mock.patch.object(sagini_io, "_line_table", wraps=sagini_io._line_table) as spy:
        result = outcome(read_bytes, raw, spec, points)
    return result[0] == "ok" and not spy.called


class TestReaderDifferential:
    """The table reader agrees with the line-by-line parser it stands in for."""

    @pytest.mark.parametrize("text, kwargs", READER_CORPUS.values(), ids=READER_CORPUS.keys())
    def test_values(self, tmp_path, text, kwargs):
        # A file may take numpy's whole-file read, a stream never does.
        raw = text.encode("utf-8")
        path = tmp_path / "in.txt"
        path.write_bytes(raw)
        spec = InputSpec(path=str(path), **kwargs)
        expected = outcome(line_parse, raw, spec, False)
        assert outcome(lambda: read_values(spec)[0]) == expected
        assert outcome(read_bytes, raw, spec, False) == expected

    @pytest.mark.parametrize("text, kwargs", READER_CORPUS.values(), ids=READER_CORPUS.keys())
    def test_points(self, tmp_path, text, kwargs):
        # Points are always the first two columns and read_lorenz_points
        # refuses a column (test_column_refused_before_reading), so the
        # corpus runs here without one.
        kwargs = {key: value for key, value in kwargs.items() if key != "column"}
        raw = text.encode("utf-8")
        path = tmp_path / "in.txt"
        path.write_bytes(raw)
        spec = InputSpec(path=str(path), **kwargs)
        expected = outcome(line_parse, raw, spec, True)
        assert outcome(lambda: read_lorenz_points(spec)[0]) == expected
        assert outcome(read_bytes, raw, spec, True) == expected

    def test_stdin(self, monkeypatch):
        class Stdin:
            buffer = io.BytesIO(b"id,income\r\n1,10\r\n2,20\r\n")

        monkeypatch.setattr(sys, "stdin", Stdin)
        spec = InputSpec(path="-", header=True, column="income")
        assert read_values(spec)[0].tolist() == [10, 20]

    @pytest.mark.parametrize(
        "name",
        ["plain", "crlf", "mixed lf crlf", "no final break", "padded cells",
         "specials", "tsv", "whitespace", "header named column", "header only",
         "first numeric column", "non-ascii label", "unicode padding",
         "balanced ragged two", "long row then short",
         "short rows between full ones", "leading blank line",
         "blank line before header", "cr only", "form feed break",
         "line separator", "nul in an unused cell"],
    )
    def test_regular_values_take_the_table_path(self, name):
        text, kwargs = READER_CORPUS[name]
        assert takes_table_path(text.encode(), InputSpec(**kwargs), points=False)

    @pytest.mark.parametrize(
        "name",
        ["underscore", "underscore later", "underscore in exponent",
         "arabic-indic digit", "fullwidth digit"],
    )
    def test_outside_grammar_is_left_to_the_line_parser(self, name):
        text, kwargs = READER_CORPUS[name]
        assert not takes_table_path(text.encode(), InputSpec(**kwargs), points=False)

    @pytest.mark.parametrize("name", ["points underscore"])
    def test_points_outside_grammar_are_left_to_the_line_parser(self, name):
        text, kwargs = READER_CORPUS[name]
        assert not takes_table_path(text.encode(), InputSpec(**kwargs), points=True)

    @pytest.mark.parametrize(
        "name", ["points", "points header", "points three columns", "points unicode padding"]
    )
    def test_regular_points_take_the_table_path(self, name):
        text, kwargs = READER_CORPUS[name]
        assert takes_table_path(text.encode(), InputSpec(**kwargs), points=True)

    @pytest.mark.parametrize(
        "name",
        ["balanced ragged", "quoted", "nul", "whitespace ragged"],
    )
    def test_irregular_text_is_left_to_the_line_parser(self, name):
        text, kwargs = READER_CORPUS[name]
        assert not takes_table_path(text.encode(), InputSpec(**kwargs), points=False)

    @pytest.mark.parametrize(
        "head, brk", [(b"", b"\n"), (b"\xef\xbb\xbf\r\n \r\n", b"\r\n")], ids=["lf", "bom blank crlf"]
    )
    def test_quoted_header_leaves_clean_rows_to_the_table_path(self, tmp_path, head, brk):
        # Only the body's bytes are screened for quotes, not the header's.
        rows = b"".join(b"%d,north,%d.5%s" % (i, 3 * i, brk) for i in range(50))
        quoted = head + b'"id","region","income"' + brk + rows
        plain = head + b"id,region,income" + brk + rows
        path = tmp_path / "in.csv"
        path.write_bytes(quoted)
        spec = InputSpec(path=str(path), header=True, column="income")
        assert takes_table_path(quoted, spec, points=False)
        values, digest = read_values(spec)
        assert values.tolist() == read_bytes(plain, spec, False).tolist()
        assert values.tolist() == [3 * i + 0.5 for i in range(50)]
        assert digest == hashlib.sha256(quoted).hexdigest()

    def test_balanced_ragged_rows_still_fail(self, tmp_path):
        path = write(tmp_path, "1,2,3\n4,5\n6,7,8,9\n")
        message = r"^line 2: only 2 column\(s\), need column 3$"
        with pytest.raises(ParseError, match=message):
            read_values(InputSpec(path=path, column=3))

    def test_oversized_field_is_left_to_the_line_parser(self):
        # Only a quoted cell is read by the csv module, which limits its size.
        raw = b'1,"1.' + b"0" * csv.field_size_limit() + b'"\n2,3\n'
        for points in (False, True):
            assert not takes_table_path(raw, InputSpec(), points)
            assert outcome(read_bytes, raw, InputSpec(), points) == outcome(line_parse, raw, InputSpec(), points)
        with pytest.raises(ParseError, match="^line 1: field larger than field limit"):
            read_bytes(raw, InputSpec(), True)

    def test_oversized_unquoted_field_takes_the_table_path(self):
        raw = b"1,1." + b"0" * csv.field_size_limit() + b"\n2,3\n"
        for points in (False, True):
            assert takes_table_path(raw, InputSpec(), points)
            assert outcome(read_bytes, raw, InputSpec(), points) == outcome(line_parse, raw, InputSpec(), points)
        assert read_bytes(raw, InputSpec(), True).tolist() == [[1.0, 1.0], [2.0, 3.0]]


class TestReaderDifferentialSmallBlocks(TestReaderDifferential):
    """The same cases, read three bytes at a time: every table crosses blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(sagini_io, "_READ_BLOCK", 3)


class TestReadBlockEdges:
    """Tables whose block edges fall on the places the reader must get right."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(sagini_io, "_READ_BLOCK", 4)

    def read_both_ways(self, tmp_path, raw, fast=True, **kwargs):
        """The reader's outcome, which must be the line parser's on the
        whole input; ``fast`` is whether numpy's reader gives it."""
        path = tmp_path / "in.csv"
        path.write_bytes(raw)
        spec = InputSpec(path=str(path), **kwargs)
        assert takes_table_path(raw, spec, points=False) == fast
        result = outcome(lambda: read_values(spec)[0])
        assert result == outcome(line_parse, raw, spec, False)
        return result

    def test_header_straddling_a_block_edge(self, tmp_path):
        raw = b"\n\n\nid,region,income\n1,north,10\n2,south,20.5\n"
        result = self.read_both_ways(tmp_path, raw, header=True, column="income")
        assert result == ("ok", "<f8", (2,), "[10.0, 20.5]")

    def test_bom_before_a_header_straddling_a_block_edge(self, tmp_path):
        # The first block starts after the mark, so "id" names the column.
        raw = b"\xef\xbb\xbfid,region,income\n1,north,10\n2,south,20.5\n"
        result = self.read_both_ways(tmp_path, raw, header=True, column="id")
        assert result == ("ok", "<f8", (2,), "[1.0, 2.0]")

    def test_crlf_split_across_a_block_edge(self, tmp_path):
        # The first block would end between "\r" and "\n" of "1,2\r\n".
        raw = b"1,2\r\n3,4\r\n55,66\r\n"
        result = self.read_both_ways(tmp_path, raw, column=2)
        assert result == ("ok", "<f8", (3,), "[2.0, 4.0, 66.0]")

    def test_block_of_only_blank_lines(self, tmp_path):
        raw = b"1\n" + b"\n" * 12 + b"2\n"
        result = self.read_both_ways(tmp_path, raw)
        assert result == ("ok", "<f8", (2,), "[1.0, 2.0]")

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (b"1,2\n3,4\n5,6\r7,8\n", ("ok", "<f8", (4,), "[2.0, 4.0, 6.0, 8.0]")),
            (b"1,2\n3,4\n5,6\r7,x\n", ("error", "line 4, column 2: 'x' is not a number")),
        ],
    )
    def test_lone_cr_in_a_later_block(self, tmp_path, raw, expected):
        # The layout is read from the first block; the third is split at
        # its "\r" before numpy's reader sees its lines.
        fast = expected[0] == "ok"
        assert self.read_both_ways(tmp_path, raw, fast=fast, column=2) == expected

    def test_invalid_utf8_in_a_later_block(self, tmp_path):
        raw = b"".join(b"%d\n" % i for i in range(40)) + b"4\xff\n5\n"
        result = self.read_both_ways(tmp_path, raw, fast=False)
        assert result == ("error", "line 41: byte 0xff is not valid UTF-8")

    def test_bad_cell_in_a_later_block(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"".join(b"%d\n" % i for i in range(40)) + b"4x\n5\n")
        with pytest.raises(ParseError) as err:
            read_values(InputSpec(path=str(path)))
        assert str(err.value) == "line 41, column 1: '4x' is not a number"

    @pytest.mark.parametrize(
        "last, expected",
        [
            (b"9,9\n", ("ok", "<f8", (10,), "[5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 9.0]")),
            (b"9,9x\n", ("error", "line 11, column 2: '9x' is not a number")),
        ],
    )
    def test_quoted_first_block_then_later_blocks(self, tmp_path, last, expected):
        # Only the quoted blocks go to the line parser; the rows after them
        # are read by numpy's reader and keep their line numbers.
        raw = b'"id","income"\n"0",5\n' + b"".join(b"%d,%d\n" % (i, 10 * i) for i in range(1, 9)) + last
        result = self.read_both_ways(tmp_path, raw, fast=False, header=True, column="income")
        assert result == expected

    @pytest.mark.parametrize("brk", ["\r"], ids=["lone cr"])
    def test_odd_breaks_in_an_early_block_count_as_lines(self, tmp_path, brk):
        raw = f"1{brk}2{brk}3\n4\n5\n6\nx\n7\n".encode()
        result = self.read_both_ways(tmp_path, raw, fast=False)
        assert result == ("error", "line 7, column 1: 'x' is not a number")

    @pytest.mark.parametrize(
        "char", ["\x85", "\u2028", "\v", "\f", "\x1c"],
        ids=["nel", "line separator", "vertical tab", "form feed", "file separator"],
    )
    def test_other_breaks_are_characters_of_their_line(self, tmp_path, char):
        # str.splitlines breaks at these; numpy's reader and this one do
        # not, and whitespace input splits its cells at them.
        raw = f"1{char}2{char}3\n4\n5\n6\nx\n7\n".encode()
        result = self.read_both_ways(tmp_path, raw, fast=False, column=1)
        assert result == ("error", f"line 1, column 1: {f'1{char}2{char}3'!r} is not a number")
        result = self.read_both_ways(tmp_path, raw, fast=False, format="whitespace", column=1)
        assert result == ("error", "line 5, column 1: 'x' is not a number")

    def test_errors_come_in_block_order(self, tmp_path):
        # Line 1 is a block of its own, read before the block holding the
        # invalid byte; in one block, the byte is reported first.
        raw = b"0.0\n\xff"
        path = tmp_path / "in.csv"
        path.write_bytes(raw)
        spec = InputSpec(path=str(path), column=2)
        result = outcome(lambda: read_values(spec)[0])
        assert result == ("error", "line 1: only 1 column(s), need column 2")
        assert outcome(line_parse, raw, spec, False) == (
            "error", "line 2: byte 0xff is not valid UTF-8"
        )

    def test_digest_of_a_bom_table_read_in_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sagini_io, "_READ_BLOCK", 3)
        raw = b"\xef\xbb\xbfid,income\n1,10\n2,20\n3,30\n"
        path = tmp_path / "in.csv"
        path.write_bytes(raw)
        values, digest = read_values(InputSpec(path=str(path), header=True, column="income"))
        assert values.tolist() == [10.0, 20.0, 30.0]
        assert digest == hashlib.sha256(raw).hexdigest()

    def test_stdin_in_blocks_reads_as_the_file(self, tmp_path, monkeypatch):
        raw = b"id,income\r\n" + b"".join(b"%d,%d.5\r\n" % (i, i) for i in range(30))

        class Stdin:
            buffer = io.BytesIO(raw)

        monkeypatch.setattr(sys, "stdin", Stdin)
        path = tmp_path / "in.csv"
        path.write_bytes(raw)
        kwargs = {"header": True, "column": "income"}
        values, digest = read_values(InputSpec(path="-", **kwargs))
        from_file, file_digest = read_values(InputSpec(path=str(path), **kwargs))
        assert Stdin.buffer.tell() == len(raw) > 4 * sagini_io._READ_BLOCK
        assert values.tolist() == from_file.tolist() == [i + 0.5 for i in range(30)]
        assert digest == file_digest == hashlib.sha256(raw).hexdigest()


def read_outcome(spec, points):
    """The reader's outcome as :func:`outcome` gives it, with the digest."""
    try:
        table, digest = (read_lorenz_points if points else read_values)(spec)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", table.dtype.str, table.shape, repr(table.tolist()), digest


class TestFileRoutes:
    """A regular file is read whole by numpy from its path when nothing in
    it could read otherwise; every file reads as its bytes do from stdin."""

    def read(self, monkeypatch, path, points=False, **kwargs):
        """The outcome of reading ``path``, which must be stdin's on its
        bytes; the paths numpy's reader was given; and whether the block
        route and the line parser ran."""
        spec = InputSpec(path=str(path), **kwargs)
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, mock.patch.object(
            sagini_io, "_read_stream", wraps=sagini_io._read_stream
        ) as stream, mock.patch.object(sagini_io, "_line_table", wraps=sagini_io._line_table) as lines:
            result = read_outcome(spec, points)
        paths = [call.args[0] for call in loadtxt.call_args_list if isinstance(call.args[0], str)]
        monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(Path(path).read_bytes())))
        assert read_outcome(replace(spec, path="-"), points) == result
        return result, paths, stream.called, lines.called

    @pytest.mark.parametrize(
        "raw, points, kwargs",
        [
            (b"1\n2.5\n-3\n", False, {}),
            (b"1,2\r\n3,4\r\n", False, {"column": 2}),
            (b"1,2\r3,4\r", False, {"column": 2}),
            (b"".join(b"%d\r" % i for i in range(30_000)), False, {}),
            (b"\xef\xbb\xbf1\n\n2\n", False, {}),
            (b"\n\nid,income\n1,10\n\n2,20.5", False, {"header": True, "column": "income"}),
            (b'\xef\xbb\xbf"id","r\xc3\xa9gion"\r\n1,2\r\n3,4\r\n', False, {"header": True, "column": 2}),
            (b"1\t2\n3\t4\n", False, {"format": "tsv", "column": 2}),
            (b" 1  2\n\n3\t4 \n", False, {"format": "whitespace", "column": 2}),
            (b"p,q\n0.5,0.25\n1,1\n", True, {"header": True}),
            (b"0.5 0.25\r1 1\r", True, {"format": "whitespace"}),
            (b"1\x00,2\n3,4\n", False, {"column": 2}),
            (b"1,2\x0b3,4\n", False, {"column": 3}),
            (b"id,income\n1,10\x1c2,20\n", False, {"header": True, "column": "id"}),
            ("a\u2028b,income\n1,10\n".encode(), False, {"header": True}),
            ("\x85id,income\n1,10\n".encode(), False, {"header": True, "column": "income"}),
            ("1\n\u30002\n".encode(), False, {}),
        ],
        ids=["lf", "crlf", "lone cr", "lone cr past the field limit", "bom", "header after blank lines", "quoted header",
             "tsv", "whitespace", "points header", "points whitespace lone cr", "nul", "vertical tab",
             "file separator", "line separator in header", "next line in header", "non-ascii body"],
    )
    def test_clean_tables_are_read_whole_by_numpy(self, tmp_path, monkeypatch, raw, points, kwargs):
        path = tmp_path / "in.csv"
        path.write_bytes(raw)
        result, paths, stream, lines = self.read(monkeypatch, path, points, **kwargs)
        assert result[0] == "ok" and result[-1] == hashlib.sha256(raw).hexdigest()
        assert paths == [str(path)] and not stream and not lines

    @pytest.mark.parametrize(
        "raw, kwargs",
        [
            (b'1,"2"\n3,4\n', {"column": 2}),
            (b"id\x0c\nincome\n1\n", {"header": True}),
        ],
        ids=["quote", "form feed in header"],
    )
    def test_screened_files_take_the_block_route(self, tmp_path, monkeypatch, raw, kwargs):
        path = tmp_path / "in.csv"
        path.write_bytes(raw)
        result, paths, stream, lines = self.read(monkeypatch, path, **kwargs)
        assert paths == [] and stream

    @pytest.mark.parametrize(
        "raw, kwargs",
        [
            (b"1\n   \n2\n", {}),
            (b"1\n\t\n2\n", {"format": "tsv"}),
            (b"1,2\n3\n", {"column": 2}),
            (b"1\n2\nx\n", {}),
        ],
        ids=["whitespace-only line", "tab-only tsv line", "short row", "bad cell"],
    )
    def test_files_numpy_refuses_take_the_block_route(self, tmp_path, monkeypatch, raw, kwargs):
        # The block route then names the line, or reads what numpy refused.
        path = tmp_path / "in.csv"
        path.write_bytes(raw)
        result, paths, stream, lines = self.read(monkeypatch, path, **kwargs)
        assert paths == [str(path)] and stream and lines

    def test_bad_cell_in_a_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sagini_io, "_READ_BLOCK", 4)
        path = tmp_path / "in.csv"
        path.write_bytes(b"".join(b"%d\n" % i for i in range(40)) + b"4x\n5\n")
        result, paths, stream, lines = self.read(monkeypatch, path)
        assert result == ("error", "line 41, column 1: '4x' is not a number")
        assert paths == [str(path)] and stream and lines

    def test_no_block_past_the_first_data_row_is_split(self, tmp_path, monkeypatch):
        # The whole-file route splits the blocks up to the one holding the
        # first data row, and leaves the rest to numpy; stdin splits them all.
        monkeypatch.setattr(sagini_io, "_READ_BLOCK", 4)
        raw = b"\nid,income\n" + b"".join(b"%d,%d\n" % (i, i) for i in range(200))
        path = tmp_path / "in.csv"
        path.write_bytes(raw)
        ends = np.cumsum([len(block) for block in sagini_io._blocks(io.BytesIO(raw))])
        head = int(np.argmax(ends > raw.index(b"\n0,0\n") + 1))
        assert len(ends) > head + 100
        from_file = InputSpec(path=str(path), header=True, column="income")
        for spec, split in ((from_file, raw[: ends[head]]), (replace(from_file, path="-"), raw)):
            monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(raw)))
            with mock.patch.object(sagini_io, "_lines", wraps=sagini_io._lines) as lines:
                values, _ = read_values(spec)
            assert values.tolist() == list(range(200))
            assert "".join(call.args[0] for call in lines.call_args_list) == split.decode()

    def test_unknown_format_of_a_regular_file(self, tmp_path):
        path = write(tmp_path, "1\n2\n")
        with mock.patch.object(np, "loadtxt") as loadtxt, pytest.raises(ParseError) as err:
            read_values(InputSpec(path=path, format="json"))
        assert str(err.value) == "unknown input format 'json'" and not loadtxt.called

    @pytest.mark.parametrize("block", [3, sagini_io._READ_BLOCK])
    def test_invalid_utf8_after_the_header(self, tmp_path, monkeypatch, block):
        # The first pass decodes only up to the first data row; numpy's
        # reader meets the byte, and the block route names its line.
        monkeypatch.setattr(sagini_io, "_READ_BLOCK", block)
        rows = 2 * block // 5 + 2
        raw = b"id,income\n" + b"".join(b"%d,%d\n" % (i, i % 10) for i in range(rows)) + b"7,\xff7\n8,8\n"
        assert len(raw) > 2 * block
        path = tmp_path / "in.csv"
        path.write_bytes(raw)
        result, paths, stream, lines = self.read(monkeypatch, path, header=True, column="income")
        assert result == ("error", f"line {rows + 2}: byte 0xff is not valid UTF-8")
        assert paths == [str(path)] and stream

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_names_are_read_as_text(self, tmp_path, monkeypatch, suffix):
        # numpy would decompress the file by its name, and fail on text.
        path = tmp_path / f"rows.csv{suffix}"
        path.write_bytes(b"1\n2\n")
        result, paths, stream, lines = self.read(monkeypatch, path)
        assert result[:4] == ("ok", "<f8", (2,), "[1.0, 2.0]")
        assert paths == [] and stream

    def test_compressed_suffixes_cover_numpys(self):
        openers = set(np.lib._datasource._file_openers.keys()) - {None}
        assert openers <= set(sagini_io._COMPRESSED)

    def test_url_like_path_is_read_by_the_block_route(self, tmp_path, monkeypatch):
        # numpy would fetch a path that parses as a URL, though it exists here.
        (tmp_path / "x:").mkdir()
        (tmp_path / "x:" / "rows.csv").write_bytes(b"1\n2\n")
        monkeypatch.chdir(tmp_path)
        result, paths, stream, lines = self.read(monkeypatch, "x://rows.csv")
        assert result[:4] == ("ok", "<f8", (2,), "[1.0, 2.0]")
        assert paths == [] and stream

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_is_read_once_by_the_block_route(self, tmp_path):
        raw = b"id,income\n1,10\n2,20\n"
        path = tmp_path / "fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(raw,), daemon=True)
        writer.start()
        loadtxt = np.loadtxt

        def no_path(fname, *args, **kwargs):
            # Opening the pipe again would wait for a writer that has gone.
            assert not isinstance(fname, str)
            return loadtxt(fname, *args, **kwargs)

        try:
            with mock.patch.object(np, "loadtxt", side_effect=no_path):
                values, digest = read_values(InputSpec(path=str(path), header=True, column="income"))
        finally:
            writer.join(timeout=10)
        assert values.tolist() == [10.0, 20.0] and digest == hashlib.sha256(raw).hexdigest()

    @pytest.mark.parametrize("how", ["in place", "replaced"])
    def test_file_rewritten_before_numpy_reads_it(self, tmp_path, how):
        # The screen hashes the open file; numpy opens the path afresh. A
        # rewrite in place is read again from the handle, so both describe
        # the new bytes; a replaced file leaves the handle on the old ones.
        old, new = b"1\n2\n3\n", b"10\n20\n30\n40\n"
        path = tmp_path / "in.csv"
        path.write_bytes(old)
        loadtxt = np.loadtxt

        def rewrite_then_load(fname, *args, **kwargs):
            if isinstance(fname, str):
                if how == "in place":
                    path.write_bytes(new)
                else:
                    (tmp_path / "new.csv").write_bytes(new)
                    os.replace(tmp_path / "new.csv", path)
            return loadtxt(fname, *args, **kwargs)

        spec = InputSpec(path=str(path))
        with mock.patch.object(np, "loadtxt", side_effect=rewrite_then_load) as spy:
            table, digest = read_values(spec)
        assert spy.call_args_list[0].args[0] == str(path)
        read = new if how == "in place" else old
        assert digest == hashlib.sha256(read).hexdigest()
        assert table.tolist() == read_bytes(read, spec, False).tolist()


# Cells for the reader differential: numbers in every spelling ``float``
# takes, with and without Unicode padding, and cells the grammar rejects.
_CELL_ALPHABET = "0123456789.-+eE_ \t\x00\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\u0663\uff11naifINF"
_reader_cells = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        ["", " ", " 7 ", "\u30001.5\u3000", "\xa02", "1_000", "\u0663", "\uff11",
         "nan", "-inf", "Infinity", "5e-324", "0.1000000000000000055511151231257827",
         "1e1_0", "0x10", "1d5", "nan(1)", "income"]
    ),
    st.text(_CELL_ALPHABET, max_size=5),
)


@st.composite
def reader_tables(draw):
    """(text, InputSpec): a well-formed table as the readers see it after decoding."""
    fmt, sep = draw(st.sampled_from(
        [("csv", ","), ("tsv", "\t"), ("whitespace", " "), ("whitespace", "\t"), ("whitespace", "  ")]
    ))
    rows = draw(st.lists(st.lists(_reader_cells, min_size=1, max_size=4), max_size=6))
    header = draw(st.booleans())
    if header and draw(st.booleans()):
        rows.insert(0, draw(st.lists(st.sampled_from(["a", "b", "income"]), min_size=1, max_size=3)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(sep.join(row) for row in rows) + draw(st.sampled_from(["", newline]))
    column = draw(st.sampled_from([None, 1, 2, 3, "2", "income"]))
    return text, InputSpec(format=fmt, column=column, header=header)


@st.composite
def reader_inputs(draw):
    """(raw bytes, InputSpec): a table as it arrives, with or without a
    byte-order mark, its lines ended by ``\n`` or ``\r\n``; perhaps one
    lone ``\r`` or a character only :meth:`str.splitlines` breaks at in
    place of a break, and perhaps one byte that is not valid UTF-8."""
    fmt, sep = draw(st.sampled_from(
        [("csv", ","), ("tsv", "\t"), ("whitespace", " "), ("whitespace", "\t"), ("whitespace", "  ")]
    ))
    rows = draw(st.lists(st.lists(_reader_cells, min_size=1, max_size=4), max_size=6))
    header = draw(st.booleans())
    if header and draw(st.booleans()):
        rows.insert(0, draw(st.lists(st.sampled_from(["a", "b", "income"]), min_size=1, max_size=3)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [newline] * len(rows)
    if rows and draw(st.integers(0, 3)) == 2:
        ends[draw(st.integers(0, len(rows) - 1))] = draw(
            st.sampled_from(["\r", "\x85", "\u2028", "\x0b", "\x0c", "\x1c"])
        )
    if rows and draw(st.booleans()):
        ends[-1] = ""
    text = "".join(sep.join(row) + end for row, end in zip(rows, ends))
    raw = draw(st.sampled_from([b"", "\ufeff".encode()])) + text.encode()
    if draw(st.integers(0, 9)) == 5:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + raw[at:]
    column = draw(st.sampled_from([None, 1, 2, 3, "2", "income"]))
    return raw, InputSpec(format=fmt, column=column, header=header)


@settings(max_examples=400, deadline=None)
@given(table=reader_tables(), points=st.booleans())
def test_loadtxt_agrees_with_the_line_parser(table, points):
    """Whatever numpy's reader returns on a well-formed UTF-8 table, the
    line parser returns bit for bit, and they fail alike."""
    text, spec = table
    raw = text.encode()
    assert outcome(read_bytes, raw, spec, points) == outcome(line_parse, raw, spec, points)


def lines_before_the_invalid_byte(raw):
    """The whole lines of ``raw`` before the line of its first byte that is
    not valid UTF-8, or None if every byte is valid. Lines end at ``\n``,
    ``\r\n`` or a lone ``\r``, as the reader ends them."""
    try:
        raw.decode()
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        return head[: max(head.rfind(b"\n"), head.rfind(b"\r")) + 1]
    return None


@settings(max_examples=400, deadline=None)
@given(table=reader_inputs(), points=st.booleans())
@pytest.mark.parametrize("block", [3, sagini_io._READ_BLOCK])
def test_byte_reader_agrees_with_the_line_parser(block, table, points):
    """The same on the raw bytes as they arrive, with a byte-order mark,
    odd line breaks or bytes that are not UTF-8, read whole and three bytes
    at a time. Errors come in block order, so before an invalid byte a
    smaller block may meet the first bad line of the lines before it."""
    raw, spec = table
    with mock.patch.object(sagini_io, "_READ_BLOCK", block):
        result = outcome(read_bytes, raw, spec, points)
    expected = outcome(line_parse, raw, spec, points)
    if result != expected:
        before = lines_before_the_invalid_byte(raw)
        assert before is not None and result[0] == "error"
        assert result == outcome(line_parse, before, spec, points)


@given(text=st.text(st.sampled_from(["a", "\xe9", "\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028", "\x00"])))
def test_lines_end_where_universal_newlines_end_them(text):
    """A line ends at "\\n", "\\r\\n" or a lone "\\r", as Python's text files
    and numpy's reader end it, and at nothing else."""
    expected = [line.rstrip("\r\n") for line in io.StringIO(text, newline="").readlines()]
    assert sagini_io._lines(text) == expected


@settings(max_examples=300, deadline=None)
@given(
    raw=st.lists(st.sampled_from([b"a", b"bc", b"\r", b"\n", b"\r\n"]), max_size=40).map(b"".join),
    block=st.integers(1, 6),
)
def test_blocks_end_at_line_breaks(raw, block):
    """The read blocks join to the input. Each but the last ends in a line
    break, never between a "\\r" and its "\\n", and holds one read beyond
    the rest of a line carried from the read before: lone "\\r" breaks too
    cut the input into blocks."""
    with mock.patch.object(sagini_io, "_READ_BLOCK", block):
        blocks = list(sagini_io._blocks(io.BytesIO(raw)))
    assert b"".join(blocks) == raw and all(blocks)
    for this, following in zip(blocks, blocks[1:]):
        assert this.endswith((b"\r", b"\n"))
        assert not (this.endswith(b"\r") and following.startswith(b"\n"))
    longest = max(map(len, raw.splitlines(keepends=True)), default=0)
    assert all(len(b) <= longest + block for b in blocks)


@settings(max_examples=300, deadline=None)
@given(table=reader_inputs(), points=st.booleans())
def test_file_reader_agrees_with_the_stream_reader(table, points):
    """A file, which numpy's reader may take whole from its path, reads as
    its bytes do from a stream: the same table, digest or error."""
    raw, spec = table
    if points:
        spec = replace(spec, column=None)
    try:
        table, digest = _read_stream(io.BytesIO(raw), spec, points)
        expected = "ok", table.dtype.str, table.shape, repr(table.tolist()), digest
    except ParseError as exc:
        expected = "error", str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "wb") as fh:
            fh.write(raw)
        assert read_outcome(replace(spec, path=path), points) == expected


def json_golden(doc):
    assert document_to_json(doc) == json.dumps(doc, indent=2) + "\n"


def curve_document(q, **kwargs):
    curve = LorenzCurve(q=np.asarray(q, dtype=float), convex=False)
    return build_document(
        metrics_from_lorenz(lorenz_from_points([(0.5, 0.25), (1.0, 1.0)])),
        curve,
        data=None,
        digest=None,
        **kwargs,
    )


def sweep_document(result):
    cfg = result.config
    return {
        "config": {
            "family": cfg.family,
            "sample_size": cfg.sample_size,
            "replications": cfg.replications,
            "seed": cfg.seed,
            "params": dict(sorted(cfg.params.items())),
        },
        "rows": [asdict(row) for row in result.rows],
        "summary": result.summary,
    }


def check_writers_raise_at_the_last_block(result, name, value):
    """With ``value``, a nan or an inf, last in column ``name``, both sweep
    writers write the blocks before it as they were, then raise, writing no
    NaN and no wrong digits."""
    column = result.columns[name].copy()
    column[-1] = value
    odd = replace(result, columns={**result.columns, name: column})
    for writer in (sweep_json_pieces, sweep_csv_pieces):
        written = []
        with pytest.raises(ValueError, match="nan or an inf"):
            written.extend(writer(odd))
        assert repr(result.rows[0].gini) in "".join(written)
        assert written == list(writer(result))[: len(written)]


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def non_finite_case(where, special):
    """A report document or a sweep result holding ``special`` at
    ``where``, with every writer of its kind."""
    if where.startswith("sweep"):
        result = sensitivity_sweep(ExperimentConfig("lognormal", 3, 5, 1, {}))
        if where == "sweep column":
            sag = result.columns["sag"].copy()
            sag[2] = special
            result = replace(result, columns={**result.columns, "sag": sag})
        else:
            gini = {**result.summary["gini"], "p75": special}
            result = replace(result, summary={**result.summary, "gini": gini})
        return result, (sweep_json_pieces, sweep_csv_pieces, sweep_to_json, sweep_to_csv)
    q = [0.1, 0.2, 0.3, 0.4, 0.5, 1.0]
    if where in ("shares", "share array"):
        q[4] = special
    doc = curve_document(q, _q_array=where == "share array")
    if where == "index":
        doc["indices"]["g_left"] = special
    elif where == "input":
        doc["input"]["min"] = special
    return doc, (json_pieces, csv_pieces, document_to_json, document_to_csv)


def check_writers_raise_at_the_first_special(q, q_array):
    """With a nan or an inf among the shares ``q``, both report writers
    write the blocks of shares ahead of the first as a document of finite
    shares has them, then raise."""
    doc = curve_document(q, with_provenance=False, _q_array=q_array)
    finite = curve_document(np.nan_to_num(q, posinf=0.75, neginf=0.25), with_provenance=False)
    first = int(np.flatnonzero(~np.isfinite(q))[0])
    for writer in (json_pieces, csv_pieces):
        written = []
        with pytest.raises(ValueError, match="nan or an inf"):
            written.extend(writer(doc))
        # The CSV report's first piece is its key,value table.
        assert len(written) == first // sagini_io._WRITE_BLOCK + (writer is csv_pieces)
        assert written == list(writer(finite))[: len(written)]


class TestJsonGolden:
    """document_to_json and sweep_to_json are exactly json.dumps(doc, indent=2)
    plus a newline, and they and the CSV writers raise on a nan or an inf."""

    @pytest.mark.parametrize("with_provenance", [True, False])
    def test_values_document(self, with_provenance):
        json_golden(document_for([3.0, 1.0, 4.0, 1.0, 5.0, 9.0], with_provenance))

    def test_two_values(self):
        json_golden(document_for([1.0, 3.0]))

    def test_points_document(self):
        points = [(0.25, 0.1), (0.5, 0.2), (0.75, 0.5), (1.0, 1.0)]
        curve = lorenz_from_points(points)
        doc = build_document(
            metrics_from_lorenz(curve),
            curve,
            data=None,
            digest="cd" * 32,
        )
        assert doc["input"]["mean"] is None
        json_golden(doc)

    @pytest.mark.parametrize("with_provenance", [True, False])
    def test_float_spellings(self, with_provenance):
        json_golden(
            curve_document(
                [-0.0, 5e-324, 1e-05, 0.1, 1e16, 1e22, -1e-300, 1.0],
                with_provenance=with_provenance,
            )
        )

    @pytest.mark.parametrize("special", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "where", ["shares", "share array", "index", "input", "sweep column", "sweep summary"]
    )
    def test_writers_raise_on_non_finite_floats(self, where, special):
        # JSON holds no nan or inf: every report and sweep writer raises,
        # and what a piece writer puts out first spells neither.
        value, writers = non_finite_case(where, special)
        for writer in writers:
            written = []
            with pytest.raises(ValueError):
                written.extend(writer(value))
            assert not re.search(r"\b(nan|inf|infinity)\b", "".join(written), re.I)

    def test_array_document_is_written_as_the_list_document(self):
        # The CLI's document holds q as the curve's array.
        q = [-3e-05, -0.0, 0.0, 5e-324, 9.5e-05, 0.0001, 0.1, 1 / 3, 123.5, 1e16, 1e22, 1.0]
        listed = curve_document(q, with_provenance=False)
        array = curve_document(q, with_provenance=False, _q_array=True)
        assert isinstance(array["lorenz"]["q"], np.ndarray)
        json_golden(listed)
        assert document_to_json(array) == document_to_json(listed)
        assert document_to_csv(array) == document_to_csv(listed)

    def test_array_blocks_with_specials_raise(self):
        # The CLI's document, whose shares are an array.
        nan, inf = float("nan"), float("inf")
        check_writers_raise_at_the_first_special([0.5, 1e-05, nan, 0.25, inf, -inf, -0.0, 1.0], q_array=True)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("lognormal", {"sigma": 2.0}),
            ("pareto", {"alpha": 1.2}),
            ("uniform", {"low": -0.25, "high": 3.0}),
            ("symmetric_triangular", {}),
            ("one_holder", {}),
            ("uniform", {"low": 1e-300, "high": 1e-300}),
        ],
        ids=["lognormal", "pareto", "uniform", "triangular", "one_holder", "constant"],
    )
    def test_sweep_document(self, family, params):
        cfg = ExperimentConfig(family, sample_size=7, replications=40, seed=5, params=params)
        result = sensitivity_sweep(cfg)
        doc = sweep_document(result)
        assert sweep_to_json(result) == json.dumps(doc, indent=2) + "\n"
        if family == "uniform" and params["low"] == params["high"]:
            assert {v for stats in doc["summary"].values() for v in stats.values()} == {0.0}
        # The CSV carries the same rows and summary, floats by repr.
        lines = [
            ",".join(
                repr(v) if isinstance(v, float) else str(v) for v in row.values()
            )
            for row in doc["rows"]
        ] + [
            f"summary,{metric},{stat},{value!r}"
            for metric, stats in doc["summary"].items()
            for stat, value in stats.items()
        ]
        assert sweep_to_csv(result).splitlines()[1:] == lines

    def test_sweep_nan_in_the_second_block_only(self):
        cfg = ExperimentConfig("lognormal", 3, sagini_io._WRITE_BLOCK + 1, 1, {})
        check_writers_raise_at_the_last_block(sensitivity_sweep(cfg), "g_left", float("nan"))

    @pytest.mark.parametrize("special", [float("inf"), -float("inf")])
    def test_sweep_infinity_in_the_second_block_only(self, special):
        cfg = ExperimentConfig("pareto", 3, sagini_io._WRITE_BLOCK + 1, 1, {})
        check_writers_raise_at_the_last_block(sensitivity_sweep(cfg), "sag_minus_gini", special)

    @pytest.mark.parametrize("cut", [slice(None, 1), slice(None, None)], ids=["short", "long"])
    def test_sweep_ragged_column_raises(self, cut):
        # A gini column of another length would put its values in other
        # rows' fields, or leave one unwritten past the last block.
        result = sensitivity_sweep(ExperimentConfig("uniform", 3, 2, 1, {}))
        gini = np.append(result.columns["gini"], 0.5)[cut]
        odd = replace(result, columns={**result.columns, "gini": gini})
        for writer in (sweep_to_json, sweep_to_csv):
            with pytest.raises(ValueError, match="1-D and as long as"):
                writer(odd)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_sweep_column_of_another_dtype_raises(self, dtype):
        # Its bits would be written as a float64's digits.
        result = sensitivity_sweep(ExperimentConfig("uniform", 3, 2, 1, {}))
        sag = result.columns["sag"].astype(dtype)
        odd = replace(result, columns={**result.columns, "sag": sag})
        for writer in (sweep_to_json, sweep_to_csv):
            with pytest.raises(TypeError, match=f"got dtype {np.dtype(dtype)}$"):
                writer(odd)

    def test_specials_after_the_first_floats(self):
        nan, inf = float("nan"), float("inf")
        check_writers_raise_at_the_first_special([0.1, 0.2, 0.3, 0.4, nan, -0.0, inf, 1.0], q_array=False)

    def test_csv_rows_are_the_lorenz_shares(self):
        doc = curve_document([0.1, 0.2, 0.3, 0.4, 0.5, -0.0, 1.0])
        lines = document_to_csv(doc).splitlines()
        n = doc["input"]["n"]
        assert lines[lines.index("i,p,q") + 1 :] == [
            f"{i},{i / n!r},{q!r}" for i, q in enumerate(doc["lorenz"]["q"], start=1)
        ]


class TestJsonGoldenSmallBlocks(TestJsonGolden):
    """The same documents written two list items or sweep rows to a piece."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(sagini_io, "_WRITE_BLOCK", 2)

    def test_pieces_hold_a_block_each(self):
        doc = curve_document([0.1, 0.2, 0.3, 0.4, 1.0], with_provenance=False)
        pieces = list(json_pieces(doc))
        # The first piece holds the text ahead of the shares and their first
        # block; the last closes the document.
        assert pieces[0].endswith('"q": [\n      0.1,\n      0.2')
        assert pieces[1:] == [",\n      0.3,\n      0.4", ",\n      1.0", "\n    ]\n  }\n}\n"]
        assert len(list(csv_pieces(doc))) == 1 + 3


def income_table(tmp_path, rows, encode=str.encode):
    """An ``id,region,income`` CSV of cents-rounded lognormal incomes, its
    text written as ``encode`` turns it into bytes."""
    rng = np.random.default_rng(7)
    cents = np.round(rng.lognormal(10.0, 1.0, rows) * 100).astype(np.int64)
    regions = ("north", "south", "east", "west", "central")
    path = tmp_path / "incomes.csv"
    path.write_bytes(
        encode(
            "id,region,income\n"
            + "".join(f"{i},{regions[i % 5]},{c // 100}.{c % 100:02d}\n" for i, c in enumerate(cents))
        )
    )
    return path


def traced_peak(work):
    """tracemalloc's peak while ``work()`` runs, above what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


class TestMemory:
    """Beyond the table it returns and the document it writes, I/O holds a
    block's worth of memory, not one object per row."""

    encodings = pytest.mark.parametrize(
        "encode",
        [
            str.encode,
            lambda text: "\ufeff".encode() + text.encode(),
            lambda text: text.replace("region", "r\xe9gion", 1).encode(),
            lambda text: text.replace("\n", "\r\n").encode(),
            lambda text: text.replace("\n", "\r").encode(),
            lambda text: text.replace("id,region,income", '"id","region","income"', 1).encode(),
        ],
        ids=["ascii-lf", "bom", "non-ascii-header", "crlf", "cr", "quoted-header"],
    )

    @encodings
    def test_read_peaks_below_twice_the_input(self, tmp_path, encode):
        # Each of these files is read whole by numpy's reader.
        path = income_table(tmp_path, 200_000, encode)
        spec = InputSpec(path=str(path), header=True, column="income")
        peak = traced_peak(lambda: read_values(spec))
        assert peak <= 2 * path.stat().st_size

    @encodings
    def test_stdin_read_peaks_below_twice_the_input(self, tmp_path, monkeypatch, encode):
        # The same bytes from stdin, which are read a block at a time.
        path = income_table(tmp_path, 200_000, encode)
        spec = InputSpec(path="-", header=True, column="income")
        with open(path, "rb") as fh:
            monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=fh))
            peak = traced_peak(lambda: read_values(spec))
        assert peak <= 2 * path.stat().st_size

    def test_writer_peak_beyond_the_document_is_bounded(self, tmp_path):
        check_writer_peak(tmp_path, q_array=False)

    def test_writer_peak_beyond_the_array_document_is_bounded(self, tmp_path):
        # The CLI's document, whose shares the formatter writes a block at a
        # time from the array.
        check_writer_peak(tmp_path, q_array=True)

    @pytest.mark.parametrize("source", ["rows", "columns"])
    def test_sweep_writer_peak_beyond_the_result_is_bounded(self, tmp_path, source):
        # 5000 rows of about 230 bytes, from a result whose rows a caller has
        # already read, or from one that holds only the columns, which the
        # writer must not turn into rows. The formatter's tables are loaded
        # ahead of the trace.
        import sagini._repr  # noqa: F401
        from sagini.cli import _write_output

        result = sensitivity_sweep(ExperimentConfig("lognormal", 10, 5000, 1, {}))
        if source == "rows":
            assert len(result.rows) == 5000
        out = tmp_path / "sweep.json"
        peak = traced_peak(lambda: _write_output(str(out), sweep_json_pieces(result)))
        assert peak <= 4 * 2**20
        assert ("rows" in vars(result)) == (source == "rows")
        assert out.read_text() == sweep_to_json(result)


def check_writer_peak(tmp_path, q_array):
    from sagini.cli import _write_output

    data = build_dataset(np.random.default_rng(8).lognormal(10.0, 1.0, 200_000))
    doc = build_document(report(data), lorenz_curve(data), data=data, digest=None, _q_array=q_array)
    out = tmp_path / "report.json"
    peak = traced_peak(lambda: _write_output(str(out), json_pieces(doc)))
    assert peak <= 4 * 2**20
    assert out.read_text() == document_to_json(doc)
