"""Unit tests for input parsing and report-document serialization."""

import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sagini import (
    build_dataset,
    lorenz_curve,
    lorenz_from_points,
    metrics_from_lorenz,
    report,
)
from sagini.errors import ParseError
from sagini.io import (
    InputSpec,
    _decode,
    _line_points,
    _line_values,
    _loadtxt,
    build_document,
    document_to_csv,
    document_to_json,
    document_to_text,
    read_lorenz_points,
    read_values,
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

    def test_short_row_rejected(self, tmp_path):
        path = write(tmp_path, "1,2\n3\n")
        with pytest.raises(ParseError, match="line 2"):
            read_values(InputSpec(path=path, column=2))

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


def document_for(values, with_provenance=True):
    data = build_dataset(values)
    return build_document(
        report(data),
        lorenz_curve(data),
        data=data,
        digest="ab" * 32,
        tool_version="0.0-test",
        with_provenance=with_provenance,
    )


class TestDocument:
    def test_fields(self):
        doc = document_for([2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 14.0, 16.0, 17.0, 18.0])
        assert doc["schema_version"] == "1"
        assert doc["input"]["n"] == 10
        assert doc["input"]["total"] == 100.0
        assert doc["indices"]["skew_direction"] == "symmetric"
        assert len(doc["lorenz"]["p"]) == 10
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
        doc = build_document(
            report(data), lorenz_curve(data), data=data, digest=None, tool_version="t"
        )
        assert doc["input"] == {"n": 4, "mean": data.mean, "min": -1.0, "max": 4.0,
                                "total": data.total}
        assert list(doc["input"]) == ["n", "mean", "min", "max", "total"]

    def test_provenance_suppressed(self):
        doc = document_for([1.0, 2.0], with_provenance=False)
        assert "provenance" not in doc

    def test_json_round_trip_recovers_indices(self):
        doc = document_for([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        parsed = json.loads(document_to_json(doc))
        points = list(zip(parsed["lorenz"]["p"], parsed["lorenz"]["q"]))
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
            tool_version="0.0-test",
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
    "form feed break": ("1,2\x0c3,4\n", {"column": 2}),
    "line separator": ("1,2\u20283,4\n", {"column": 2}),
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
    "nul": ("1\x00,2\n3,4\n", {"column": 2}),
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


class TestReaderDifferential:
    """The table reader agrees with the line-by-line parser it stands in for."""

    @pytest.mark.parametrize("text, kwargs", READER_CORPUS.values(), ids=READER_CORPUS.keys())
    def test_values(self, tmp_path, text, kwargs):
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode("utf-8"))
        spec = InputSpec(path=str(path), **kwargs)
        expected = outcome(_line_values, text, spec)
        assert outcome(lambda: read_values(spec)[0]) == expected

    @pytest.mark.parametrize("text, kwargs", READER_CORPUS.values(), ids=READER_CORPUS.keys())
    def test_points(self, tmp_path, text, kwargs):
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode("utf-8"))
        spec = InputSpec(path=str(path), **kwargs)
        expected = outcome(_line_points, text, spec)
        assert outcome(lambda: read_lorenz_points(spec)[0]) == expected

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
         "short rows between full ones"],
    )
    def test_regular_values_take_the_table_path(self, name):
        text, kwargs = READER_CORPUS[name]
        assert _loadtxt(text, InputSpec(**kwargs), points=False) is not None

    @pytest.mark.parametrize(
        "name",
        ["underscore", "underscore later", "underscore in exponent",
         "arabic-indic digit", "fullwidth digit"],
    )
    def test_outside_grammar_is_left_to_the_line_parser(self, name):
        text, kwargs = READER_CORPUS[name]
        assert _loadtxt(text, InputSpec(**kwargs), points=False) is None

    @pytest.mark.parametrize("name", ["points underscore"])
    def test_points_outside_grammar_are_left_to_the_line_parser(self, name):
        text, kwargs = READER_CORPUS[name]
        assert _loadtxt(text, InputSpec(**kwargs), points=True) is None

    @pytest.mark.parametrize(
        "name", ["points", "points header", "points three columns", "points unicode padding"]
    )
    def test_regular_points_take_the_table_path(self, name):
        text, kwargs = READER_CORPUS[name]
        assert _loadtxt(text, InputSpec(**kwargs), points=True) is not None

    @pytest.mark.parametrize(
        "name",
        ["balanced ragged", "quoted", "cr only", "form feed break",
         "line separator", "nul", "leading blank line", "blank line before header",
         "whitespace ragged"],
    )
    def test_irregular_text_is_left_to_the_line_parser(self, name):
        text, kwargs = READER_CORPUS[name]
        assert _loadtxt(_decode(text.encode()), InputSpec(**kwargs), points=False) is None

    def test_balanced_ragged_rows_still_fail(self, tmp_path):
        path = write(tmp_path, "1,2,3\n4,5\n6,7,8,9\n")
        message = r"^line 2: only 2 column\(s\), need column 3$"
        with pytest.raises(ParseError, match=message):
            read_values(InputSpec(path=path, column=3))

    def test_oversized_field_is_left_to_the_line_parser(self):
        text = "1," + "9" * (csv.field_size_limit() + 1) + "\n2,3\n"
        assert _loadtxt(text, InputSpec(), points=False) is None
        assert _loadtxt(text, InputSpec(), points=True) is None


# Cells for the reader differential: numbers in every spelling ``float``
# takes, with and without Unicode padding, and cells the grammar rejects.
_CELL_ALPHABET = "0123456789.-+eE_ \t\x1f\xa0\u3000\u0663\uff11naifINF"
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
    """(text, InputSpec): a table as the readers see it after decoding."""
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


@settings(max_examples=400, deadline=None)
@given(table=reader_tables(), points=st.booleans())
def test_loadtxt_agrees_with_the_line_parser(table, points):
    """Whatever numpy's reader returns, the line parser returns bit for bit."""
    text, spec = table
    fast = _loadtxt(text, spec, points)
    if fast is not None:
        expected = outcome(_line_points if points else _line_values, text, spec)
        assert outcome(lambda: fast) == expected


def json_golden(doc):
    assert document_to_json(doc) == json.dumps(doc, indent=2) + "\n"


def curve_document(q, **kwargs):
    curve = LorenzCurve(q=np.asarray(q, dtype=float), convex=False)
    return build_document(
        metrics_from_lorenz(lorenz_from_points([(0.5, 0.25), (1.0, 1.0)])),
        curve,
        data=None,
        digest=None,
        tool_version="0.0-test",
        **kwargs,
    )


class TestJsonGolden:
    """document_to_json is exactly json.dumps(doc, indent=2) plus a newline."""

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
            tool_version="0.0-test",
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

    def test_non_finite_falls_back_to_json_spelling(self):
        doc = curve_document([float("nan"), float("inf"), -float("inf"), 1.0])
        assert "NaN" in document_to_json(doc)
        json_golden(doc)

    def test_other_shapes(self):
        json_golden({})
        json_golden({"a": [], "b": {}, "c": [1, 2.5, True, None, "x\ny"]})
        json_golden({"a": {"b": [1.5, 2]}, "c": [[0.5]], "d": ("t", 1)})
        json_golden({"numpy": {"v": [np.float64(0.1), 1e-07]}, 1: "int key"})
        json_golden({"text": "\u00e9\u2028\n", "lorenz": {"p": [0.5, 1.0]}})
