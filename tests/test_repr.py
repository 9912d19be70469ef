"""The float64 block formatter against float.__repr__."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sagini._repr import rows_text


def float_text(x, sep):
    """The block writer's one-column case."""
    return rows_text("%s", [x], sep)


def repr_join(x, sep):
    return sep.join(map(float.__repr__, x.tolist()))


SEPARATORS = [", ", ",\n      ", ""]


def _with_neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


class TestFloatText:
    """The block writer's float column is the join of float.__repr__, byte
    for byte."""

    @pytest.mark.parametrize("sep", SEPARATORS, ids=["comma", "json", "none"])
    @pytest.mark.parametrize(
        "values",
        [
            # Every binary exponent, with each power of two closer to its
            # lower neighbour than to its upper one.
            _with_neighbours([2.0**e for e in range(-1074, 1024)]),
            _with_neighbours([float(f"1e{e}") for e in range(-323, 309)]),
            np.arange(1, 100_000, dtype=np.uint64).view(np.float64),
            [5e-324, 1e-323, 8e-323, 1e-322, 2.225073858507201e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, 0.0, -0.0, 1.0, 0.1, 1 / 3, 9007199254740993.0],
            # Both sides of the switches to exponent notation.
            _with_neighbours([1e-4, 9.5e-5, 1.5e-4, 1e16, 9.5e15, 1.5e16, 123456789e8]),
        ],
        ids=["powers of 2", "powers of 10", "subnormals", "specials", "notation switch"],
    )
    def test_edge_sets(self, values, sep):
        x = np.asarray(values, dtype=float)
        for signed in (x, -x):
            assert float_text(signed, sep) == repr_join(signed, sep)

    def test_lognormal_shares(self):
        v = np.sort(np.random.default_rng(3).lognormal(10.0, 1.0, 20_000))
        q = np.cumsum(v) / v.sum()
        assert float_text(q, ",\n      ") == repr_join(q, ",\n      ")

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_the_last_of_many_rows_raises(self, special):
        # A nan or an inf would be written as the digits of a finite double.
        x = np.random.default_rng(5).random(3 * _PART_ROWS)
        x[-1] = special
        with pytest.raises(ValueError, match="nan or an inf"):
            float_text(x, ",")
        with pytest.raises(ValueError, match="nan or an inf"):
            rows_text("%s,%s\n", [np.arange(len(x), dtype=np.uint64), x])

    def test_not_imported_with_the_cli(self):
        # The CLI imports io for every command, including those that write
        # no float array; the formatter builds its tables when it loads.
        code = "import sys, sagini.cli; print('sagini._repr' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["False"]


#: One value of each layout of a repr: zero, "0." and zeros ahead of the
#: digits (D from -3 to 0, for ``0.d1d2... * 10**D``), a "." inside or after
#: them (D from 1 to 16), and exponent notation with two and three exponent
#: digits, its exponent of either sign, with one digit and with many, and
#: its suffix within a word and across two.
_LAYOUTS = {
    "zero": 0.0,
    **{f"D={d}": float(f"1.2345e{d - 1}") for d in range(-3, 1)},
    **{f"D={d}": float(np.nextafter(float(f"1.2345e{d - 1}"), np.inf)) for d in range(1, 17)},
    "e-05": 1e-05,
    "e+16": 1.2345e16,
    "e+17": 2.5e17,
    "e-100": 1.234567890123e-100,
    "e-123": 1 / 3 * 1e-122,
    "e+300": 4e300,
    "e-324": 5e-324,
}
#: Rows of a part, a run of rows in the layout tests: more than 8191, so a
#: part of 8191 is one, and three parts, about 30,000 rows, are laid out in
#: one call.
_PART_ROWS = 10_000


class TestWordLayout:
    """Each layout is spelled on its own rows among others: at the first,
    middle and last row of a part of another, of either sign, in one part
    and over several, all in one call."""

    def test_the_classes_are_as_named(self):
        for name, value in _LAYOUTS.items():
            text = repr(value)
            if name.startswith("D="):
                decpt = int(name[2:])
                assert text.startswith("0.") if decpt <= 0 else text.index(".") == decpt
                assert "e" not in text
            elif name.startswith("e"):
                assert text.endswith(name)

    @pytest.mark.parametrize("first", list(_LAYOUTS))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_each_layout_among_each_other_in_a_part(self, first, sign):
        rows = 8191
        assert rows <= _PART_ROWS
        part = np.full(rows, sign * _LAYOUTS[first])
        base = [repr(part.item(0))] * rows
        for value in _LAYOUTS.values():
            x, want = part.copy(), list(base)
            for row in (0, rows // 2, rows - 1):
                x[row] = sign * value
                want[row] = repr(x.item(row))
            assert float_text(x, ",") == ",".join(want)

    @pytest.mark.parametrize("first", list(_LAYOUTS))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_each_layout_among_each_other_over_three_parts(self, first, sign):
        # Every layout of both signs in a run from the first row of each
        # part, from its middle and to its last row, rotated so that each
        # run starts with another.
        values = np.array(list(_LAYOUTS.values()))
        others = np.concatenate([values, -values])
        x = np.full(3 * _PART_ROWS, sign * _LAYOUTS[first])
        for start in range(0, len(x), _PART_ROWS):
            for at in (start, start + _PART_ROWS // 2, start + _PART_ROWS - len(others)):
                x[at : at + len(others)] = np.roll(others, at)
        assert float_text(x, ",\n") == repr_join(x, ",\n")

    @pytest.mark.parametrize("value", list(_LAYOUTS.values()), ids=list(_LAYOUTS))
    def test_a_one_row_part(self, value):
        for signed in (value, -value):
            assert float_text(np.array([signed]), ",") == repr(signed)
            x = np.resize(np.array(list(_LAYOUTS.values())), _PART_ROWS + 1)
            x[-1] = signed
            assert float_text(x, ",") == repr_join(x, ",")

    def test_a_part_of_negative_zeros(self):
        for rows in (1, 8191, 2 * _PART_ROWS + 3):
            x = np.full(rows, -0.0)
            assert float_text(x, ", ") == ", ".join(["-0.0"] * rows)

    def test_an_all_negative_part(self):
        values = -np.abs(np.array(list(_LAYOUTS.values())))
        for x in (values, np.resize(values, 8191), np.resize(values, 2 * _PART_ROWS + 7)):
            assert float_text(x, ",") == repr_join(x, ",")


class TestColumnChecks:
    """A block whose columns do not fit the template raises, rather than
    writing other rows' fields or a dtype's bits as float64 digits."""

    @pytest.mark.parametrize(
        "columns",
        [
            [np.array([0.5, 0.25, 0.125]), np.array([1.0, 2.0])],
            [np.array([0.5, 0.25]), np.array([1.0, 2.0, 3.0])],
            [np.array([1, 2], dtype=np.uint64), np.array([0.5])],
            [np.array([0.5, 0.25]), (np.array([0, 1, 0]), ["a", "b"])],
            [np.zeros((2, 2)), np.zeros(2)],
            [np.zeros(2), np.zeros((2, 1))],
            [np.float64(0.5), np.zeros(1)],
        ],
        ids=["longer first", "longer second", "short float", "long codes", "2-D first",
             "2-D second", "0-D"],
    )
    def test_ragged_columns_raise(self, columns):
        with pytest.raises(ValueError, match="1-D and as long as the first"):
            rows_text("%s %s", columns, ";")

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64, np.uint32, bool, object])
    def test_a_column_of_another_dtype_raises(self, dtype):
        column = np.array([3, 4], dtype=dtype)
        with pytest.raises(TypeError, match=f"got dtype {np.dtype(dtype)}$"):
            rows_text("%s", [column], ",")
        with pytest.raises(TypeError, match=f"got dtype {np.dtype(dtype)}$"):
            rows_text("%s,%s", [np.array([1, 2], dtype=np.uint64), column])

    @pytest.mark.parametrize(
        "column", [[0.5, 1.0], memoryview(b"ab"), 0.5], ids=["list", "memoryview", "float"]
    )
    def test_a_column_of_another_type_raises(self, column):
        with pytest.raises(TypeError, match=f"got {type(column).__name__}$"):
            rows_text("%s", [column], ",")

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
    def test_pair_codes_may_be_any_integers(self, dtype):
        codes = np.array([1, 0, 1], dtype=dtype)
        assert rows_text("%s", [(codes, ["a", "bc"])], ",") == "bc,a,bc"

    @pytest.mark.parametrize(
        "pair, got",
        [
            (([0, 1], ["a", "b"]), "list, list"),
            ((0.5, 1.0, 2.0), "float, float, float"),
            ((np.array([0]), ["a"], "x"), "ndarray, list, str"),
            ((np.array([0]),), "ndarray"),
            ((np.int64(0), ["a"]), "int64, list"),
        ],
        ids=["list codes", "three floats", "three items", "one item", "scalar codes"],
    )
    def test_a_tuple_other_than_a_pair_raises(self, pair, got):
        message = rf"^a pair must be \(codes array, words\), got \({got}\)$"
        with pytest.raises(TypeError, match=message):
            rows_text("%s", [pair], ",")

    @pytest.mark.parametrize("word", [1, b"a", None], ids=["int", "bytes", "None"])
    def test_pair_words_of_another_type_raise(self, word):
        with pytest.raises(TypeError, match=type(word).__name__):
            rows_text("%s", [(np.array([0, 1]), ["a", word])], ",")

    def test_an_empty_pair_without_words_writes_nothing(self):
        # No rows are "" whatever the columns, as for any empty block.
        empty = (np.array([], dtype=np.int64), [])
        assert rows_text("%s", [empty], ",") == ""
        assert rows_text("%s,%s\n", [np.zeros(0), empty]) == ""

    @pytest.mark.parametrize(
        "codes, bad", [([-1, 0], -1), ([0, 2], 2), ([1, 5, -3], 5), ([2**63], 2**63)]
    )
    def test_pair_codes_outside_the_words_raise(self, codes, bad):
        # A negative code would read a word from the end.
        codes = np.array(codes, dtype=np.uint64 if bad >= 2**63 else np.int64)
        with pytest.raises(ValueError, match=rf"^code {bad} is not in range\(2\)$"):
            rows_text("%s", [(codes, ["a", "b"])], ",")
        with pytest.raises(ValueError, match=rf"^code {bad} is not in range\(2\)$"):
            rows_text("%s,%s", [np.zeros(len(codes)), (codes, ["a", "b"])])

    @pytest.mark.parametrize("dtype", [np.float64, bool])
    def test_pair_codes_of_another_dtype_raise(self, dtype):
        codes = np.array([1, 0], dtype=dtype)
        with pytest.raises(TypeError, match="codes must be integers"):
            rows_text("%s", [(codes, ["a", "b"])], ",")

    @pytest.mark.parametrize(
        "template, count", [("%s", 0), ("%s", 2), ("%s,%s", 1), ("", 0), ("x", 1)]
    )
    def test_a_count_of_columns_other_than_the_fields_raises(self, template, count):
        with pytest.raises(ValueError, match="fields, got"):
            rows_text(template, [np.zeros(2)] * count, ",")


_FINITE_BITS = st.integers(min_value=0, max_value=2**64 - 1).filter(
    lambda bits: (bits >> 52) & 0x7FF != 0x7FF
)


@settings(max_examples=300, deadline=None)
@given(patterns=st.lists(_FINITE_BITS, min_size=1, max_size=40), sep=st.sampled_from(SEPARATORS))
def test_float_text_is_the_repr_join_on_raw_bit_patterns(patterns, sep):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert float_text(x, sep) == repr_join(x, sep)


#: Integers on both sides of every count of digits, and across all of uint64.
_UINT64 = st.one_of(
    st.sampled_from([10**k + d for k in range(20) for d in (-1, 0, 1) if 0 <= 10**k + d]),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1]),
    st.integers(min_value=0, max_value=2**64 - 1),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_UINT64, min_size=1, max_size=40))
def test_int_column_is_str_of_each_value(values):
    x = np.array(values, dtype=np.uint64)
    assert rows_text("%s", [x], ",") == ",".join(map(str, values))


_WORDS = ["symmetric", '"r\\u00e9"', "", "é"]


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(_UINT64, _FINITE_BITS, _FINITE_BITS, st.integers(0, len(_WORDS) - 1)),
        min_size=1,
        max_size=30,
    ),
    sep=st.sampled_from(SEPARATORS),
)
def test_rows_text_is_the_percent_format_of_each_row(rows, sep):
    # Each float column is float.__repr__ of its raw bit patterns.
    index, first, second, codes = (np.array(column, dtype=np.uint64) for column in zip(*rows))
    first, second = first.view(np.float64), second.view(np.float64)
    template = '    {"i": %s, "a": [%s, %s], "w": %s}\n'
    expected = sep.join(
        template % (i, float.__repr__(a), float.__repr__(b), _WORDS[w])
        for i, a, b, w in zip(index.tolist(), first.tolist(), second.tolist(), codes.tolist())
    )
    assert rows_text(template, [index, first, second, (codes, _WORDS)], sep) == expected
