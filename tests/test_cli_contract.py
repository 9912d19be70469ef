"""Property suite for the CLI exit-code contract on arbitrary input bytes.

Whatever bytes arrive on stdin, ``sagini compute`` ends with exit code 0,
2 (parse error) or 3 (validation error) and an ``error:`` line, never with
an uncaught exception. The strategies mix raw bytes, text over an alphabet
of the characters the readers treat specially, and well-formed tables
with odd cells, under every input format and column selection.
"""

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from sagini.cli import main

_ALPHABET = '0123456789.-+eE,;\t \n\r"\x00\ufeff\x0b _aninfx\u0663'

cells = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["", " ", "income", "p", "1,5", "1_000", '"2"', "inf", "-0"]),
    st.text(_ALPHABET, max_size=6),
)


@st.composite
def tables(draw):
    rows = draw(st.lists(st.lists(cells, min_size=1, max_size=4), max_size=8))
    delimiter = draw(st.sampled_from([",", "\t", " "]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(delimiter.join(row) for row in rows)
    return (text + draw(st.sampled_from(["", newline]))).encode("utf-8")


inputs = st.one_of(
    st.binary(max_size=200),
    st.text(_ALPHABET, max_size=200).map(lambda t: t.encode("utf-8")),
    tables(),
)


@settings(max_examples=300, deadline=None)
@given(
    data=inputs,
    input_format=st.sampled_from(["csv", "tsv", "whitespace"]),
    header=st.booleans(),
    from_lorenz=st.booleans(),
    column=st.one_of(
        st.sampled_from([None, "1", "2", "income", "0", "-1", "\u00b2", "\u0661"]),
        st.text(max_size=3),
    ),
)
def test_compute_exits_0_2_or_3_on_any_bytes(data, input_format, header, from_lorenz, column):
    args = ["compute", "-i", "-", "--input-format", input_format, "--no-provenance"]
    if header:
        args.append("--header")
    if from_lorenz:
        args.append("--from-lorenz")
    if column is not None:
        args += ["-c", column]
    result = CliRunner().invoke(main, args, input=data)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception)
    )
    assert result.exit_code in (0, 2, 3)
    if result.exit_code:
        assert result.stderr.startswith("error: ")
