"""Input parsing and report-document serialization for the CLI.

A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as numpy's reader and
the csv module end it; every other character, ``\\v``, ``\\f``, U+2028 and
NUL among them, belongs to its line. The cells of a line are
``line.split(delimiter)``, or ``line.split()`` for whitespace input, as
numpy splits them; only a line holding a quote goes through
:func:`csv.reader`. A number is what Python's ``float`` reads from the
cell with surrounding whitespace (any Unicode whitespace) stripped,
restricted to ASCII and without underscores: an optional sign, decimal
digits with an optional point and exponent, or ``inf``, ``infinity`` or
``nan`` in any case. ``1_000`` and non-ASCII digits such as ``"\u0663"``
are not numbers. Comma decimals are a hard error, as are missing cells --
silently dropping a row would change n and with it every index. Input is
UTF-8 (a leading byte-order mark is ignored); undecodable bytes are a
parse error naming their line.

Both readers return float64 arrays: :func:`read_values` one value per
row, :func:`read_lorenz_points` an ``(n, 2)`` array of ``(p, q)`` rows.
Input is read in blocks of about :data:`_READ_BLOCK` bytes of whole
lines, each hashed only when :attr:`InputSpec.digest` is set. One header
pass, :func:`_head`, decodes and splits the blocks up to the one holding
the first data row, whose cells, with the header's, give the columns to
read. Input without data rows, with or without a header, is an empty
table, which validation rejects. The rest is read one of two ways.

The fast parser is numpy's C reader :func:`numpy.loadtxt`, which converts
only the needed columns. It splits lines and cells by the grammar above,
and its float parser reads the same numbers: it strips Unicode whitespace
padding, so padded cells stay on the fast path, and rejects underscores
and non-ASCII digits. It does not honour quotes, the one screen between
it and the line-by-line parser, which gives the same values and names
the line of a bad cell or row. A quoted header, read in the header pass,
screens nothing.

The block route, for stdin and any file the other refuses, parses the
lines the header pass left, then decodes and splits each later block; a
block whose lines hold a quote, or that ``loadtxt`` rejects, goes to the
line parser. Errors come in block order: an invalid byte is reported
ahead of a bad row in its own block, but not ahead of one in an earlier
block. This route is the only source of :class:`ParseError` text.

The whole-file route takes a regular file whose name has no suffix numpy
decompresses (``.gz``, ``.bz2``, ``.xz``, ``.lzma``) and no ``://``. It
screens the raw bytes after the header pass for a quote, with no decode
or split, then parses the path in one ``loadtxt`` call, which reads the
file in chunks with no Python object per line. A file with a quote after
its header, or one ``loadtxt`` rejects (an invalid byte among them), is
read again from its first byte by the block route. numpy opens the path
afresh, so the file's device, inode, size and mtime are taken from the
open handle before the header pass and from the path after the parse; if
they differ, numpy's table is dropped and the handle is read by the block
route, so the table and the digest describe the same bytes.

A read holds one block's bytes, text and lines, or its cells on the line
path, or numpy's chunk, beyond the parsed table. The writers yield the
report in pieces of at most :data:`_WRITE_BLOCK` floats, 8,192 shares,
4,096 CSV rows or 1,638 sweep rows, which the CLI writes in turn; the
``document_to_*`` and ``sweep_to_*`` functions join the same pieces. A
piece's rows, JSON or CSV, are laid out as one byte matrix by one
:func:`sagini._repr.rows_text` call, a column at a time, its floats by a
shortest-repr formatter, not a ``float.__repr__`` call each; it is
handed the document's float64 array of shares and a
:class:`SweepResult`'s columns, with no Python float or row object per
value.

The report document (schema ``"2"``) holds ``schema_version``, ``input``,
``indices``, ``lorenz.q``, the curve's float64 array, and, when the input
was hashed, a ``provenance`` block. The grid ``p_i = i/n`` is implied by
``input.n`` and not written; CSV output writes it as ``i / n``. JSON
output uses shortest round-trip float formatting (15+ significant
digits). The JSON writers match ``json.dumps(doc, indent=2)``, ``q`` as a
list, byte for byte on documents of finite floats, and every writer but
the text one raises :class:`ValueError` on a nan or an inf, which JSON
cannot hold; text output is fixed to 6 decimals and says so.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import stat
import sys
from array import array
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import BinaryIO, Iterable, Iterator, get_args

import numpy as np

from . import __version__
from .errors import ParseError
from .generators import SweepResult, SweepRow
from .metrics import Dataset, InequalityReport, LorenzCurve, SkewDirection

SCHEMA_VERSION = "2"

_FORMATS = ("csv", "tsv", "whitespace")
_DELIMITERS = {"csv": ",", "tsv": "\t"}

_BOM = "\ufeff".encode()

#: Suffixes of the files numpy's path reader decompresses.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

#: Bytes of input read at a time. Each read is cut after its last line
#: break, the rest carried into the next block: beyond the table, a read
#: holds about one block's bytes, text and lines.
_READ_BLOCK = 1 << 18

#: Floats that a writer formats in one piece: 8192 Lorenz shares of JSON,
#: 4096 CSV ``i,p,q`` rows (p and q) or 1638 sweep rows (five floats).
_WRITE_BLOCK = 8192


@dataclass(frozen=True)
class InputSpec:
    """Where and how to read one column of numbers.

    ``column`` is a 1-based index or a header name; None selects the first
    numeric column of the first data row. An integer of another type, a
    numpy one say, is made an ``int``; a bool, a float, bytes or any other
    type raises :class:`TypeError`. ``path`` of "-" reads stdin.
    ``digest`` asks the reader for the sha256 of the raw bytes; without it
    the input is not hashed and the reader returns None in its place.
    """

    path: str = "-"
    format: str = "csv"  # csv | tsv | whitespace
    column: int | str | None = None
    header: bool = False
    digest: bool = True

    def __post_init__(self) -> None:
        # The reader would take a column of any other type for None.
        column = self.column
        if isinstance(column, (int, np.integer)) and not isinstance(column, bool):
            object.__setattr__(self, "column", int(column))
        elif not (column is None or isinstance(column, str)):
            raise TypeError(f"column must be an int, a str or None, not {type(column).__name__}")


def _rows(
    lines: Iterable[str], fmt: str, before: int
) -> Iterator[tuple[int, list[str]]]:
    """Split lazily into (1-based line number, cells), counting ``before``
    lines ahead of ``lines``; blank lines are dropped. A line is split at
    its delimiters as numpy splits it, unless it holds a quote."""
    for lineno, line in enumerate(lines, start=before + 1):
        if not line.strip():
            continue
        if fmt == "whitespace":
            cells = line.split()
        elif '"' not in line:
            cells = line.split(_DELIMITERS[fmt])
        else:
            try:
                cells = next(csv.reader([line], delimiter=_DELIMITERS[fmt]))
            except csv.Error as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        yield lineno, cells


def _number(cell: str) -> float | None:
    """The cell's value, or None if it is not a number of the input grammar.

    ``float`` also reads digit-group underscores (``1_000``) and non-ASCII
    digits; the grammar has neither.
    """
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _reject_comma_decimal(cell: str, lineno: int, colno: int) -> None:
    """Raise the comma-separator error if ``cell`` reads as a number once its
    comma becomes a point."""
    if "," in cell and _number(cell.replace(",", ".")) is not None:
        raise ParseError(
            f"line {lineno}, column {colno}: {cell!r} uses a comma "
            "decimal separator; use a decimal point"
        )


def _parse_cell(cell: str, lineno: int, colno: int) -> float:
    value = _number(cell)
    if value is not None:
        return value
    if not cell.strip():
        raise ParseError(f"line {lineno}, column {colno}: missing value")
    _reject_comma_decimal(cell, lineno, colno)
    raise ParseError(f"line {lineno}, column {colno}: {cell!r} is not a number")


def _resolve_column(
    spec: InputSpec, names: list[str] | None, first_row: tuple[int, list[str]]
) -> int:
    """Return the 0-based index of the selected column."""
    column = spec.column
    # Only ASCII digits make an index: "²".isdigit() holds, but int() rejects it.
    if isinstance(column, str) and column.isascii() and column.removeprefix("-").isdigit():
        column = int(column)
    if isinstance(column, int):
        if column < 1:
            raise ParseError(f"column index is 1-based, got {column}")
        return column - 1
    if isinstance(column, str):
        if names is None:
            raise ParseError(
                f"column selected by name {column!r} but no header row "
                "(pass --header)"
            )
        try:
            return names.index(column)
        except ValueError:
            raise ParseError(
                f"column {column!r} not found in header {names}"
            ) from None
    lineno, cells = first_row
    for idx, cell in enumerate(cells):
        if _number(cell) is not None:
            return idx
    for idx, cell in enumerate(cells):
        _reject_comma_decimal(cell, lineno, idx + 1)
    raise ParseError(f"line {lineno}: no numeric column found")


def read_values(spec: InputSpec) -> tuple[np.ndarray, str | None]:
    """Read one numeric column; returns (float64 values, sha256 hex of raw
    bytes), the digest None unless ``spec.digest``."""
    return _read_table(spec, points=False)


def read_lorenz_points(spec: InputSpec) -> tuple[np.ndarray, str | None]:
    """Read two-column (p, q) points; returns (an (n, 2) float64 array,
    sha256 hex), the digest None unless ``spec.digest``.

    Points are always the first two columns, so a ``spec.column`` is a
    :class:`ParseError`, raised before anything is read.
    """
    if spec.column is not None:
        raise ParseError(
            f"--column {spec.column!r} does not apply to --from-lorenz input, "
            "which is read as (p, q) from the first two columns"
        )
    return _read_table(spec, points=True)


def _read_table(spec: InputSpec, points: bool) -> tuple[np.ndarray, str | None]:
    """The one read path of :func:`read_values` and :func:`read_lorenz_points`:
    a regular file numpy's reader can take whole by :func:`_read_whole`,
    anything else, and any file it refuses, by :func:`_read_stream`."""
    if spec.path == "-":
        return _read_stream(sys.stdin.buffer, spec, points)
    with open(spec.path, "rb") as fh:
        opened = os.fstat(fh.fileno())
        # numpy's opener decompresses by suffix and fetches what parses as a
        # URL; a pipe or a device could not be read twice.
        path = spec.path
        if stat.S_ISREG(opened.st_mode) and not path.endswith(_COMPRESSED) and "://" not in path:
            try:
                read = _read_whole(fh, spec, points, opened)
            except ParseError:
                read = None
            if read is not None:
                return read
            fh.seek(0)
        return _read_stream(fh, spec, points)


def _head(
    blocks: Iterator[bytes], spec: InputSpec, points: bool
) -> tuple[tuple[int, ...] | None, int, list[str], int]:
    """Read ``blocks`` up to the one holding the first data row, and return
    the columns to read, None if no row holds data; the header's line
    number, 0 without a header; that block's lines after the header; and
    the count of lines ahead of them."""
    fmt = spec.format
    if fmt not in _FORMATS:
        raise ParseError(f"unknown input format {fmt!r}")
    header, names, lineno, before = spec.header, None, 0, 0
    for index, block in enumerate(blocks):
        lines = _lines(_decode(block.removeprefix(_BOM) if index == 0 else block, before))
        for number, cells in _rows(lines, fmt, before):
            if header:
                header, lineno, names = False, number, [cell.strip() for cell in cells]
            else:
                usecols = (0, 1) if points else (_resolve_column(spec, names, (number, cells)),)
                start = max(lineno - before, 0)
                return usecols, lineno, lines[start:], before + start
        before += len(lines)
    return None, lineno, [], before


def _read_stream(
    fh: BinaryIO, spec: InputSpec, points: bool
) -> tuple[np.ndarray, str | None]:
    """The table in ``fh`` and the sha256 hex of its bytes, or None unless
    ``spec.digest``, read a block of whole lines at a time: the lines after
    the header in the block :func:`_head` stops at, then each later block."""
    sha = hashlib.sha256() if spec.digest else None
    blocks = _blocks(fh, sha)
    usecols, _, lines, before = _head(blocks, spec, points)
    text = "\n".join(lines)
    # Each block's values are appended to one growing buffer, so the table
    # is held once, not as parts and their concatenation.
    table = array("d")
    # Every block holds a line, so no lines mark the end of the input.
    while lines:
        # Blank lines are not rows; loadtxt would warn on a block of them.
        if any(map(str.strip, lines)):
            part = _parse_block(lines, before, spec.format, usecols, '"' in text)
            table.frombytes(memoryview(part).cast("B"))
        before += len(lines)
        text = _decode(next(blocks, b""), before)
        lines = _lines(text)
    values = np.frombuffer(table)
    digest = None if sha is None else sha.hexdigest()
    return values.reshape(-1, 2) if points else values, digest


def _read_whole(
    fh: BinaryIO, spec: InputSpec, points: bool, opened: os.stat_result
) -> tuple[np.ndarray, str | None] | None:
    """What :func:`_read_stream` reads from ``fh``, the regular file at
    ``spec.path`` whose status was ``opened``, parsed by one
    :func:`numpy.loadtxt` call on the path; None if numpy's reader might
    read it otherwise, or fails on it.

    :func:`_head` finds the header and columns; the rest of the file is
    hashed and screened for a quote, with no decode or split. Then numpy
    reads the path again in its C reader, with no Python string per line.
    Its table is dropped unless the file's device, inode, size and mtime
    are still ``opened``'s: both passes saw the same bytes. A
    :class:`ParseError` raised here means the file takes the block route,
    which raises it again in its own order.
    """
    sha = hashlib.sha256() if spec.digest else None
    blocks = _blocks(fh, sha)
    usecols, lineno, lines, _ = _head(blocks, spec, points)
    if usecols is None or '"' in "\n".join(lines) or any(b'"' in block for block in blocks):
        return None
    try:
        table = np.loadtxt(
            spec.path,
            delimiter=_DELIMITERS.get(spec.format),
            usecols=usecols,
            comments=None,
            dtype=float,
            ndmin=len(usecols),
            skiprows=lineno,
            encoding="utf-8-sig",
        )
        after = os.stat(spec.path)
    except (ValueError, OSError):
        return None
    if _identity(after) != _identity(opened):
        return None
    return table, None if sha is None else sha.hexdigest()


def _identity(st: os.stat_result) -> tuple[int, int, int, int]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _blocks(fh: BinaryIO, sha=None) -> Iterator[bytes]:
    """``fh`` in blocks of about :data:`_READ_BLOCK` bytes, each but the last
    ending after a ``\\n`` or a ``\\r``, so no line or ``\\r\\n`` is split,
    and each hashed by ``sha`` if given.

    A read that another follows is cut after its last line break, the bytes
    after it, and a ``\\r`` ending it when the next read starts with ``\\n``,
    carried into the next block. So a block holds one read beside part of
    one line, and input of one read is one block.
    """
    carried: list[bytes] = []
    chunk = fh.read(_READ_BLOCK)
    while chunk:
        following = fh.read(_READ_BLOCK)
        cut = len(chunk)
        if following:
            end = cut - (chunk.endswith(b"\r") and following.startswith(b"\n"))
            cut = max(chunk.rfind(b"\n", 0, end), chunk.rfind(b"\r", 0, end)) + 1
        if cut:
            block = b"".join([*carried, chunk[:cut]])
            if sha is not None:
                sha.update(block)
            yield block
            carried = []
        carried.append(chunk[cut:])
        chunk = following


def _decode(block: bytes, before: int) -> str:
    """``block`` as UTF-8 text; an invalid byte is a parse error naming its
    line, counting ``before`` lines ahead of the block."""
    try:
        return block.decode()
    except UnicodeDecodeError as exc:
        # Everything before the bad byte decoded; the sentinel character
        # makes a trailing line break start the line the byte is on.
        lineno = before + len(_lines(block[: exc.start].decode() + "x"))
        raise ParseError(
            f"line {lineno}: byte {block[exc.start]:#04x} is not valid UTF-8"
        ) from None


def _lines(text: str) -> list[str]:
    """``text`` split at ``\\n``, ``\\r\\n`` and lone ``\\r``, as numpy's
    reader splits it; a break at the end starts no line."""
    # Without the test, the two replacements scan every block for nothing.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _parse_block(
    lines: list[str], before: int, fmt: str, usecols: tuple[int, ...], quoted: bool
) -> np.ndarray:
    """The ``usecols`` of ``lines``, which come after ``before`` lines of
    input and hold at least one data row.

    :func:`numpy.loadtxt` reads them unless they are ``quoted``: numpy's
    reader does not honour quotes. Quoted lines, and any that ``loadtxt``
    rejects, go to the line parser, which names the line of an error.
    ``loadtxt`` skips blank lines and rejects a whitespace-only cell.
    """
    if not quoted:
        try:
            return np.loadtxt(
                lines,
                delimiter=_DELIMITERS.get(fmt),
                usecols=usecols,
                comments=None,
                dtype=float,
                ndmin=len(usecols),
            )
        except ValueError:
            pass
    return _line_table(lines, before, fmt, usecols)


def _line_table(lines: list[str], before: int, fmt: str, usecols: tuple[int, ...]) -> np.ndarray:
    """What :func:`numpy.loadtxt` reads from ``lines``, flattened, parsed line
    by line; errors name their line, counting ``before`` lines ahead."""
    width = max(usecols) + 1
    values = []
    for lineno, cells in _rows(lines, fmt, before):
        if len(cells) < width:
            raise ParseError(
                f"line {lineno}: need two columns (p, q), got {len(cells)}"
                if usecols == (0, 1)
                else f"line {lineno}: only {len(cells)} column(s), need column {width}"
            )
        values.extend(_parse_cell(cells[col], lineno, col + 1) for col in usecols)
    return np.array(values, dtype=float)


def build_document(
    result: InequalityReport,
    curve: LorenzCurve,
    *,
    data: Dataset | None,
    digest: str | None,
) -> dict:
    """Assemble the report document.

    ``lorenz`` holds only the shares ``q``, n of them with ``q_n = 1``: the
    curve's read-only float64 array, which ``json.dumps`` takes only as
    ``q.tolist()``; :func:`document_to_json` writes it as such.
    ``p_i = i/n`` follows from ``input.n``. ``data``, the dataset behind a
    raw-value report, supplies the input's mean, min, max and total; it is
    None for Lorenz-point input, where only n is known and the rest are
    null. The ``provenance`` block is there when ``digest``, the input's
    sha256 hex, is not None.
    """
    stats = dict.fromkeys(("mean", "min", "max", "total"))
    if data is not None:
        v = data.values
        # argmin and argmax give the first extreme in input order, as min()
        # and max() do, so a zero extreme keeps the sign it was read with.
        stats.update(
            mean=data.mean,
            min=float(v[v.argmin()]),
            max=float(v[v.argmax()]),
            total=data.total,
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "input": {"n": result.n, **stats},
        "indices": {
            "gini": result.gini,
            "g_right": result.g_right,
            "g_left": result.g_left,
            "sag": result.sag,
            "skew_direction": result.skew_direction,
            "convex": result.convex,
        },
        "lorenz": {"q": curve.q},
    }
    if digest is not None:
        doc["provenance"] = {
            "tool_version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "input_digest": f"sha256:{digest}",
        }
    return doc


def document_to_json(doc: dict) -> str:
    """Exactly ``json.dumps(doc, indent=2) + "\\n"`` for a report document:
    the join of :func:`json_pieces`."""
    return "".join(json_pieces(doc))


def json_pieces(doc: dict) -> Iterator[str]:
    """``json.dumps(doc, indent=2) + "\\n"`` in pieces for a report document
    from :func:`build_document`, :data:`_WRITE_BLOCK` shares to a piece.

    Before Python 3.13, :mod:`json` falls back to its pure-Python encoder
    when ``indent`` is set, and would spend nearly all its time on the
    Lorenz shares ``q``. So json writes the document with ``q`` empty, and
    the shares are spliced in a block at a time by
    :func:`sagini._repr.rows_text`, as :mod:`json` spells them. A nan or
    an inf raises :class:`ValueError`.
    """
    q = doc["lorenz"]["q"]
    skeleton = {**doc, "lorenz": {**doc["lorenz"], "q": []}}
    blocks = (_text("      %s", [q[cut]], ",\n") for cut in _cuts(len(q), 1))
    yield from _spliced(skeleton, "q", blocks)


def _spliced(skeleton: dict, key: str, blocks: Iterable[str]) -> Iterator[str]:
    """``json.dumps(skeleton, indent=2) + "\\n"`` in pieces, with the empty
    list of the first ``key`` in ``skeleton`` filled by ``blocks``: each the
    text of a run of the list's items, indented as json indents them and
    joined by ``",\\n"``.

    The first piece holds the text ahead of the list and the first block.
    A nan or an inf in ``skeleton`` raises :class:`ValueError`.
    """
    text = json.dumps(skeleton, indent=2, allow_nan=False)
    head, tail = text.split(f'"{key}": []', 1)
    opening = head + f'"{key}": [\n'
    for block in blocks:
        yield opening + block
        opening = ",\n"
    # With no items, nothing has been written, and json's "[]" stands. The
    # list closes at the indent of its key's line.
    closing = "\n" + head[head.rfind("\n") + 1 :] + "]"
    yield (closing + tail if opening == ",\n" else text) + "\n"


def _cuts(rows: int, floats: int) -> Iterator[slice]:
    """Slices of ``range(rows)``, in order, for rows of ``floats`` floats:
    each a piece of at most :data:`_WRITE_BLOCK` floats, or of one row."""
    step = max(1, _WRITE_BLOCK // floats)
    return (slice(start, start + step) for start in range(0, rows, step))


def _text(template: str, columns: list, sep: str = "") -> str:
    """:func:`sagini._repr.rows_text`, imported on first use: it builds its
    tables when it loads, and a command that writes no float needs neither."""
    from ._repr import rows_text

    return rows_text(template, columns, sep)


def document_to_csv(doc: dict) -> str:
    """The join of :func:`csv_pieces`."""
    return "".join(csv_pieces(doc))


def csv_pieces(doc: dict) -> Iterator[str]:
    """The CSV report: a ``key,value`` table, then ``i,p,q`` rows,
    :data:`_WRITE_BLOCK` floats, p and q, to a piece, floats as ``repr``
    writes them. A nan or an inf raises :class:`ValueError`."""
    flat = {
        "schema_version": doc["schema_version"],
        "n": doc["input"]["n"],
        "mean": doc["input"]["mean"],
        "min": doc["input"]["min"],
        "max": doc["input"]["max"],
        "total": doc["input"]["total"],
        **{k: v for k, v in doc["indices"].items()},
    }
    lines = ["key,value", *(f"{key},{_csv_value(value)}" for key, value in flat.items()), "i,p,q"]
    yield "\n".join(lines) + "\n"
    # i / n is the correctly rounded quotient, as LorenzCurve.p is: a report
    # has n below 2**53, where the float64 i and n are exact.
    n = doc["input"]["n"]
    q = doc["lorenz"]["q"]
    for cut in _cuts(len(q), 2):
        i = np.arange(cut.start + 1, min(cut.stop, len(q)) + 1, dtype=np.uint64)
        yield _text("%s,%s,%s\n", [i, i / n, q[cut]])


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not np.isfinite(value):
            raise ValueError(f"a float field holds a nan or an inf: {value!r}")
        return repr(value)
    return str(value)


def document_to_text(doc: dict) -> str:
    def fmt(value) -> str:
        return "n/a" if value is None else f"{value:.6f}"

    inp = doc["input"]
    idx = doc["indices"]
    lines = [
        f"observations (n): {inp['n']}",
        f"mean:             {fmt(inp['mean'])}",
        f"min:              {fmt(inp['min'])}",
        f"max:              {fmt(inp['max'])}",
        f"total:            {fmt(inp['total'])}",
        f"gini:             {idx['gini']:.6f}",
        f"g_right:          {idx['g_right']:.6f}",
        f"g_left:           {idx['g_left']:.6f}",
        f"sag:              {idx['sag']:.6f}",
        f"skew direction:   {idx['skew_direction']}",
        f"convex curve:     {'yes' if idx['convex'] else 'no'}",
        "",
        "(6-decimal display; the JSON output is authoritative)",
    ]
    return "\n".join(lines) + "\n"


#: The fields of a sweep row, in order.
_SWEEP_FIELDS = tuple(f.name for f in fields(SweepRow))
#: One sweep row as ``json.dumps(doc, indent=2)`` writes it inside ``rows``,
#: with a ``%s`` for each field of the row in turn.
_SWEEP_ROW = "    {\n" + ",\n".join(f'      "{name}": %s' for name in _SWEEP_FIELDS) + "\n    }"


def sweep_to_json(result: SweepResult) -> str:
    """Exactly ``json.dumps(doc, indent=2) + "\\n"`` for the sweep document:
    the join of :func:`sweep_json_pieces`."""
    return "".join(sweep_json_pieces(result))


def sweep_json_pieces(result: SweepResult) -> Iterator[str]:
    """``json.dumps(doc, indent=2) + "\\n"`` in pieces for the sweep document
    ``{"config": ..., "rows": [...], "summary": ...}``, in the pieces of
    rows of :func:`_sweep_blocks`. A nan or an inf raises
    :class:`ValueError`."""
    config = result.config
    plan = {name: getattr(config, name) for name in ("family", "sample_size", "replications", "seed")}
    params = dict(sorted(config.params.items()))
    skeleton = {"config": {**plan, "params": params}, "rows": [], "summary": result.summary}
    blocks = (_text(_SWEEP_ROW, block, ",\n") for block in _sweep_blocks(result, json.dumps))
    yield from _spliced(skeleton, "rows", blocks)


def sweep_to_csv(result: SweepResult) -> str:
    """The join of :func:`sweep_csv_pieces`."""
    return "".join(sweep_csv_pieces(result))


def sweep_csv_pieces(result: SweepResult) -> Iterator[str]:
    """The sweep as CSV in pieces: a header, the rows in the pieces of
    :func:`_sweep_blocks`, floats as ``repr`` writes them, and a line per
    summary value. A nan or an inf raises :class:`ValueError`."""
    yield ",".join(_SWEEP_FIELDS) + "\n"
    template = ",".join(["%s"] * len(_SWEEP_FIELDS)) + "\n"
    for block in _sweep_blocks(result, str):
        yield _text(template, block)
    for metric, values in result.summary.items():
        yield "".join(f"summary,{metric},{stat},{_csv_value(value)}\n" for stat, value in values.items())


def _sweep_blocks(result: SweepResult, spell) -> Iterator[list]:
    """The columns of each block of 1638 sweep rows (:func:`_cuts`), as
    :func:`sagini._repr.rows_text` takes them for :data:`_SWEEP_FIELDS`:
    the index, the five float fields and the skew calls, spelled by ``spell``.
    ``rows_text`` raises :class:`ValueError` on a nan or an inf, and so
    does this on ragged columns, whose extra values no block would reach."""
    floats = [result.columns[name] for name in _SWEEP_FIELDS[1:-1]]
    if result.skew.ndim != 1 or any(column.shape != result.skew.shape for column in floats):
        raise ValueError("a sweep's columns must all be 1-D and as long as its skew codes")
    words = [spell(call) for call in get_args(SkewDirection)]
    index = np.arange(len(result.skew), dtype=np.uint64)
    for cut in _cuts(len(index), len(floats)):
        yield [index[cut], *(column[cut] for column in floats), (result.skew[cut], words)]
