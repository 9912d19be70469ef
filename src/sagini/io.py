"""Input parsing and report-document serialization for the CLI.

A number is what Python's ``float`` reads from the cell with surrounding
whitespace (any Unicode whitespace) stripped, restricted to ASCII and
without underscores: an optional sign, decimal digits with an optional
point and exponent, or ``inf``, ``infinity`` or ``nan`` in any case.
``1_000`` and non-ASCII digits such as ``"\u0663"`` are not numbers.
Comma decimals are a hard error, as are missing cells -- silently
dropping a row would change n and with it every index. Input is UTF-8 (a
leading byte-order mark is ignored); undecodable bytes are a parse error
naming their line.

Both readers return float64 arrays: :func:`read_values` one value per
row, :func:`read_lorenz_points` an ``(n, 2)`` array of ``(p, q)`` rows.
They share one read path, and both of its parsers one layout step,
:func:`_layout`: the header's line number and the columns to read. Input
without data rows, with or without a header, is an empty table, which
validation rejects. The fast parser is numpy's C reader
:func:`numpy.loadtxt`, which converts only the needed columns. Its float
parser reads the same grammar and gives the same values: it strips
Unicode whitespace padding, so padded cells stay on the fast path, and
rejects underscores and non-ASCII digits. A cheap pre-screen of the raw
bytes sends to the line-by-line parser any input holding a quote, a NUL
or a line break other than ``\n`` and ``\r\n``, or a line longer than
the csv module's field limit; so do invalid UTF-8 and any error
:func:`numpy.loadtxt` raises. Every input, whatever its encoding, line
ends or byte-order mark, takes that one screen without being decoded
whole. The line parser gives the same values and is the only source of
parse errors and their line numbers.

On the fast path memory is bounded by blocks, not by the number of rows.
``loadtxt`` reads the lines as they are decoded, :data:`_READ_BLOCK`
bytes of whole lines at a time, so a read holds the input's bytes, one
block of lines and the table. The line parser is not bounded: it holds
the decoded text, its lines and every row's cells, over 20 times the
input on a large table. The writers yield the report in pieces of
:data:`_WRITE_BLOCK` shares or rows, which the CLI writes in turn;
``document_to_json``, ``document_to_csv`` and ``sweep_to_json`` are the
joins of the same pieces. On 1e6 rows, ``compute`` to JSON peaks at
about 98 MB RSS, 64 MB above the interpreter with its imports, and takes
about 2 s on a 2-core host.

The report document (schema ``"2"``) holds ``schema_version``, ``input``,
``indices``, ``lorenz.q`` and an optional ``provenance`` block. The grid
``p_i = i/n`` is implied by ``input.n`` and not written; CSV output
writes it as ``i / n``. JSON output uses shortest round-trip float
formatting (15+ significant digits) and is byte-identical to
``json.dumps(doc, indent=2)``; text output is fixed to 6 decimals and
says so.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .errors import ParseError
from .metrics import Dataset, InequalityReport, LorenzCurve

SCHEMA_VERSION = "2"

_FORMATS = ("csv", "tsv", "whitespace")
_DELIMITERS = {"csv": ",", "tsv": "\t"}

#: Characters :meth:`str.splitlines` breaks lines at, besides ``\n``,
#: ``\r\n`` and a lone ``\r``, in UTF-8: the ASCII ones and those beyond
#: ASCII. Input holding any of them takes the line-by-line parser.
_OTHER_BREAKS = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
_WIDE_BREAKS = tuple(brk.encode() for brk in ("\x85", "\u2028", "\u2029"))

_BOM = "\ufeff".encode()

#: Bytes of input decoded at a time by the fast reader, rounded up to whole
#: lines.
_READ_BLOCK = 1 << 18

#: List items, Lorenz shares or sweep rows, that a writer puts in one piece.
_WRITE_BLOCK = 8192


@dataclass(frozen=True)
class InputSpec:
    """Where and how to read one column of numbers.

    ``column`` is a 1-based index or a header name; None selects the first
    numeric column of the first data row. ``path`` of "-" reads stdin.
    """

    path: str = "-"
    format: str = "csv"  # csv | tsv | whitespace
    column: int | str | None = None
    header: bool = False


def _read_raw(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _decode(raw: bytes) -> str:
    """UTF-8 text with any leading byte-order mark removed."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Everything before the bad byte decoded; the sentinel character
        # makes a trailing line break start the line the byte is on.
        lineno = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(
            f"line {lineno}: byte {raw[exc.start]:#04x} is not valid UTF-8"
        ) from None
    return text.removeprefix("\ufeff")


def _rows(lines: Iterable[str], fmt: str) -> Iterator[tuple[int, list[str]]]:
    """Split lazily into (1-based line number, cells); blank lines are dropped."""
    if fmt not in _FORMATS:
        raise ParseError(f"unknown input format {fmt!r}")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if fmt == "whitespace":
            cells = line.split()
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


def read_values(spec: InputSpec) -> tuple[np.ndarray, str]:
    """Read one numeric column; returns (float64 values, sha256 hex of raw bytes)."""
    return _read_table(spec, points=False)


def read_lorenz_points(spec: InputSpec) -> tuple[np.ndarray, str]:
    """Read two-column (p, q) points; returns (an (n, 2) float64 array, sha256 hex).

    Points are always the first two columns, so a ``spec.column`` is a
    :class:`ParseError`, raised before anything is read.
    """
    if spec.column is not None:
        raise ParseError(
            f"--column {spec.column!r} does not apply to --from-lorenz input, "
            "which is read as (p, q) from the first two columns"
        )
    return _read_table(spec, points=True)


def _read_table(spec: InputSpec, points: bool) -> tuple[np.ndarray, str]:
    """The one read path of :func:`read_values` and :func:`read_lorenz_points`."""
    raw = _read_raw(spec.path)
    digest = hashlib.sha256(raw).hexdigest()
    table = _loadtxt(raw, spec, points)
    if table is None:
        table = _line_table(_decode(raw), spec, points)
    return table, digest


def _layout(
    rows: Iterator[tuple[int, list[str]]], spec: InputSpec, points: bool
) -> tuple[int, tuple[int, ...]] | None:
    """The header's line number (0 without a header) and the 0-based columns
    to read: ``(0, 1)`` for points, else the one :func:`_resolve_column`
    selects. None for a table without data rows.

    ``rows`` is read only as far as the first data row.
    """
    skip, names = 0, None
    if spec.header:
        header = next(rows, None)
        if header is None:
            return None
        skip, cells = header
        names = [cell.strip() for cell in cells]
    first = next(rows, None)
    if first is None:
        return None
    return skip, (0, 1) if points else (_resolve_column(spec, names, first),)


def _loadtxt(data: bytes, spec: InputSpec, points: bool) -> np.ndarray | None:
    """The selected column, or the (p, q) columns if ``points``, read by
    :func:`numpy.loadtxt` from the raw input ``data``; None leaves the
    input to the line parser.

    The screen runs on the bytes, which UTF-8 makes exact: no byte of a
    multi-byte character is ASCII. It sends on what ``loadtxt`` reads
    differently from :func:`_rows`: a quote, a NUL, a line break other than
    ``\n`` or ``\r\n`` and a line beyond the csv module's field limit. The
    breaks beyond ASCII are searched for only in non-ASCII input. What the
    screen leaves, :func:`_lines` finds as it decodes: invalid UTF-8 and a
    lone ``\r``. Like every other ``ValueError`` on the way, including an
    unknown format from :func:`_rows`, they leave the input to the line
    parser, which names the line.

    ``loadtxt`` reads one stream of lines, decoded a block of
    :data:`_READ_BLOCK` bytes at a time, so beyond the table itself it
    holds one block's lines. The layout comes from :func:`_rows` on the
    same lines, read only as far as the first data row; ``skiprows`` is the
    header's line number, so blank lines before the header go with it.
    ``loadtxt`` skips other blank lines and rejects a whitespace-only cell.
    It warns on input without data rows, so it never sees one: that is an
    empty table.
    """
    fmt = spec.format
    if b'"' in data or b"\x00" in data or any(brk in data for brk in _OTHER_BREAKS):
        return None
    # A break's lead byte alone is found some 20 times faster than the
    # whole sequence, and most non-ASCII input holds none.
    if not data.isascii() and any(brk[:1] in data and brk in data for brk in _WIDE_BREAKS):
        return None
    if fmt != "whitespace" and _has_line_over(data, csv.field_size_limit()):
        return None
    try:
        layout = _layout(_rows(_lines(data), fmt), spec, points)
        if layout is None:
            return np.empty((0, 2) if points else 0)
        skip, usecols = layout
        return np.loadtxt(
            _lines(data),
            delimiter=_DELIMITERS.get(fmt),
            usecols=usecols,
            skiprows=skip,
            comments=None,
            dtype=float,
            ndmin=len(usecols),
        )
    except ValueError:
        return None


def _lines(data: bytes) -> Iterator[str]:
    """The lines of ``data`` after any byte-order mark, without their
    ``\n`` or ``\r\n``, as ``text.split("\n")`` gives them but for a last
    empty line. They are decoded lazily in blocks of whole lines, each
    :data:`_READ_BLOCK` bytes or more.

    Invalid UTF-8 raises :class:`UnicodeDecodeError` and a lone ``\r``
    :class:`ValueError` when their block is decoded.
    """
    return chain.from_iterable(map(_block_lines, _blocks(data)))


def _block_lines(block: bytes) -> list[str]:
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
        if b"\r" in block:
            raise ValueError("a line break other than \\n or \\r\\n")
    return block.decode().removesuffix("\n").split("\n")


def _blocks(data: bytes) -> Iterator[bytes]:
    start = len(_BOM) if data.startswith(_BOM) else 0
    while start < len(data):
        end = data.find(b"\n", start + _READ_BLOCK - 1) + 1
        end = end or len(data)
        yield data[start:end]
        start = end


def _has_line_over(data: bytes, limit: int) -> bool:
    """Whether a line of ``data`` is longer than ``limit`` bytes.

    Such a line holds a whole window ``[k*step, (k+1)*step)`` with ``step =
    limit // 2``, so only lines holding a window without a ``\n`` are
    measured: a scan of ``len(data) / step`` short searches, with no copy.
    """
    step = max(limit // 2, 1)
    for start in range(0, len(data), step):
        if data.find(b"\n", start, start + step) < 0:
            begin = data.rfind(b"\n", 0, start) + 1
            end = data.find(b"\n", start)
            if (len(data) if end < 0 else end) - begin > limit:
                return True
    return False


def _line_table(text: str, spec: InputSpec, points: bool) -> np.ndarray:
    """What :func:`_loadtxt` reads, parsed line by line; errors name their line."""
    rows = list(_rows(text.splitlines(), spec.format))
    layout = _layout(iter(rows), spec, points)
    values = []
    if layout is not None:
        _, usecols = layout
        width = max(usecols) + 1
        for lineno, cells in rows[1:] if spec.header else rows:
            if len(cells) < width:
                raise ParseError(
                    f"line {lineno}: need two columns (p, q), got {len(cells)}"
                    if points
                    else f"line {lineno}: only {len(cells)} column(s), need column {width}"
                )
            values.extend(_parse_cell(cells[col], lineno, col + 1) for col in usecols)
    table = np.array(values, dtype=float)
    return table.reshape(-1, 2) if points else table


def build_document(
    result: InequalityReport,
    curve: LorenzCurve,
    *,
    data: Dataset | None,
    digest: str | None,
    with_provenance: bool = True,
) -> dict:
    """Assemble the report document (JSON-ready plain dict).

    ``lorenz`` holds only the shares ``q``, n of them with ``q_n = 1``;
    ``p_i = i/n`` follows from ``input.n``. ``data``, the dataset behind a
    raw-value report, supplies the input's mean, min, max and total; it is
    None for Lorenz-point input, where only n is known and the rest are
    null.
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
        "lorenz": {"q": curve.q.tolist()},
    }
    if with_provenance:
        doc["provenance"] = {
            "tool_version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "input_digest": f"sha256:{digest}" if digest else None,
        }
    return doc


def document_to_json(doc: dict) -> str:
    """Exactly ``json.dumps(doc, indent=2) + "\\n"``: the join of
    :func:`json_pieces`."""
    return "".join(json_pieces(doc))


def json_pieces(value) -> Iterator[str]:
    """``json.dumps(value, indent=2) + "\\n"`` in pieces, built faster; a
    list is written :data:`_WRITE_BLOCK` items to a piece.

    Before Python 3.13, :mod:`json` falls back to its pure-Python encoder
    when ``indent`` is set, and spends nearly all its time on the Lorenz
    array ``q``. A block of floats such as ``q`` holds is written here by
    joining ``float.__repr__`` -- what :mod:`json` itself uses for a finite
    float -- with the separator it would put between them; everything else
    still goes through :func:`json.dumps`.
    """
    yield from _json_at(value, 0)
    yield "\n"


def _json_at(value, level: int) -> Iterator[str]:
    """``json.dumps(value, indent=2)`` as it reads nested ``level`` deep."""
    close = "\n" + "  " * level
    indent = close + "  "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        opening = "{" + indent
        for key, item in value.items():
            yield f"{opening}{json.dumps(key)}: "
            yield from _json_at(item, level + 1)
            opening = "," + indent
        yield close + "}"
    elif isinstance(value, list) and value:
        opening = "[" + indent
        for block in _write_blocks(value):
            try:
                body = ("," + indent).join(map(float.__repr__, block))
            except TypeError:
                body = None  # not all floats
            # Among float reprs only "nan", "inf" and "-inf" hold an "n";
            # json spells those differently.
            if body is None or "n" in body:
                body = ("," + indent).join(
                    "".join(_json_at(item, level + 1)) for item in block
                )
            yield opening + body
            opening = "," + indent
        yield close + "]"
    else:
        # A JSON string never holds a raw line break, so every "\n" in the
        # encoding starts an indented line.
        yield json.dumps(value, indent=2).replace("\n", close)


def _write_blocks(items: Sequence) -> Iterator[Sequence]:
    for start in range(0, len(items), _WRITE_BLOCK):
        yield items[start : start + _WRITE_BLOCK]


def document_to_csv(doc: dict) -> str:
    """The join of :func:`csv_pieces`."""
    return "".join(csv_pieces(doc))


def csv_pieces(doc: dict) -> Iterator[str]:
    """The CSV report: a ``key,value`` table, then ``i,p,q`` rows,
    :data:`_WRITE_BLOCK` of them to a piece."""
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
    # i / n is the correctly rounded quotient, as LorenzCurve.p is.
    n = doc["input"]["n"]
    q = doc["lorenz"]["q"]
    for start in range(0, len(q), _WRITE_BLOCK):
        block = q[start : start + _WRITE_BLOCK]
        yield "".join([f"{i},{i / n!r},{x!r}\n" for i, x in enumerate(block, start + 1)])


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
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


#: One sweep row as ``json.dumps(doc, indent=2)`` writes it inside ``rows``.
_SWEEP_ROW = """\
    {{
      "rep_index": {},
      "gini": {},
      "g_right": {},
      "g_left": {},
      "sag": {},
      "sag_minus_gini": {},
      "skew_direction": {}
    }}"""


def sweep_to_json(result) -> str:
    """Exactly ``json.dumps(doc, indent=2) + "\\n"`` for the sweep document:
    the join of :func:`sweep_json_pieces`."""
    return "".join(sweep_json_pieces(result))


def sweep_json_pieces(result) -> Iterator[str]:
    """``json.dumps(doc, indent=2) + "\\n"`` in pieces, built faster, for the
    sweep document ``{"config": ..., "rows": [...], "summary": ...}``;
    :data:`_WRITE_BLOCK` rows to a piece.

    ``config`` and ``summary`` go through :func:`json.dumps`. Each row is
    written into :data:`_SWEEP_ROW` with ``float.__repr__``, what
    :mod:`json` itself uses for a finite float, as :func:`json_pieces`
    does for the Lorenz array. A block of rows holding a nan or an
    infinity, which json spells differently, goes through
    :func:`json.dumps` too.
    """
    doc = {
        "config": {
            "family": result.config.family,
            "sample_size": result.config.sample_size,
            "replications": result.config.replications,
            "seed": result.config.seed,
            "params": dict(sorted(result.config.params.items())),
        },
        "rows": [],
        "summary": result.summary,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if not result.rows:
        yield text
        return
    head, tail = text.split('"rows": []', 1)
    opening = head + '"rows": [\n'
    for block in _write_blocks(result.rows):
        rows = ",\n".join(
            [
                _SWEEP_ROW.format(
                    row.rep_index,
                    *map(
                        float.__repr__,
                        (row.gini, row.g_right, row.g_left, row.sag, row.sag_minus_gini),
                    ),
                    json.encoder.encode_basestring_ascii(row.skew_direction),
                )
                for row in block
            ]
        )
        # Every float is followed by ",\n"; its repr ends in a digit unless
        # it is "nan", "inf" or "-inf".
        if "n,\n" in rows or "f,\n" in rows:
            rows = ",\n".join("    " + "".join(_json_at(asdict(row), 2)) for row in block)
        yield opening + rows
        opening = ",\n"
    yield "\n  ]" + tail


def sweep_to_csv(result) -> str:
    lines = ["rep_index,gini,g_right,g_left,sag,sag_minus_gini,skew_direction"]
    for row in result.rows:
        lines.append(
            f"{row.rep_index},{row.gini!r},{row.g_right!r},{row.g_left!r},"
            f"{row.sag!r},{row.sag_minus_gini!r},{row.skew_direction}"
        )
    for metric, stats in result.summary.items():
        for stat, value in stats.items():
            lines.append(f"summary,{metric},{stat},{value!r}")
    return "\n".join(lines) + "\n"
