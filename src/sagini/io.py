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
There is one fast reader, numpy's C reader :func:`numpy.loadtxt`, which
converts only the needed columns. Its float parser reads the same grammar
and gives the same values: it strips Unicode whitespace padding, so
padded cells stay on the fast path, and rejects underscores and
non-ASCII digits. A cheap pre-screen sends to the line-by-line parser
any text holding a quote, a NUL or a line break other than ``\n`` and
``\r\n``, a blank first line, a line longer than the csv module's field
limit, or no data row among its first three lines; so does any error
:func:`numpy.loadtxt` raises. The line parser gives the same values and
is the only source of parse errors and their line numbers.

JSON output uses shortest round-trip float formatting (15+ significant
digits) and is byte-identical to ``json.dumps(doc, indent=2)``; text
output is fixed to 6 decimals and says so.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import ParseError
from .metrics import Dataset, InequalityReport, LorenzCurve

SCHEMA_VERSION = "1"

_FORMATS = ("csv", "tsv", "whitespace")
_DELIMITERS = {"csv": ",", "tsv": "\t"}

#: Characters :meth:`str.splitlines` breaks lines at, besides ``\n`` and
#: ``\r\n``; text holding any of them takes the line-by-line parser.
_OTHER_BREAKS = ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


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


def _rows(text: str, fmt: str) -> list[tuple[int, list[str]]]:
    """Split into (1-based line number, cells); blank lines are dropped."""
    if fmt not in _FORMATS:
        raise ParseError(f"unknown input format {fmt!r}")
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if fmt == "whitespace":
            cells = line.split()
        else:
            try:
                cells = next(csv.reader([line], delimiter=_DELIMITERS[fmt]))
            except csv.Error as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        out.append((lineno, cells))
    return out


def _in_grammar(text: str) -> bool:
    """False if ``text`` holds an underscore or a non-ASCII character.

    ``float`` reads digit-group underscores (``1_000``) and non-ASCII
    digits; the input grammar has neither. Applied to one stripped cell:
    the fast reader's float parser rejects both on its own.
    """
    return text.isascii() and "_" not in text


def _parse_cell(cell: str, lineno: int, colno: int) -> float:
    text = cell.strip()
    if not text:
        raise ParseError(f"line {lineno}, column {colno}: missing value")
    if _in_grammar(text):
        try:
            return float(text)
        except ValueError:
            if "," in text:
                raise ParseError(
                    f"line {lineno}, column {colno}: {cell!r} uses a comma "
                    "decimal separator; use a decimal point"
                ) from None
    raise ParseError(f"line {lineno}, column {colno}: {cell!r} is not a number")


def _is_numeric(cell: str) -> bool:
    text = cell.strip()
    if not _in_grammar(text):
        return False
    try:
        float(text)
        return True
    except ValueError:
        return False


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
        if cell.strip() and _is_numeric(cell):
            return idx
    for idx, cell in enumerate(cells):
        if "," in cell and _is_numeric(cell.replace(",", ".")):
            raise ParseError(
                f"line {lineno}, column {idx + 1}: {cell!r} uses a comma "
                "decimal separator; use a decimal point"
            )
    raise ParseError(f"line {lineno}: no numeric column found")


def read_values(spec: InputSpec) -> tuple[np.ndarray, str]:
    """Read one numeric column; returns (float64 values, sha256 hex of raw bytes)."""
    raw = _read_raw(spec.path)
    digest = hashlib.sha256(raw).hexdigest()
    text = _decode(raw)
    values = _loadtxt(text, spec, points=False)
    if values is None:
        values = _line_values(text, spec)
    return values, digest


def _loadtxt(text: str, spec: InputSpec, points: bool) -> np.ndarray | None:
    """The selected column, or the (p, q) columns if ``points``, read by
    :func:`numpy.loadtxt`; None leaves the text to the line parser.

    The pre-screen sends on what ``loadtxt`` reads differently from
    :func:`_rows`: a quote, a NUL, a line break other than ``\n`` or
    ``\r\n``, a blank first line (``skiprows`` counts it, :func:`_rows`
    drops it) and a line beyond the csv module's field limit. ``loadtxt``
    warns on input without data, so it never sees a header alone: that is
    an empty table, or left to the line parser if data may follow the
    first three lines. Later blank lines need no check: ``loadtxt`` skips
    empty lines and rejects a whitespace-only cell.
    """
    fmt = spec.format
    if fmt not in _FORMATS or '"' in text or "\x00" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if any(brk in text for brk in _OTHER_BREAKS):
        return None
    if fmt != "whitespace" and _longest_line(text) > csv.field_size_limit():
        return None
    # loadtxt reads any source line by line; a StringIO would first copy the
    # text at four bytes a character, a list of lines does not.
    lines = text.split("\n")
    if not lines[0].strip():
        return None
    rows = _rows("\n".join(lines[:3]), fmt)
    skip = int(spec.header)
    if len(rows) <= skip:  # a header and no data row in the first three lines
        return None if len(lines) > 3 else np.empty((0, 2) if points else 0)
    usecols, ndmin = (0, 1), 2
    if not points:
        names = [cell.strip() for cell in rows[0][1]] if skip else None
        try:
            usecols, ndmin = _resolve_column(spec, names, rows[skip]), 1
        except ParseError:
            return None
    try:
        return np.loadtxt(
            lines,
            delimiter=_DELIMITERS.get(fmt),
            usecols=usecols,
            skiprows=skip,
            comments=None,
            dtype=float,
            ndmin=ndmin,
        )
    except ValueError:
        return None


def _longest_line(text: str) -> int:
    """The longest line's length in UTF-8 bytes, never less than in characters."""
    data = np.frombuffer(text.encode(), np.uint8)
    breaks = np.flatnonzero(data == ord("\n"))
    return int(np.diff(breaks, prepend=-1, append=data.size).max()) - 1


def _line_values(text: str, spec: InputSpec) -> np.ndarray:
    rows = _rows(text, spec.format)
    names: list[str] | None = None
    if spec.header:
        if not rows:
            raise ParseError("header requested but the input is empty")
        names = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
    if not rows:
        return np.empty(0)
    col = _resolve_column(spec, names, rows[0])
    values = []
    for lineno, cells in rows:
        if col >= len(cells):
            raise ParseError(
                f"line {lineno}: only {len(cells)} column(s), "
                f"need column {col + 1}"
            )
        values.append(_parse_cell(cells[col], lineno, col + 1))
    return np.array(values, dtype=float)


def read_lorenz_points(spec: InputSpec) -> tuple[np.ndarray, str]:
    """Read two-column (p, q) points; returns (an (n, 2) float64 array, sha256 hex)."""
    raw = _read_raw(spec.path)
    digest = hashlib.sha256(raw).hexdigest()
    text = _decode(raw)
    points = _loadtxt(text, spec, points=True)
    if points is None:
        points = _line_points(text, spec)
    return points, digest


def _line_points(text: str, spec: InputSpec) -> np.ndarray:
    rows = _rows(text, spec.format)
    if spec.header:
        rows = rows[1:]
    points = []
    for lineno, cells in rows:
        if len(cells) < 2:
            raise ParseError(
                f"line {lineno}: need two columns (p, q), got {len(cells)}"
            )
        p = _parse_cell(cells[0], lineno, 1)
        q = _parse_cell(cells[1], lineno, 2)
        points.append((p, q))
    return np.array(points, dtype=float).reshape(-1, 2)


def build_document(
    result: InequalityReport,
    curve: LorenzCurve,
    *,
    data: Dataset | None,
    digest: str | None,
    tool_version: str,
    with_provenance: bool = True,
) -> dict:
    """Assemble the report document (JSON-ready plain dict).

    ``data``, the dataset behind a raw-value report, supplies the input's
    mean, min, max and total; it is None for Lorenz-point input, where
    only n is known and the rest are null.
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
        "lorenz": {
            "p": curve.p.tolist(),
            "q": curve.q.tolist(),
        },
    }
    if with_provenance:
        doc["provenance"] = {
            "tool_version": tool_version,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "input_digest": f"sha256:{digest}" if digest else None,
        }
    return doc


def document_to_json(doc: dict) -> str:
    """Exactly ``json.dumps(doc, indent=2) + "\\n"``, built faster.

    With ``indent`` set, :mod:`json` falls back to its pure-Python encoder,
    which spends nearly all its time on the two Lorenz arrays. Those are
    written here by joining ``float.__repr__`` -- what :mod:`json` itself
    uses for a finite float -- with the separator it would put between
    them; everything else still goes through :func:`json.dumps`.
    """
    return _json_at(doc, 0) + "\n"


def _json_at(value, level: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads nested ``level`` deep."""
    close = "\n" + "  " * level
    indent = close + "  "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        items = (f"{json.dumps(k)}: {_json_at(v, level + 1)}" for k, v in value.items())
        return "{" + indent + ("," + indent).join(items) + close + "}"
    if isinstance(value, list) and value:
        try:
            body = ("," + indent).join(map(float.__repr__, value))
        except TypeError:
            body = None  # not all floats
        # Among float reprs only "nan", "inf" and "-inf" hold an "n";
        # json spells those differently.
        if body is not None and "n" not in body:
            return "[" + indent + body + close + "]"
    # A JSON string never holds a raw line break, so every "\n" in the
    # encoding starts an indented line.
    return json.dumps(value, indent=2).replace("\n", close)


def document_to_csv(doc: dict) -> str:
    lines = ["key,value"]
    flat = {
        "schema_version": doc["schema_version"],
        "n": doc["input"]["n"],
        "mean": doc["input"]["mean"],
        "min": doc["input"]["min"],
        "max": doc["input"]["max"],
        "total": doc["input"]["total"],
        **{k: v for k, v in doc["indices"].items()},
    }
    for key, value in flat.items():
        lines.append(f"{key},{_csv_value(value)}")
    lines.append("i,p,q")
    for i, (p, q) in enumerate(zip(doc["lorenz"]["p"], doc["lorenz"]["q"]), start=1):
        lines.append(f"{i},{p!r},{q!r}")
    return "\n".join(lines) + "\n"


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


def sweep_to_json(result) -> str:
    doc = {
        "config": {
            "family": result.config.family,
            "sample_size": result.config.sample_size,
            "replications": result.config.replications,
            "seed": result.config.seed,
            "params": dict(sorted(result.config.params.items())),
        },
        "rows": [
            {
                "rep_index": row.rep_index,
                "gini": row.gini,
                "g_right": row.g_right,
                "g_left": row.g_left,
                "sag": row.sag,
                "sag_minus_gini": row.sag_minus_gini,
                "skew_direction": row.skew_direction,
            }
            for row in result.rows
        ],
        "summary": result.summary,
    }
    return json.dumps(doc, indent=2) + "\n"


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
