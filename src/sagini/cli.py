"""Command line: compute index reports, render Lorenz curves, run sweeps.

Exit codes partition failures: 0 success, 2 I/O or parse errors, 3 dataset
or Lorenz-point validation errors (the error class is named in the
message), 4 invalid experiment parameters.
"""

from __future__ import annotations

import os
import sys

import click

from . import __version__
from .errors import BadParamsError, ParseError, SaginiError
from .generators import FAMILIES, ExperimentConfig, sensitivity_sweep
from .io import (
    InputSpec,
    build_document,
    document_to_csv,
    document_to_json,
    document_to_text,
    read_lorenz_points,
    read_values,
    sweep_to_csv,
    sweep_to_json,
    values_stats,
)
from .metrics import (
    build_dataset,
    lorenz_curve,
    lorenz_from_points,
    metrics_from_lorenz,
    report,
)
from .plot import render_ascii, render_svg

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONFIG = 4

_INPUT_OPTIONS = [
    click.option(
        "--input-format",
        type=click.Choice(["csv", "tsv", "whitespace"]),
        default="csv",
        show_default=True,
        help="How input lines are split into columns.",
    ),
    click.option(
        "--column",
        "-c",
        default=None,
        help="Column to read: 1-based index or header name. "
        "Default: first numeric column.",
    ),
    click.option(
        "--header/--no-header",
        default=False,
        help="Treat the first row as a header.",
    ),
    click.option(
        "--from-lorenz",
        is_flag=True,
        help="Input holds two columns of (p, q) Lorenz points "
        "instead of raw values.",
    ),
]


def _with_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return wrap


def _fail(code: int, error: Exception | str) -> None:
    if isinstance(error, Exception):
        message = f"{type(error).__name__}: {error}"
    else:
        message = error
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _write_output(path: str, text: str) -> None:
    if path == "-":
        click.echo(text, nl=False)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(EXIT_PARSE, f"cannot write {path!r}: {exc}")


def _load_curve(path, input_format, column, header, from_lorenz):
    """Parse and validate one input into (curve, data, stats, digest).

    ``data`` (the :class:`Dataset`) and ``stats`` are None for Lorenz-point
    input, whose validated curve is all there is.
    """
    spec = InputSpec(path=path, format=input_format, column=column, header=header)
    if from_lorenz:
        points, digest = read_lorenz_points(spec)
        curve = lorenz_from_points(points)
        data = stats = None
    else:
        values, digest = read_values(spec)
        data = build_dataset(values)
        curve = lorenz_curve(data)
        stats = values_stats(values, data.total)
    if not curve.convex:
        click.echo(
            f"warning: {path}: Lorenz points are not convex; no sorted "
            "dataset produces this curve",
            err=True,
        )
    return curve, data, stats, digest


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="sagini")
def main() -> None:
    """Inequality indices that see asymmetry, not just dispersion."""


@main.command()
@click.option(
    "--input",
    "-i",
    "input_path",
    default="-",
    show_default=True,
    help="Input file, or '-' for stdin.",
)
@_with_options(_INPUT_OPTIONS)
@click.option(
    "--format",
    "-f",
    "out_format",
    type=click.Choice(["json", "csv", "text"]),
    default="json",
    show_default=True,
)
@click.option("--output", "-o", default="-", help="Output path, '-' for stdout.")
@click.option(
    "--no-provenance",
    is_flag=True,
    help="Omit the provenance block (timestamp, digest) for byte-stable output.",
)
def compute(
    input_path, input_format, column, header, from_lorenz, out_format, output, no_provenance
) -> None:
    """Compute gini, g_right, g_left, and sag for one input."""
    try:
        curve, data, stats, digest = _load_curve(
            input_path, input_format, column, header, from_lorenz
        )
        result = metrics_from_lorenz(curve) if data is None else report(data)
    except ParseError as exc:
        _fail(EXIT_PARSE, exc)
    except OSError as exc:
        _fail(EXIT_PARSE, f"cannot read {input_path!r}: {exc}")
    except SaginiError as exc:
        _fail(EXIT_VALIDATION, exc)
    doc = build_document(
        result,
        curve,
        input_stats=stats,
        digest=digest,
        tool_version=__version__,
        with_provenance=not no_provenance,
    )
    renderer = {
        "json": document_to_json,
        "csv": document_to_csv,
        "text": document_to_text,
    }[out_format]
    _write_output(output, renderer(doc))


@main.command()
@click.option(
    "--input",
    "-i",
    "input_paths",
    multiple=True,
    required=True,
    help="Input file (repeat to overlay curves), or '-' for stdin.",
)
@_with_options(_INPUT_OPTIONS)
@click.option(
    "--style",
    type=click.Choice(["svg", "ascii"]),
    default="svg",
    show_default=True,
)
@click.option("--output", "-o", default="-", help="Output path, '-' for stdout.")
def lorenz(input_paths, input_format, column, header, from_lorenz, style, output) -> None:
    """Render the Lorenz curve(s): diagonal, curve, shaded gap region."""
    if input_paths.count("-") > 1:
        _fail(
            EXIT_PARSE,
            "stdin ('-') can be read only once; pass '-' to --input at most once",
        )
    curves = []
    labels = []
    try:
        for path in input_paths:
            curve, _, _, _ = _load_curve(path, input_format, column, header, from_lorenz)
            curves.append(curve)
            labels.append(_label_for(path))
    except ParseError as exc:
        _fail(EXIT_PARSE, exc)
    except OSError as exc:
        _fail(EXIT_PARSE, f"cannot read input: {exc}")
    except SaginiError as exc:
        _fail(EXIT_VALIDATION, exc)
    text = render_svg(curves, labels) if style == "svg" else render_ascii(curves, labels)
    _write_output(output, text)


def _label_for(path: str) -> str:
    if path == "-":
        return "stdin"
    base = os.path.basename(path)
    return base.rsplit(".", 1)[0] or base


@main.command()
@click.option("--dist", type=click.Choice(list(FAMILIES)), required=True)
@click.option("--n", "sample_size", type=int, required=True, help="Observations per replication.")
@click.option("--reps", type=int, required=True, help="Number of replications.")
@click.option("--seed", type=int, required=True, help="64-bit generator seed (required; no silent nondeterminism).")
@click.option("--sigma", type=float, default=None, help="lognormal: shape parameter.")
@click.option("--alpha", type=float, default=None, help="pareto: tail exponent (> 1).")
@click.option("--low", type=float, default=None, help="uniform/triangular: lower bound.")
@click.option("--high", type=float, default=None, help="uniform/triangular: upper bound.")
@click.option(
    "--format",
    "-f",
    "out_format",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
)
@click.option("--output", "-o", default="-", help="Output path, '-' for stdout.")
def simulate(
    dist, sample_size, reps, seed, sigma, alpha, low, high, out_format, output
) -> None:
    """Replicate seeded random datasets and tabulate the four indices."""
    params = {
        key: value
        for key, value in (("sigma", sigma), ("alpha", alpha), ("low", low), ("high", high))
        if value is not None
    }
    try:
        config = ExperimentConfig(
            family=dist,
            sample_size=sample_size,
            replications=reps,
            seed=seed,
            params=params,
        )
        result = sensitivity_sweep(config)
    except BadParamsError as exc:
        _fail(EXIT_CONFIG, exc)
    except SaginiError as exc:
        _fail(EXIT_VALIDATION, exc)
    text = sweep_to_json(result) if out_format == "json" else sweep_to_csv(result)
    _write_output(output, text)


if __name__ == "__main__":
    main()
