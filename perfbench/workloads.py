"""Child process of one workload run: a closed loop of ops, timed in-process.

Usage: python3 perfbench/workloads.py JOB.json

The job file names the workload, the seed, the seconds to measure, whether
to trace, the ``src`` directory to import sagini from, the input files and
a work directory for outputs. One client runs one op at a time; each op starts when
the previous one ends. Op 0 is a warm-up whose outputs are kept for the
oracle; every later op must reproduce its digest. A reference slice runs
after every command (or library call) and scales its time to a fixed host
speed (see ``reference.py``). The result goes to ``result.json`` in the work
directory.

The CLI workloads call ``sagini.cli.main(args, standalone_mode=False)`` in
this process, writing with ``-o`` to a file in the work directory, so any
change inside the commands shows up in the timings.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from inputs import SWEEP_N, SWEEP_REPS
from reference import scaled, slice_seconds
from tracer import CLI, Tracer, per_op_layers


class OpFailed(Exception):
    """A command exited non-zero."""


def _invoke(argv: list[str]) -> None:
    from sagini import cli

    try:
        code = cli.main(argv, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    if code not in (None, 0):
        raise OpFailed(f"sagini {argv[0]} exited with {code}")


def build(job: dict, work: Path, tracer: Tracer | None):
    """Return the steps of one op, a hook run after it, and its output files.

    A step is ``step(traced)``; the CLI workloads have one step per command.
    """
    workload = job["workload"]
    if workload == "kernel_1e6":
        import numpy as np
        from sagini import metrics

        values = np.load(job["files"]["values"])
        out = work / "report.json"

        def kernel(traced):
            # Attribute lookups at call time, so the tracer's rebinding applies.
            result = metrics.report(metrics.build_dataset(values))
            return {"n": result.n, "gini": result.gini, "g_right": result.g_right,
                    "g_left": result.g_left, "sag": result.sag,
                    "skew_direction": result.skew_direction, "convex": result.convex}

        def finish(fields):
            out.write_text(json.dumps(fields) + "\n", encoding="utf-8")

        return [kernel], finish, {"report": out}

    if workload == "sweep_small_n":
        outputs = {"sweep": work / "sweep.json"}
        commands = [["simulate", "--dist", "lognormal", "--n", str(SWEEP_N),
                     "--reps", str(SWEEP_REPS), "--seed", str(job["seed"]),
                     "-f", "json", "-o", str(outputs["sweep"])]]
    elif workload == "cli_compute_2e5":
        outputs = {"compute": work / "compute.json"}
        commands = [["compute", "-i", job["files"]["csv"], "--header", "-c", "income",
                     "-f", "json", "--no-provenance", "-o", str(outputs["compute"])]]
    elif workload == "cli_points_1e5":
        points = job["files"]["points"]
        outputs = {"compute": work / "points.json", "svg": work / "points.svg",
                   "ascii": work / "points.txt"}
        commands = [
            ["compute", "-i", points, "--from-lorenz", "-f", "json", "--no-provenance",
             "-o", str(outputs["compute"])],
            ["lorenz", "-i", points, "--from-lorenz", "--style", "svg", "-o", str(outputs["svg"])],
            ["lorenz", "-i", points, "--from-lorenz", "--style", "ascii",
             "-o", str(outputs["ascii"])],
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    def command(argv):
        def step(traced):
            with tracer.span(CLI) if traced else nullcontext():
                _invoke(argv)

        return step

    return [command(argv) for argv in commands], lambda _: None, outputs


def _digest(paths: dict[str, Path]) -> tuple[str, int]:
    """sha256 over the outputs (one file: its own digest) and their total size."""
    digests = {}
    size = 0
    for name, path in paths.items():
        with open(path, "rb") as fh:
            digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()
        size += path.stat().st_size
    if len(digests) == 1:
        return next(iter(digests.values())), size
    joined = "".join(f"{name}:{d}\n" for name, d in digests.items())
    return hashlib.sha256(joined.encode()).hexdigest(), size


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import sagini.cli  # loads every sagini module, which the tracer patches

    if not Path(sagini.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported sagini from {sagini.__file__}, not from {src}")
    work = Path(job["work"])
    tracer = Tracer() if job["trace"] else None
    steps, finish, outputs = build(job, work, tracer)

    ops = []
    before = slice_seconds()

    def one(index: int, traced: bool) -> None:
        """Run one op; a reference slice follows each step, outside its timing."""
        nonlocal before
        op = {"s": 0.0, "scaled_s": 0.0, "reference_s": [], "digest": None, "bytes": 0,
              "error": None, "traced": traced}
        if traced:
            tracer.op = index
            tracer.install()
        try:
            for step in steps:
                start = perf_counter()
                try:
                    result = step(traced)
                finally:
                    elapsed = perf_counter() - start
                    after = slice_seconds()
                    op["s"] += elapsed
                    op["scaled_s"] += scaled(elapsed, before, after)
                    op["reference_s"].append(after)
                    before = after
        except Exception:  # any failure of the program counts against the run
            op["error"] = traceback.format_exc(limit=-3)
        finally:
            if traced:
                tracer.uninstall()
        if op["error"] is None:
            finish(result)
            op["digest"], op["bytes"] = _digest(outputs)
        ops.append(op)

    one(0, False)
    for name, path in outputs.items():
        if path.exists():
            shutil.copyfile(path, work / f"op0-{path.name}")
    seconds = job["seconds"]
    start = perf_counter()
    index = 1
    # Traced and untraced ops alternate, so the overhead ratio compares ops
    # of the same process in the same warm state.
    while perf_counter() - start < seconds or (tracer is not None and index < 3):
        one(index, tracer is not None and index % 2 == 1)
        index += 1

    result = {
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "op0_outputs": {name: str(work / f"op0-{path.name}") for name, path in outputs.items()},
    }
    if tracer is not None:
        result["absent"] = tracer.absent
        result["layers"] = per_op_layers(tracer.spans)
        tracer.write(Path(job["spans_out"]))
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
