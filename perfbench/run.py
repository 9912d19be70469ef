"""sagini benchmark: one workload run, printed as one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run builds the workload's inputs from the seed, times fresh imports of
``sagini.cli`` (``setup_s``), runs the closed loop in a child process of its
own, checks the warm-up op's outputs against the exact oracle and prints the
metrics ``BENCHMARK.json`` names: the end-to-end ones with ``--trace 0``,
the per-layer ones with ``--trace 1``. The last line of stdout is the
result; a run record with every op's time and output digest is written to
``.perfbench/runs/``, and the traced run's spans to ``.perfbench/traces/``.
It exits non-zero without a result when the checkout has no ``src/sagini``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import scaled, slice_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

WORKLOADS = ("kernel_1e6", "sweep_small_n", "cli_compute_2e5", "cli_points_1e5")
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 30
CHILD_TIMEOUT_S = 150

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import sagini.cli; "
    "print(repr(time.perf_counter() - t))"
)


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import ``sagini.cli``.

    Each import is scaled to the reference speed by the slices run just
    before and after it. One extra first import is dropped: it writes the
    bytecode cache, which users pay once per install, not per command.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    before = slice_seconds()
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER], env=env, cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        after = slice_seconds()
        samples.append(scaled(float(done.stdout), before, after))
        before = after
    return statistics.median(samples[1:])


def run_child(inputs, seconds: int, trace: bool, work: Path) -> dict:
    job = {
        "workload": inputs.workload, "seed": inputs.seed, "seconds": seconds, "trace": trace,
        "src": str(SRC), "work": str(work),
        "files": {role: str(path) for role, path in inputs.files.items()},
        "spans_out": str(STATE / "traces" / f"{inputs.workload}-seed{inputs.seed}.csv"),
    }
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), str(job_path)],
        cwd=ROOT, check=True, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S,
    )
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def layer_metrics(child: dict, values_per_op: int, reps: int) -> tuple[dict, str]:
    """Per-layer metrics (median per traced op) and the top self-time layer."""
    ops = child["ops"][1:]
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    per_op = [(op, child["layers"].get(str(i + 1), {})) for i, op in enumerate(ops) if op["traced"]]
    zero = [0, 0, 0, 0]

    def values(layers: dict, op: dict) -> dict:
        def total(name):
            return layers.get(name, zero)[0] / 1e9

        def own(name):
            return layers.get(name, zero)[1] / 1e9

        commands = layers.get("cli.main", zero)[2] or 1

        def calls(name):
            return layers.get(name, zero)[2] / commands

        metrics_ns = sum(acc[3] for name, acc in layers.items() if name.startswith("metrics."))
        return {
            "cli.self_s": own("cli.main"),
            "io.read_values.s": total("io.read_values"),
            "io.read_lorenz_points.s": total("io.read_lorenz_points"),
            "io.build_document.s": total("io.build_document"),
            "io.document_to_json.s": total("io.document_to_json"),
            "io.sweep_to_json.s": total("io.sweep_to_json"),
            "io.output_bytes": op["bytes"] if "cli.main" in layers else 0,
            "metrics.build_dataset.s": total("metrics.build_dataset"),
            "metrics.report.self_s": own("metrics.report"),
            "metrics.lorenz_curve.s": total("metrics.lorenz_curve"),
            "metrics.lorenz_curve.calls": calls("metrics.lorenz_curve"),
            "metrics.lorenz_from_points.s": total("metrics.lorenz_from_points"),
            "metrics.lorenz_from_points.calls": calls("metrics.lorenz_from_points"),
            "metrics.metrics_from_lorenz.self_s": own("metrics.metrics_from_lorenz"),
            "metrics.ns_per_value": metrics_ns / values_per_op,
            "generators.generate.s": total("generators.generate"),
            "generators.generate.calls": calls("generators.generate"),
            "generators.sensitivity_sweep.self_s": own("generators.sensitivity_sweep"),
            "generators.us_per_rep": total("generators.sensitivity_sweep") * 1e6 / reps,
            "plot.render_svg.s": total("plot.render_svg"),
            "plot.render_ascii.s": total("plot.render_ascii"),
        }

    rows = [values(layers, op) for op, layers in per_op]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["trace.overhead"] = (
        statistics.median(op["s"] for op in traced) / statistics.median(op["s"] for op in untraced)
    )
    self_s = {}
    for _, layers in per_op:
        for name, acc in layers.items():
            self_s.setdefault(name, []).append(acc[1] / 1e9)
    top = max(self_s, key=lambda name: statistics.median(self_s[name]))
    op_s = statistics.median(op["s"] for op in traced)
    top_line = (
        f"top self-time layer: {top} {statistics.median(self_s[top]):.4f} s/op "
        f"({100 * statistics.median(self_s[top]) / op_s:.1f}% of the traced op)"
    )
    return out, top_line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "sagini" / "cli.py").is_file():
        print(f"error: no sagini sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        parser.error("--seed must be a 64-bit unsigned integer and --seconds at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    from checks import check
    from inputs import SWEEP_REPS, prepare

    STATE.mkdir(exist_ok=True)
    for sub in ("runs", "traces"):
        (STATE / sub).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    try:
        inputs = prepare(args.workload, args.seed, work)
        setup_s = None if args.trace else measure_setup()
        child = run_child(inputs, args.seconds, bool(args.trace), work)
        ops = child["ops"]
        first = ops[0]
        problems = [first["error"]] if first["error"] else check(inputs, child["op0_outputs"])
        bad = [
            op for op in ops
            if op["error"] or op["digest"] != first["digest"] or problems
        ]
        timed = [op["s"] for op in ops[1:]]
        if args.trace:
            measured, top_line = layer_metrics(child, inputs.values_per_op, SWEEP_REPS)
        else:
            scaled_s = [op["scaled_s"] for op in ops[1:]]
            measured = {
                "values_per_s": inputs.values_per_op * len(scaled_s) / sum(scaled_s),
                "op_s_p50": statistics.median(scaled_s),
                "setup_s": setup_s,
                "peak_rss_mb": child["maxrss_kb"] / 1024,
            }
            top_line = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [metric["name"] for metric in wanted]
    if set(names) != set(measured):
        print(f"error: BENCHMARK.json lists {sorted(names)}, run measured {sorted(measured)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": not bad,
        "attempted": len(ops),
        "failed": len(bad),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result, "error_rate": len(bad) / len(ops),
        "problems": problems[:10], "errors": [op["error"] for op in ops if op["error"]][:3],
        "op_s": [op["s"] for op in ops], "op_sha256": [op["digest"] for op in ops],
        "wall_op_s_p50": statistics.median(timed),
        "reference_s": [s for op in ops[1:] for s in op["reference_s"]],
        "absent": child.get("absent", []), "top_self_time": top_line,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = STATE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    for problem in problems[:10]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops ({len(ops) - 1} timed), "
          f"{len(bad)} failed, error_rate {len(bad) / len(ops):g}, "
          f"unscaled wall op_s_p50 {record['wall_op_s_p50']:.4f} s, "
          f"reference slice median {statistics.median(record['reference_s']):.4f} s")
    if top_line:
        print(top_line)
    if child.get("absent"):
        print(f"absent from the program: {', '.join(child['absent'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
