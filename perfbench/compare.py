"""Compare two sets of benchmark runs, workload by workload.

Usage: python3 perfbench/compare.py BASE NEW

BASE and NEW are each a directory of run records, as ``run.py`` writes them
to ``.perfbench/runs/``, or a JSON-lines file of records such as
``perfbench/baseline.jsonl``. For every workload and end-to-end metric the
command prints each side's median and quartiles and one verdict, using the
metric's ``bound`` and ``better`` from ``BENCHMARK.json``:

* ``worse``: NEW's median is worse than BASE's by more than the bound;
* ``unresolved``: one side's spread (quartile distance over median) is
  wider than the bound and not every NEW run beats every BASE run;
* ``agree``: otherwise.

``error_rate`` (failed over attempted ops, all runs pooled) is ``worse``
whenever NEW's is higher. Per-layer metrics from traced runs are printed
for locating a change; they have no bound and no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    if path.is_dir():
        return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(path.glob("*.json"))]
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nm - bm) / bm
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    return "worse" if worse_by > bound else "agree"


def metric_values(records: list[dict], workload: str, trace: int, name: str) -> list[float]:
    return [
        r["result"]["metrics"][name]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and name in r["result"]["metrics"]
    ]


def error_rate(records: list[dict], workload: str) -> float:
    runs = [r["result"] for r in records if r["workload"] == workload]
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    fmt = "{:<16} {:<36} {:>34} {:>34}  {}"
    print(fmt.format("workload", "metric", "base q1 / median / q3", "new q1 / median / q3", "verdict"))
    for workload in (w["name"] for w in spec["workloads"]):
        if not any(r["workload"] == workload for r in base) or not any(r["workload"] == workload for r in new):
            print(f"{workload:<16} (no runs on one side)")
            continue
        rates = error_rate(base, workload), error_rate(new, workload)
        print(fmt.format(workload, "error_rate", f"{rates[0]:.4g}", f"{rates[1]:.4g}",
                         "worse" if rates[1] > rates[0] else "agree"))
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for metric in metrics:
                a = metric_values(base, workload, trace, metric["name"])
                b = metric_values(new, workload, trace, metric["name"])
                if not a or not b:
                    continue
                result = verdict(a, b, metric["better"], metric["bound"]) if "bound" in metric else "-"
                cells = ["{:.4g} / {:.4g} / {:.4g}".format(*quartiles(v)) for v in (a, b)]
                print(fmt.format(workload, f"{metric['name']} [{metric['unit']}]", *cells, result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
