"""Correctness gate on the warm-up op's outputs, run outside the timed region.

Reported indices must match ``sagini.rational_report`` on the exact data to
1e-12 relative. Rendered curves must trace the exact curve: every SVG
polyline vertex within half a user unit of it (so a decimated polyline
still passes), every ASCII column's mark within one row of it. The sweep
must satisfy its identities on every row and match the oracle on rows whose
values the benchmark draws itself from the documented Philox stream.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
from sagini.oracle import rational_report

from inputs import COMPUTE_ROWS, KERNEL_N, POINTS_N, SWEEP_N, SWEEP_REPS, Inputs, lorenz_shares

REL_TOL = 1e-12
INDICES = ("gini", "g_right", "g_left", "sag")
SPOT_CHECKS = 25

# Plot geometry of sagini.plot, restated here so the check is independent.
PLOT_LEFT, PLOT_BOTTOM, PLOT_SIZE = 70.0, 530.0, 510.0
ASCII_WIDTH, ASCII_HEIGHT = 61, 31


def _close(value, exact: Fraction) -> bool:
    return isinstance(value, float) and abs(Fraction(value) - exact) <= REL_TOL * abs(exact)


def _indices(got: dict, exact, where: str) -> list[str]:
    return [
        f"{where}: {name} = {got.get(name)!r}, exact {float(getattr(exact, name))!r}"
        for name in INDICES
        if not _close(got.get(name), getattr(exact, name))
    ]


def _report_doc(doc: dict, exact, n: int, where: str) -> list[str]:
    problems = _indices(doc["indices"], exact, where)
    if doc["input"]["n"] != n:
        problems.append(f"{where}: n = {doc['input']['n']}, expected {n}")
    return problems


def _svg(text: str, p: np.ndarray, q: np.ndarray) -> list[str]:
    found = re.search(r'<polyline points="([^"]*)"', text)
    if found is None:
        return ["svg: no polyline"]
    xy = np.array(found.group(1).replace(",", " ").split(), dtype=float).reshape(-1, 2)
    px = (xy[:, 0] - PLOT_LEFT) / PLOT_SIZE
    qy = (PLOT_BOTTOM - xy[:, 1]) / PLOT_SIZE
    problems = []
    if len(px) < 2 or np.any(np.diff(px) < 0):
        problems.append("svg: polyline is not monotone in p")
    ends = np.array([px[0], qy[0], px[-1], qy[-1]])
    if np.abs(ends - [0.0, 0.0, 1.0, 1.0]).max() * PLOT_SIZE > 1e-3:
        problems.append(f"svg: polyline runs from ({px[0]}, {qy[0]}) to ({px[-1]}, {qy[-1]})")
    off = np.abs(np.interp(px, p, q) - qy) * PLOT_SIZE
    if off.max() > 0.5:
        problems.append(f"svg: vertex {int(off.argmax())} is {off.max():.3f} units off the curve")
    return problems


def _ascii(text: str, p: np.ndarray, q: np.ndarray) -> list[str]:
    grid = [line[3:] for line in text.splitlines()[:ASCII_HEIGHT]]
    problems = []
    for col in range(ASCII_WIDTH):
        want = round((1.0 - float(np.interp(col / (ASCII_WIDTH - 1), p, q))) * (ASCII_HEIGHT - 1))
        rows = [r for r, line in enumerate(grid) if col < len(line) and line[col] == "*"]
        if not any(abs(r - want) <= 1 for r in rows):
            problems.append(f"ascii: column {col} marks rows {rows}, curve is at row {want}")
    return problems[:3]


def _sweep(doc: dict, seed: int) -> list[str]:
    rows = doc["rows"]
    if len(rows) != SWEEP_REPS or [r["rep_index"] for r in rows] != list(range(SWEEP_REPS)):
        return [f"sweep: expected rows 0..{SWEEP_REPS - 1}, got {len(rows)} rows"]
    problems = []
    for row in rows:
        g, gr, gl, sag = (row[name] for name in INDICES)
        if abs(gr + gl - 2.0 * g) > REL_TOL * 2.0 * abs(g) or abs(sag - max(gr, gl)) > REL_TOL * abs(sag):
            problems.append(f"sweep: row {row['rep_index']} breaks g_right + g_left = 2 gini or sag = max")
    pick = np.random.default_rng([seed, 4]).choice(SWEEP_REPS, size=SPOT_CHECKS, replace=False)
    for rep in sorted(pick.tolist()):
        # The same stream the program documents: Philox(key=seed, counter=rep << 128).
        rng = np.random.Generator(np.random.Philox(key=seed, counter=rep << 128))
        values = rng.lognormal(0.0, 1.0, SWEEP_N).tolist()
        problems += _indices(rows[rep], rational_report([Fraction(v) for v in values]), f"sweep row {rep}")
    return problems


def check(inputs: Inputs, outputs: dict[str, str]) -> list[str]:
    """Problems found in the warm-up op's outputs; empty when all is correct."""
    text = {name: Path(path).read_text(encoding="utf-8") for name, path in outputs.items()}
    workload = inputs.workload
    if workload == "sweep_small_n":
        return _sweep(json.loads(text["sweep"]), inputs.seed)
    exact = rational_report(inputs.cents.tolist())
    if workload == "kernel_1e6":
        fields = json.loads(text["report"])
        problems = _indices(fields, exact, "report")
        if fields["n"] != KERNEL_N:
            problems.append(f"report: n = {fields['n']}, expected {KERNEL_N}")
        return problems
    if workload == "cli_compute_2e5":
        doc = json.loads(text["compute"])
        problems = _report_doc(doc, exact, COMPUTE_ROWS, "compute")
        total = doc["input"]["total"]
        if not _close(total, Fraction(int(inputs.cents.sum()), 100)):
            problems.append(f"compute: total = {total!r}")
        return problems
    p = np.arange(POINTS_N + 1, dtype=float) / POINTS_N
    q = np.concatenate([[0.0], lorenz_shares(inputs.cents)])
    return (
        _report_doc(json.loads(text["compute"]), exact, POINTS_N, "compute --from-lorenz")
        + _svg(text["svg"], p, q)
        + _ascii(text["ascii"], p, q)
    )
