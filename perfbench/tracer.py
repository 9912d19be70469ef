"""Outside-in spans around sagini's public functions.

The tracer wraps each listed function and rebinds every module-level
reference to it inside the ``sagini`` package: ``cli`` and ``generators``
import functions by name, so patching only the defining module would miss
their calls. Spans ``(op, name, start_ns, end_ns, parent)`` stay in memory
and are written out once, at the end of the run. A listed function that
the program no longer has is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

#: Public functions traced, as ``<module>.<function>`` under ``sagini``.
TARGETS = (
    "io.read_values",
    "io.read_lorenz_points",
    "io.values_stats",
    "io.build_document",
    "io.document_to_json",
    "io.sweep_to_json",
    "metrics.build_dataset",
    "metrics.report",
    "metrics.lorenz_curve",
    "metrics.lorenz_from_points",
    "metrics.metrics_from_lorenz",
    "generators.generate",
    "generators.sensitivity_sweep",
    "plot.render_svg",
    "plot.render_ascii",
)

CLI = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int] | None] = []
        self.op = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers = {}
        self.absent = []
        for target in TARGETS:
            module_name, name = target.split(".")
            fn = getattr(sys.modules.get(f"sagini.{module_name}"), name, None)
            if fn is None:
                self.absent.append(target)
            else:
                self._wrappers[fn] = self._wrap(target, fn)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent)

        return traced

    def install(self) -> None:
        """Rebind every reference to a traced function in the sagini package."""
        modules = [m for n, m in list(sys.modules.items()) if n == "sagini" or n.startswith("sagini.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def span(self, name: str):
        """A span recorded from the benchmark's own code, around a CLI call."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (self.op, name, start, end, parent)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op},{name},{start},{end},{parent}\n")


def per_op_layers(spans) -> dict[int, dict[str, list[int]]]:
    """Per op and span name: [total ns, self ns, calls, outermost-in-module ns].

    Self time is a span's duration minus the time its direct child spans
    cover; "outermost" time counts a span only when its parent belongs to a
    different module, so a module's outermost total never double counts.
    """
    covered = [0] * len(spans)
    for op, name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[int, dict[str, list[int]]] = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, 0]))
    for idx, (op, name, start, end, parent) in enumerate(spans):
        dur = end - start
        acc = out[op][name]
        acc[0] += dur
        acc[1] += dur - covered[idx]
        acc[2] += 1
        module = name.split(".")[0]
        if parent < 0 or spans[parent][1].split(".")[0] != module:
            acc[3] += dur
    return out
