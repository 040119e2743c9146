"""Spans and counts around pooldesign's layers, installed from outside.

install() wraps module functions, and Partition.__post_init__, in a
loaded pooldesign without editing its source.  A function is replaced
wherever callers look it up: in every pooldesign module namespace that
holds it (names imported with ``from .x import y`` included) and in
module-level dicts such as the CLI's solver registry.  A target that a
later version of the program no longer has is reported as absent.

Each span records [name, start, end, parent index]; the worker sends
one request's spans with its response.  layer_metrics() turns the spans
of many requests into per-request self times and work counts.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter
from time import perf_counter

ROOT = "cli"

# (module, attribute, span name); "Class.method" attributes patch the class.
SPANS = (
    ("pooldesign.solvers", "dp_solve", "solvers.dp_solve"),
    ("pooldesign.solvers", "build_dp_table", "solvers.build_dp_table"),
    ("pooldesign.solvers", "_inverse_power_table", "solvers.power_table"),
    ("pooldesign.solvers", "_walk_choices", "solvers.walk"),
    ("pooldesign.solvers", "sweep_solve", "solvers.sweep_solve"),
    ("pooldesign.solvers", "theorem_solve", "solvers.theorem_solve"),
    ("pooldesign.solvers", "brute_force_solve", "solvers.brute_force_solve"),
    ("pooldesign.core", "Partition.__post_init__", "core.partition"),
    ("pooldesign.core", "expected_waiting_time", "core.cost_eval"),
    ("pooldesign.core", "optimal_constant_size", "core.constant_size"),
    ("pooldesign.sim", "simulate_design", "sim.simulate"),
    ("pooldesign.sim", "_uniform_stream", "sim.philox"),
)
# Called once per batch: counted without a span to keep the trace small.
COUNTED = (("pooldesign.core", "batch_waiting_time", "core.batch_waiting_calls"),)
SOLVER_SPANS = {
    "solvers.dp_solve", "solvers.sweep_solve",
    "solvers.theorem_solve", "solvers.brute_force_solve",
}

# Per-layer metric -> span names whose self time it sums.
SELF_TIMES = {
    "cli.self_s": (ROOT,),
    "solvers.dp_table_s": ("solvers.dp_solve", "solvers.build_dp_table"),
    "solvers.power_table_s": ("solvers.power_table",),
    "solvers.walk_s": ("solvers.walk",),
    "solvers.sweep_s": ("solvers.sweep_solve",),
    "solvers.theorem_s": ("solvers.theorem_solve",),
    "solvers.brute_s": ("solvers.brute_force_solve",),
    "core.partition_s": ("core.partition",),
    "core.cost_eval_s": ("core.cost_eval",),
    "core.constant_size_s": ("core.constant_size",),
    "sim.philox_s": ("sim.philox",),
    "sim.transform_reduce_s": ("sim.simulate",),
}
TOTAL_TIMES = {"sim.simulate_s": ("sim.simulate",)}
COUNTS = (
    "cli.out_bytes", "solvers.calls", "solvers.demand_items",
    "core.batches_evaluated", "core.batch_waiting_calls", "sim.draws",
)


class Tracer:
    """Collects the spans and counts of the request in flight."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peak_mb = 0.0
        self._stack: list[int] = []
        self._calls: dict[str, list[int]] = {}

    def take(self) -> dict:
        """Hand over the finished request's record and start a fresh one."""
        for name, calls in self._calls.items():
            self.counts[name] += calls[0]
            calls[0] = 0
        record = {"spans": self.spans, "counts": dict(self.counts), "peak_mb": self.peak_mb}
        self.spans, self.counts, self.peak_mb = [], Counter(), 0.0
        return record

    def run(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._count(name, args, kwargs)
            if name == "sim.simulate":
                return self._run_measuring_memory(name, fn, args, kwargs)
            return self.run(name, fn, *args, **kwargs)

        return traced

    def counter(self, name: str, fn):
        calls = self._calls.setdefault(name, [0])  # cheaper per call than a Counter

        def counted(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _count(self, name: str, args, kwargs) -> None:
        if name in SOLVER_SPANS:
            self.counts["solvers.calls"] += 1
            self.counts["solvers.demand_items"] += int(args[0] if args else kwargs["demand"])
        elif name == "core.cost_eval":
            self.counts["core.batches_evaluated"] += len(args[0])
        elif name == "sim.simulate":
            self.counts["sim.draws"] += len(args[0]) * int(args[2])

    def _run_measuring_memory(self, name, fn, args, kwargs):
        tracemalloc.start()
        try:
            return self.run(name, fn, *args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peak_mb = max(self.peak_mb, peak / 2**20)


def _replace_everywhere(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "pooldesign" or module_name.startswith("pooldesign.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for entry, target in list(value.items()):
                    if target is original:
                        value[entry] = replacement


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced target in the loaded program; returns the absent ones."""
    absent = []
    targets = [(m, a, n, tracer.wrap) for m, a, n in SPANS]
    targets += [(m, a, n, tracer.counter) for m, a, n in COUNTED]
    for module_name, attribute, name, make in targets:
        owner = sys.modules.get(module_name)
        path = attribute.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None)
        if original is None:
            absent.append(f"{module_name}.{attribute}")
            continue
        replacement = make(name, original)
        if len(path) > 1:
            setattr(owner, path[-1], replacement)
        else:
            _replace_everywhere(original, replacement)
    return absent


def self_times(spans: list[list]) -> Counter:
    """Sum of each span name's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: Counter = Counter()
    for (name, *_), seconds in zip(spans, own):
        totals[name] += seconds
    return totals


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-request means of self times and counts over traced requests."""
    requests = len(records)
    own: Counter = Counter()
    total: Counter = Counter()
    counts: Counter = Counter()
    for record in records:
        own.update(self_times(record["spans"]))
        for name, start, end, _ in record["spans"]:
            total[name] += end - start
        counts.update(record["counts"])
    metrics = {
        metric: sum(own[name] for name in names) / requests
        for metric, names in SELF_TIMES.items()
    }
    metrics.update(
        {metric: sum(total[name] for name in names) / requests for metric, names in TOTAL_TIMES.items()}
    )
    metrics.update({name: counts[name] / requests for name in COUNTS})
    metrics["cli.requests"] = requests
    metrics["sim.peak_traced_mb"] = max(record["peak_mb"] for record in records)
    return metrics

