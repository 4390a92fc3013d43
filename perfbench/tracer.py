"""Span recorder that wraps rejectopt's public functions from outside the package.

Every module of the package that binds a public function gets its binding
replaced by a wrapper, so a call is recorded whichever module it comes from:
``rejectopt.harness.evolve`` and ``rejectopt.moba.evolve`` are wrapped
separately, and the binding a call goes through names its calling module.
A span holds its function, calling module, start, end, parent span and
operation id. Spans stay in memory until :meth:`Tracer.write_jsonl`.

Nothing is listed by hand except the few result hooks, so a function that a
later change deletes, renames or stops calling just reports 0 calls and 0 s.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "harness", "moba", "baselines", "metrics", "data", "charts")

# Called once per pair inside the non-dominated sort, millions of times per
# run at population 100: a span there would cost more than the sort itself.
UNTRACED = frozenset({"moba.dominates"})


def _count_evaluate(counts: Counter, result) -> None:
    if isinstance(result, tuple) and len(result) == 2:
        counts["moba.evaluate.feasible"] += bool(result[1])


def _count_evolve(counts: Counter, result) -> None:
    counts["moba.crossover_fallbacks"] += getattr(result, "crossover_fallbacks", 0)
    counts["moba.mutation_fallbacks"] += getattr(result, "mutation_fallbacks", 0)


def _count_comparison(counts: Counter, result) -> None:
    total = getattr(result, "total", 0)
    counts["harness.trials"] += total
    counts["harness.trials_activated"] += total - getattr(result, "not_activated", 0)
    counts["harness.trials_no_feasible"] += getattr(result, "no_feasible", 0)


# Work counts read from return values, keyed by function.
RESULT_HOOKS = {
    "moba.evaluate": _count_evaluate,
    "moba.evolve": _count_evolve,
    "harness.cost_comparison_experiment": _count_comparison,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[tuple[str, str]] = []  # per wrapper: (function, calling module)
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self._bindings: list[tuple[types.ModuleType, str, object]] = []

    def wrap(self, fn, function: str, via: str):
        """Return ``fn`` recording one span per call under (``function``, ``via``)."""
        nid = len(self.names)
        self.names.append((function, via))
        hook = RESULT_HOOKS.get(function)
        start, end, name, parent, op, stack, clock = (
            self.start, self.end, self.name, self.parent, self.op, self.stack, self.clock
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, result)
            return result

        traced.span_name = function
        return traced

    def install(self, package: str = "rejectopt") -> None:
        """Wrap every public function binding in the package and its layer modules."""
        for modname in (package, *(f"{package}.{m}" for m in LAYERS)):
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue  # a layer removed by a later change
            via = modname.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(f"{package}.") or hasattr(obj, "span_name"):
                    continue
                function = f"{obj.__module__.partition('.')[2]}.{obj.__name__}"
                if function in UNTRACED:
                    continue
                self._bindings.append((module, attr, obj))
                setattr(module, attr, self.wrap(obj, function, via))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._bindings):
            setattr(module, attr, obj)
        self._bindings.clear()

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, gzip-compressed (a busy cycle has ~10^6 spans)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (nid, p, o, t0, t1) in enumerate(zip(self.name, self.parent, self.op, self.start, self.end)):
                function, via = self.names[nid]
                fh.write(
                    f'{{"id":{i},"name":"{function}","via":"{via}","start":{t0!r},'
                    f'"end":{t1!r},"parent":{p},"op":{o}}}\n'
                )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span run one after
    another inside it and never overlap: the time they cover is the sum of
    their durations.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    return duration - covered


def summarize(tracer: Tracer) -> dict:
    """Span count, then calls, inclusive and self seconds per function, per function and
    calling module (``function@module``) and per layer (``layer:<name>``, self only),
    plus the result-hook counts."""
    name = np.array(tracer.name, dtype=np.int64)
    start = np.array(tracer.start, dtype=np.float64)
    end = np.array(tracer.end, dtype=np.float64)
    k = len(tracer.names)
    per_name = (
        np.bincount(name, minlength=k),
        np.bincount(name, weights=end - start, minlength=k),
        np.bincount(name, weights=self_times(start, end, np.array(tracer.parent, dtype=np.int64)), minlength=k),
    )
    calls, total, own = Counter(), Counter(), Counter()
    for nid, (function, via) in enumerate(tracer.names):
        for key in (function, f"{function}@{via}"):
            calls[key] += int(per_name[0][nid])
            total[key] += float(per_name[1][nid])
            own[key] += float(per_name[2][nid])
        own[f"layer:{function.partition('.')[0]}"] += float(per_name[2][nid])
    return {"n": int(name.size), "calls": dict(calls), "total_s": dict(total), "self_s": dict(own),
            "counts": dict(tracer.counts)}


def per_layer(spans: dict, cycles: int, overhead: float, overhead_frac: float) -> dict:
    """Per-layer metrics per cycle of the operation list; absent functions read 0."""
    calls, total, own, counts = spans["calls"], spans["total_s"], spans["self_s"], spans["counts"]
    rows: list[tuple[str, str, float]] = []

    def add(name, unit, value, per_cycle=True):
        rows.append((name, unit, value / cycles if per_cycle else value))

    for fn in ("moba.evolve", "moba.fast_nondominated_sort", "moba.evaluate", "baselines.roc_points",
               "metrics.classify_with_rejection"):
        add(f"{fn}.calls", "calls/cycle", calls.get(fn, 0))
    for fn in ("moba.fast_nondominated_sort", "moba.crowding_distance_assignment", "moba.tournament_selection",
               "moba.sbx_crossover", "moba.polynomial_mutation", "moba.evaluate", "metrics.classify_with_rejection",
               "metrics.essential_metrics", "baselines.roc_points", "baselines.rocch", "baselines.ba_optimize",
               "harness.evaluate_solutions", "data.load_scored_csv", "data.stratified_split", "charts.line_chart_svg"):
        add(f"{fn}.s", "s/cycle", total.get(fn, 0.0))
    for fn in ("moba.evolve", "moba.elite_preservation", "baselines.tortorella_optimize",
               "harness.cost_comparison_experiment", "harness.curve_sweep"):
        add(f"{fn}.self_s", "s/cycle", own.get(fn, 0.0))
    for via in ("moba", "baselines", "harness", "cli"):
        add(f"metrics.classify_with_rejection.calls.{via}", "calls/cycle",
            calls.get(f"metrics.classify_with_rejection@{via}", 0))
        add(f"metrics.classify_with_rejection.s.{via}", "s/cycle",
            total.get(f"metrics.classify_with_rejection@{via}", 0.0))
    add("baselines.classify_calls", "calls/cycle", calls.get("metrics.classify_with_rejection@baselines", 0))
    evaluated = calls.get("moba.evaluate", 0)
    add("moba.evaluate.feasible_ratio", "1",
        counts.get("moba.evaluate.feasible", 0) / evaluated if evaluated else 0.0, per_cycle=False)
    for key in ("moba.crossover_fallbacks", "moba.mutation_fallbacks", "harness.trials",
                "harness.trials_activated", "harness.trials_no_feasible"):
        add(key, "count/cycle", counts.get(key, 0))
    for command in ("optimize", "baseline", "compare-costs", "curves", "select"):
        add(f"cli.{command}.self_s", "s/cycle", own.get(f"cli.cmd_{command.replace('-', '_')}", 0.0))
    for layer in LAYERS:
        add(f"layer.{layer}.self_s", "s/cycle", own.get(f"layer:{layer}", 0.0))
    add("trace.spans", "spans/cycle", spans["n"])
    add("trace.overhead_ops_per_s", "1/s", overhead, per_cycle=False)
    add("trace.overhead_frac", "1", overhead_frac, per_cycle=False)
    return {name: {"value": value, "unit": unit} for name, unit, value in rows}
