"""Unit checks of the benchmark's own machinery; no rejectopt needed.

- self-time arithmetic on a synthetic span tree;
- the tracer on a stand-in package with layers and functions missing, as a
  later refactor may leave it: absent functions report 0 calls and 0 s;
- the per-layer metric names and units in code match ``BENCHMARK.json``.

``run.py --trace 1`` runs these too. By hand: ``python3 perfbench/selfcheck.py``.
"""

from __future__ import annotations

import json
import os
import sys
import types
from types import SimpleNamespace

import numpy as np

from tracer import Tracer, per_layer, self_times, summarize

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def _self_time_problems() -> list[str]:
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9]; second root [11,12]
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    parent = np.array([-1, 0, 1, 0, -1])
    got = self_times(start, end, parent)
    want = np.array([3.0, 2.0, 1.0, 4.0, 1.0])
    return [] if np.array_equal(got, want) else [f"self_times gave {got.tolist()}, want {want.tolist()}"]


def _fake_package() -> dict[str, types.ModuleType]:
    """A package with only a ``moba`` layer holding ``evolve`` and ``evaluate``."""
    pkg = types.ModuleType("fakepkg")
    moba = types.ModuleType("fakepkg.moba")
    source = (
        "def evaluate():\n"
        "    return (0.1, 0.2), True\n"
        "def evolve():\n"
        "    evaluate(); evaluate()\n"
        "    return Result(crossover_fallbacks=2, mutation_fallbacks=1)\n"
    )
    moba.__dict__["Result"] = SimpleNamespace
    exec(compile(source, "fakepkg/moba.py", "exec"), moba.__dict__)  # functions take the module's __name__
    pkg.moba = moba
    pkg.evolve = moba.evolve  # bound at package level too, as rejectopt does
    return {"fakepkg": pkg, "fakepkg.moba": moba}


def _tracer_problems() -> list[str]:
    modules = _fake_package()
    saved = {name: sys.modules.get(name) for name in modules}
    sys.modules.update(modules)
    ticks = iter(range(1_000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    try:
        tracer.install("fakepkg")
        modules["fakepkg"].evolve()  # spans at ticks: evolve [0,5], evaluate [1,2] and [3,4]
        tracer.uninstall()
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    m = {k: v["value"] for k, v in per_layer(summarize(tracer), cycles=1, overhead=0.0, overhead_frac=0.0).items()}
    want = {
        "moba.evolve.calls": 1, "moba.evolve.self_s": 3.0, "moba.evaluate.calls": 2, "moba.evaluate.s": 2.0,
        "moba.evaluate.feasible_ratio": 1.0, "moba.crossover_fallbacks": 2, "moba.mutation_fallbacks": 1,
        "layer.moba.self_s": 5.0, "trace.spans": 3,
        # deleted, renamed or never called: zero, not an error
        "moba.fast_nondominated_sort.calls": 0, "moba.fast_nondominated_sort.s": 0.0,
        "baselines.ba_optimize.s": 0.0, "cli.optimize.self_s": 0.0, "layer.cli.self_s": 0.0,
    }
    problems = [f"{k} = {m.get(k)}, want {v}" for k, v in want.items() if m.get(k) != v]
    if modules["fakepkg"].evolve is not modules["fakepkg.moba"].evolve or hasattr(modules["fakepkg.moba"].evolve, "span_name"):
        problems.append("uninstall did not restore the original bindings")
    return problems


def _benchmark_json_problems() -> list[str]:
    if not os.path.isfile(BENCHMARK):
        return []
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    spans = {"n": 0, "calls": {}, "total_s": {}, "self_s": {}, "counts": {}}
    emitted = {k: v["unit"] for k, v in per_layer(spans, 1, 0.0, 0.0).items()}
    return [] if emitted == declared else [
        f"per-layer metrics differ from BENCHMARK.json: {sorted(set(emitted.items()) ^ set(declared.items()))}"
    ]


def problems() -> list[str]:
    return _self_time_problems() + _tracer_problems() + _benchmark_json_problems()


if __name__ == "__main__":
    found = problems()
    for p in found:
        print(f"FAILED {p}")
    print("selfcheck:", "ok" if not found else f"{len(found)} problem(s)")
    sys.exit(1 if found else 0)
