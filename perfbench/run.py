"""rejectopt benchmark: closed-loop CLI workloads, output checks and a traced per-layer run.

    python3 perfbench/run.py --workload protocol_desk --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py                 # every workload in turn

Each pass runs in a fresh ``worker.py`` process, so its peak RSS is its own.
Set-up (import of ``rejectopt`` plus writing the inputs) is timed in that
process and in set-up-only processes run before and after the pass;
``setup_s`` is their median.
After the pass this process checks every operation's outputs against the
independent oracles in ``oracles.py``, then prints a report and, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics untraced, the per-layer metrics with
``--trace 1``.

With ``--trace 1`` the time is split between an untraced and a traced pass;
the per-layer figures come from the traced one, per cycle of the operation
list, and the difference in ``ops_per_s`` between the two is the tracing
overhead. Both passes must write byte-identical outputs.

Everything is written under ``.perfbench_out/<workload>/`` in the checkout.
It needs the package source in ``src/``; without it the run stops with exit
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import oracles
import selfcheck
from tracer import per_layer
from workloads import WORKLOADS, Op, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 4  # set-up-only processes before the pass, and as many after it
TIME_LIMIT_S = 170.0  # the whole run must end within 180 s
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(args: list[str], deadline: float) -> str:
    """Run worker.py to completion (killed at the deadline) and return its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {args} ran past the time limit") from None
    if done.returncode != 0:
        raise BenchmarkError(f"worker {args} exited with {done.returncode}:\n{done.stderr[-3000:]}")
    return done.stdout


def run_pass(workload: Workload, seed: int, seconds: float, trace: bool, name: str, deadline: float) -> dict:
    outdir = os.path.join(OUT, workload.name, name)
    spawn(["--workload", workload.name, "--seed", str(seed), "--outdir", outdir,
           "--seconds", repr(seconds), "--trace", str(int(trace))], deadline)
    with open(os.path.join(outdir, "pass.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["dir"] = outdir
    return result


def setup_samples(workload: Workload, seed: int, deadline: float) -> list[float]:
    outdir = os.path.join(OUT, workload.name, "setup")
    return [
        json.loads(spawn(["--workload", workload.name, "--seed", str(seed), "--outdir", outdir,
                          "--setup-only"], deadline))["setup_s"]
        for _ in range(SETUP_PROBES)
    ]


def _digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        files = [path] if os.path.isfile(path) else [
            os.path.join(path, f) for f in sorted(os.listdir(path))
        ]
        for f in files:
            h.update(os.path.basename(f).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Checker:
    """Checks each operation's outputs; identical outputs are checked once."""

    def __init__(self):
        self.scores: dict[str, oracles.Scores] = {}
        self.cache: dict[tuple, tuple[list[str], float | None]] = {}

    def read(self, path: str) -> oracles.Scores:
        if path not in self.scores:
            self.scores[path] = oracles.read_scores(path)
        return self.scores[path]

    def check(self, op: Op, inputs: str, cycle_dir: str) -> tuple[list[str], float | None]:
        argv = [a.format(inputs=inputs, cycle=cycle_dir) for a in op.argv]
        f = oracles.flags(argv)
        out = f["--out"]
        try:
            watched = [out, f["--pareto"]] if "--pareto" in f else [out]
            key = (inputs, op.name, _digest(*watched))
            if key not in self.cache:
                self.cache[key] = self._check(op, argv, f, inputs, cycle_dir)
            return self.cache[key]
        except Exception:  # a missing or malformed output is a failed operation
            return [traceback.format_exc(limit=2)], None

    def _check(self, op, argv, f, inputs, cycle_dir):
        command = argv[0]
        if command == "optimize":
            return oracles.check_pareto(f["--out"], self.read(f["--scores"]), argv)
        if command == "baseline":
            return oracles.check_baseline(f["--out"], self.read(f["--scores"]), argv)
        if command == "compare-costs":
            return oracles.check_comparison(f["--out"], argv), None
        if command == "curves":
            return oracles.check_curves(f["--out"]), None
        if command == "select":
            scores = self.read(op.scores.format(inputs=inputs, cycle=cycle_dir))
            return oracles.check_select(f["--out"], scores, f["--pareto"], argv), None
        return [f"no check for command {command}"], None


def check_pass(workload: Workload, result: dict, checker: Checker) -> None:
    """Mark each operation ok or failed, with its problems and quality figure."""
    ops = {op.name: op for op in workload.ops}
    inputs = os.path.join(result["dir"], "inputs")
    for rec in result["ops"]:
        problems: list[str] = []
        quality = None
        if rec["code"] != 0:
            problems.append(f"exit code {rec['code']}: {rec['error']}")
        else:
            problems, quality = checker.check(ops[rec["name"]], inputs, os.path.join(result["dir"], f"c{rec['cycle']}"))
        rec["problems"] = problems
        rec["quality"] = quality


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - 1 - TAIL_BEYOND
    return xs[k], 100.0 * k / (n - 1)


def ops_per_s(result: dict) -> float:
    return len(result["ops"]) / sum(r["latency_s"] for r in result["ops"])


def end_to_end(workload: Workload, result: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """Metrics for the JSON result line, and report lines with units and sample counts."""
    ops = result["ops"]
    lat = [r["latency_s"] for r in ops]
    n = len(ops)
    failed = sum(1 for r in ops if r["problems"])
    tail_s, pct = tail(lat)
    quality = [r["quality"] for r in ops if r["quality"] is not None]
    what = "front hypervolume / exact" if workload.quality == "front" else "exact optimum / ba objective"
    rows = [
        ("ops_per_s", "1/s", ops_per_s(result), f"n={n} operations in {result['cycles']} cycles"),
        ("op_p50_ms", "ms", 1000.0 * statistics.median(lat), f"n={n}"),
        ("op_tail_ms", "ms", 1000.0 * tail_s, f"p{pct:.1f}, n={n}, {min(TAIL_BEYOND, n - 1)} beyond"),
        ("peak_rss_mb", "MiB", result["peak_rss_mb"], "n=1 pass process"),
        ("setup_s", "s", statistics.median(setup), f"median of n={len(setup)} set-ups"),
        ("hv_ratio", "1", statistics.fmean(quality) if quality else 0.0, f"mean of n={len(quality)} ({what})"),
        ("ops_ok_frac", "1", 1.0 - failed / n, f"ops_failed_frac = {failed}/{n} = {failed / n:g}"),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, unit, value, _ in rows}
    lines = [f"  {name:<14} {value:>14.6g} {unit:<4} ({note})" for name, unit, value, note in rows]
    return metrics, lines


def compare_outputs(a: str, b: str) -> list[str]:
    """Byte comparison of two output trees (the first cycle of each pass)."""

    def files(root: str) -> set[str]:
        return {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}

    names = files(a)
    if names != files(b):
        return [f"traced pass wrote other files: {sorted(names ^ files(b))}"]
    return [
        f"traced output differs: {f}" for f in sorted(names)
        if _digest(os.path.join(a, f)) != _digest(os.path.join(b, f))
    ]


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = done.stdout.strip() or commit
        except OSError:
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def input_sizes(workload: Workload, inputs: str, checker: Checker) -> dict:
    sizes = {}
    for spec in workload.inputs:
        sc = checker.read(os.path.join(inputs, f"{spec.name}.csv"))
        sizes[spec.name] = {"rows": sc.n_pos + sc.n_neg, "distinct_scores": int(sc.cuts.size - 1)}
    return sizes


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    shutil.rmtree(os.path.join(OUT, workload.name), ignore_errors=True)
    checker = Checker()
    setup = setup_samples(workload, seed, deadline)
    problems: list[str] = []
    if trace:
        problems += selfcheck.problems()
        untraced = run_pass(workload, seed, seconds / 2, False, "untraced", deadline)
        traced = run_pass(workload, seed, seconds / 2, True, "traced", deadline)
        passes = [untraced, traced]
        problems += compare_outputs(os.path.join(untraced["dir"], "c0"), os.path.join(traced["dir"], "c0"))
    else:
        untraced = run_pass(workload, seed, seconds, False, "untraced", deadline)
        passes = [untraced]
    setup += setup_samples(workload, seed, deadline)
    for p in passes:
        check_pass(workload, p, checker)
    setup.append(untraced["setup_s"])
    e2e, lines = end_to_end(workload, untraced, setup)
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "operations": [list(op.argv) for op in workload.ops],
        "inputs": input_sizes(workload, os.path.join(untraced["dir"], "inputs"), checker),
        "end_to_end": e2e,
    }
    if trace:
        overhead = ops_per_s(untraced) - ops_per_s(traced)
        layers = per_layer(traced["spans"], traced["cycles"], overhead, overhead / ops_per_s(untraced))
        busy = sum(r["latency_s"] for r in traced["ops"]) / traced["cycles"]
        report["per_layer"] = layers
        report["layer_self_share"] = {
            k.split(".")[1]: v["value"] / busy for k, v in layers.items() if k.startswith("layer.")
        }
        report["tracing_overhead_ops_per_s"] = overhead
        lines.append(f"  traced pass: {traced['spans']['n']} spans in {traced['cycles']} cycles, "
                     f"overhead {overhead:.4g} ops/s ({100 * overhead / ops_per_s(untraced):.1f} %); "
                     f"self-time shares " + ", ".join(f"{k} {v:.1%}" for k, v in report["layer_self_share"].items()))
    attempted = [r for p in passes for r in p["ops"]]
    failures = [r for r in attempted if r["problems"]]
    report.update(
        correct=not failures and not problems,
        attempted=len(attempted),
        failed=len(failures),
        problems=problems + [f"{r['name']} (cycle {r['cycle']}): {'; '.join(r['problems'])}" for r in failures][:50],
        lines=lines,
    )
    with open(os.path.join(OUT, workload.name, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0, help="measured time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rejectopt", "cli.py")):
        print(f"perfbench: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    reports = []
    try:
        for name in names:
            report = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline)
            reports.append(report)
            print(f"{name} (seed {args.seed}, {'traced' if args.trace else 'untraced'}): "
                  f"{report['attempted']} operations, {report['failed']} failed")
            print("\n".join(report["lines"]))
            for problem in report["problems"]:
                print(f"  FAILED {problem}")
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(reports[0]["environment"]))
    key = "per_layer" if args.trace else "end_to_end"
    prefix = len(reports) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): m for r in reports for name, m in r[key].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
