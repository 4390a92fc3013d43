"""One measured pass of a workload, in a process of its own.

Set-up is the import of ``rejectopt`` plus generating and writing the input
files. With ``--setup-only`` the process stops there and reports its set-up
time; otherwise it runs whole cycles of the workload's operations until the
next cycle would end after ``--seconds``, then writes ``pass.json`` (and,
traced, ``spans.jsonl.gz``) into ``--outdir``. Its peak RSS therefore belongs to
this pass only. It checks no outputs: that happens in the parent, outside
the measured process.

Run by ``run.py``; by hand:
    python3 perfbench/worker.py --workload protocol_desk --seed 1 --outdir OUT --seconds 10
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from workloads import WORKLOADS, write_inputs  # noqa: E402  (sibling module)


def setup(workload, seed: int, inputs: str):
    """Import the package from this checkout and write the inputs; return (cli, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import rejectopt
    import rejectopt.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(rejectopt.__file__))) != SRC:
        raise ImportError(f"rejectopt was imported from {rejectopt.__file__}, not from {SRC}")
    write_inputs(workload, seed, inputs)
    return rejectopt.cli, time.perf_counter() - t0


def run_op(cli, argv: list[str]) -> tuple[int | None, str]:
    """Call the CLI once, as a user would; return (exit code, error text)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as e:
        return (e.code if isinstance(e.code, int) else 1), sink.getvalue()[-2000:]
    except Exception:  # a crash is a failed operation, not the end of the pass
        return None, traceback.format_exc()[-2000:]
    return code, (sink.getvalue()[-2000:] if code != 0 else "")


def run_pass(cli, workload, inputs: str, outdir: str, seconds: float, tracer=None) -> dict:
    ops = []
    cycle_times = []
    t_begin = time.perf_counter()
    while True:
        cycle = len(cycle_times)
        cycle_dir = os.path.join(outdir, f"c{cycle}")
        t_cycle = time.perf_counter()
        for op in workload.ops:
            argv = [a.format(inputs=inputs, cycle=cycle_dir) for a in op.argv]
            if tracer is not None:
                tracer.op_id = len(ops)
            t0 = time.perf_counter()
            code, error = run_op(cli, argv)
            latency = time.perf_counter() - t0
            ops.append({"cycle": cycle, "name": op.name, "latency_s": latency, "code": code, "error": error})
        now = time.perf_counter()
        cycle_times.append(now - t_cycle)
        if now - t_begin + sum(cycle_times) / len(cycle_times) > seconds:
            break
    return {"ops": ops, "cycles": len(cycle_times), "wall_s": time.perf_counter() - t_begin}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = os.path.join(args.outdir, "inputs")
    cli, setup_s = setup(workload, args.seed, inputs)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, summarize

        tracer = Tracer()
        tracer.install()
    result = run_pass(cli, workload, inputs, args.outdir, args.seconds, tracer)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = summarize(tracer)
        tracer.write_jsonl(os.path.join(args.outdir, "spans.jsonl.gz"))
    with open(os.path.join(args.outdir, "pass.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
