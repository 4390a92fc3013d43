"""Command-line surface: optimize, baseline, compare-costs, curves, select.

Every command validates its flags before touching the filesystem for
output, and every command is deterministic for a fixed --seed (byte
identical output files). Exit codes: 0 success (including a not-activated
baseline), 1 usage error, 2 data error, 3 no eligible solution (select).

optimize and baseline write one record per threshold pair, with the
confusion counts behind its rates; select rebuilds every metric exactly
from those counts. Its priors come from --p-pos, or else from the counts'
class totals. A pair that rejects a whole class has an undefined (null)
error rate for it; optimize never exports one, as the search counts such
a pair infeasible, but a baseline record can hold one.

compare-costs and curves mirror the experiment protocol: the scores file
is stratified-split 60/20/20 with --seed, the train part is discarded
(scores are already given), thresholds are tuned on the validation part
and evaluated on the test part. optimize and baseline tune on the whole
file.

This module defines every file the commands write or read; only the scores
CSV is rejectopt.data's. The modules that compute the results write none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields, replace

from .baselines import ba_optimize, tortorella_optimize
from .charts import line_chart_svg
from .data import ScoredDataset, ScoresCsvError, load_scored_csv, stratified_split
from .harness import (
    _METRIC_KEYS,
    ComparisonCounts,
    CurvePoint,
    NoEligibleSolutionError,
    builtin_cost_models,
    cost_comparison_experiment,
    curve_sweep,
    select_best_under_cap,
    select_min_cost,
)
from .metrics import (
    ClassPriors,
    CostMatrix,
    EssentialMetrics,
    RejectionConfusion,
    SolutionEval,
    ThresholdPair,
    empirical_priors,
    expected_cost,
)
from .moba import EvolveResult, MobaConfig, evolve


# The top-level --help text; the notes above are for readers of the code.
_DESCRIPTION = (
    "Find Pareto-optimal reject-threshold pairs (t1, t2) for a file of "
    "classifier scores, run two exact baselines and the two experiment "
    "protocols, and pick one pair from a saved front. Exit codes: 0 success, "
    "1 usage error, 2 data error, 3 no eligible solution (select)."
)

_METRICS = ("acc", "auc", "g")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: str, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def solution_record(s: SolutionEval) -> dict:
    """JSON-ready record of one scored threshold pair: its rates and the
    confusion counts behind them. A fully rejected class has a null among-
    classified error rate (``None``), not the optimizer's death penalty."""
    m = s.metrics
    return {
        "t1": s.thresholds.t1,
        "t2": s.thresholds.t2,
        "fpr": m.fpr_cls,
        "fnr": m.fnr_cls,
        "rpr": m.rpr,
        "rnr": m.rnr,
        "feasible": True,
        "counts": asdict(s.counts),
    }


def pareto_document(result: EvolveResult, valid: ScoredDataset) -> dict:
    """JSON-ready export of a run: solution records plus run metadata."""
    solutions = [
        solution_record(s) for s in sorted(result.pareto, key=lambda s: s.thresholds.as_tuple())
    ]
    cfg = result.config
    return {
        "metadata": {
            "seed": cfg.seed,
            "popsize": cfg.popsize,
            "gensize": cfg.gensize,
            "p_max": cfg.p_max,
            "n_max": cfg.n_max,
            "n_pos": valid.n_pos,
            "n_neg": valid.n_neg,
        },
        "solutions": solutions,
    }


_COUNT_KEYS = tuple(f.name for f in fields(RejectionConfusion))


def _read_record(rec, where: str) -> SolutionEval:
    """One exported solution record, scored from its confusion counts. Its
    thresholds must be JSON numbers, not bools; cuts can be ±Infinity."""
    counts = rec.get("counts") if isinstance(rec, dict) else None
    if not isinstance(counts, dict) or set(counts) != set(_COUNT_KEYS):
        raise ScoresCsvError(f"{where}: needs counts {{{', '.join(_COUNT_KEYS)}}}")
    for key, n in counts.items():
        if type(n) is not int or n < 0:  # also rejects bools, floats and strings
            raise ScoresCsvError(f"{where}: count {key} must be a non-negative integer, got {n!r}")
    try:
        t1, t2 = rec["t1"], rec["t2"]
        if type(t1) not in (int, float) or type(t2) not in (int, float):  # also rejects bools
            raise TypeError(f"thresholds must be numbers, got {t1!r} and {t2!r}")
        t = ThresholdPair(float(t1), float(t2))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ScoresCsvError(f"{where}: bad thresholds: {e!r}") from None
    c = RejectionConfusion(**counts)
    if c.n_pos < 1 or c.n_neg < 1:
        raise ScoresCsvError(f"{where}: counts must cover both classes")
    return SolutionEval.from_counts(t, c)


def _fmt(value: float | None) -> str:
    return "nan" if value is None else repr(value)


def write_comparison_csv(path, cost_model: str, counts: ComparisonCounts) -> None:
    row = ",".join(map(str, (cost_model, *astuple(counts))))
    _write_text(path, f"cost_model,lower,higher,identical,not_activated\n{row}\n")


def write_curve_csv(path, points: list[CurvePoint]) -> None:
    """``points`` in the order ``curve_sweep`` returns them."""
    lines = ["reject_param,model,acc,auc,gmean,observed_rej"]
    for p in points:
        lines.append(
            f"{p.reject_param!r},{p.model},{_fmt(p.acc)},{_fmt(p.auc)},"
            f"{_fmt(p.gmean)},{p.observed_rej!r}"
        )
    _write_text(path, "\n".join(lines) + "\n")


_CHARTS = (("acc", "acc_rej.svg", "ACC-Rej"), ("auc", "auc_rej.svg", "AUC-Rej"),
           ("gmean", "g_rej.svg", "G-Rej"))  # (CurvePoint attribute, file, title)


def write_curves(out_dir: str, points: list[CurvePoint]) -> None:
    """``curves.csv`` and one SVG chart per metric against the abstention
    parameter, one line per model, in ``out_dir`` (made if missing)."""
    os.makedirs(out_dir, exist_ok=True)
    write_curve_csv(os.path.join(out_dir, "curves.csv"), points)
    for attr, filename, title in _CHARTS:
        series: dict[str, list[tuple[float, float | None]]] = {"moba": [], "ba": []}
        for p in points:
            series[p.model].append((p.reject_param, getattr(p, attr)))
        svg = line_chart_svg(series, title, "abstention parameter", title.split("-")[0])
        _write_text(os.path.join(out_dir, filename), svg)


# MobaConfig field -> (flag, help): one flag per optimizer setting but the
# caps, with the field's type and default. --seed also seeds the split.
_OPTIMIZER_FLAGS = {
    "popsize": ("--popsize", None),
    "gensize": ("--gensize", None),
    "crossover_prob": ("--pc", "crossover probability"),
    "mutation_prob": ("--pm", "per-variable mutation probability"),
    "eta_c": ("--eta-c", None),
    "eta_m": ("--eta-m", None),
    "seed": ("--seed", None),
}


def _moba_config(args, p_max: float, n_max: float) -> MobaConfig:
    try:
        settings = {name: getattr(args, flag[2:].replace("-", "_"))
                    for name, (flag, _) in _OPTIMIZER_FLAGS.items()}
        return MobaConfig(p_max, n_max, **settings)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _protocol_inputs(args) -> tuple[MobaConfig, ScoredDataset, ScoredDataset]:
    """The protocols' optimizer settings (each run sets its own caps) and the
    validation and test parts of the split of --scores, both seeded by --seed."""
    cfg = _moba_config(args, 0.5, 0.5)
    valid, test = stratified_split(load_scored_csv(args.scores), cfg.seed)
    return cfg, valid, test


_COST_FLAGS = tuple(f.name for f in fields(CostMatrix))

# Each --model or --mode choice -> the flags it does not read.
_UNREAD = {
    "ba": ("ctp", "ctn", "crp", "crn"),
    "tortorella": ("kmax",),
    "min-cost": ("metric", "cap", "p_cap", "n_cap"),
    "best-metric": _COST_FLAGS,
}


def _refuse_unread(args, flag: str, choice: str) -> None:
    """A usage error naming each given flag that ``flag choice`` does not read."""
    given = [f"--{n.replace('_', '-')}" for n in _UNREAD[choice] if getattr(args, n) is not None]
    if given:
        raise UsageError(f"{flag} {choice} does not read {', '.join(given)}")


def _cost_matrix(args) -> CostMatrix:
    values = [getattr(args, name) for name in _COST_FLAGS]
    if any(v is None for v in values):
        flags = " ".join(f"--{name}" for name in _COST_FLAGS)
        raise UsageError(f"all six cost flags are required: {flags}")
    try:
        return CostMatrix(*values)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _num(x: float) -> str:
    """A threshold, cost or objective as text: 6 decimals, or exponent form
    from 1e15 on, where fixed point would print up to 309 digits."""
    return f"{x:.6f}" if abs(x) < 1e15 else f"{x:.6e}"


def _pareto_table(doc: dict) -> str:
    header = f"{'t1':>12} {'t2':>12} {'fpr':>8} {'fnr':>8} {'rpr':>8} {'rnr':>8}"
    lines = [header, "-" * len(header)]
    for s in doc["solutions"]:
        lines.append(
            f"{_num(s['t1']):>12} {_num(s['t2']):>12} {s['fpr']:>8.4f} {s['fnr']:>8.4f} "
            f"{s['rpr']:>8.4f} {s['rnr']:>8.4f}"
        )
    return "\n".join(lines) + "\n"


def cmd_optimize(args) -> int:
    cfg = _moba_config(args, args.pmax, args.nmax)
    data = load_scored_csv(args.scores)
    result = evolve(data, cfg)
    doc = pareto_document(result, data)
    table = _pareto_table(doc)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "pareto.json"), doc)
    _write_text(os.path.join(args.out, "pareto.txt"), table)
    print(f"{len(doc['solutions'])} Pareto solutions (caps rpr<={cfg.p_max}, rnr<={cfg.n_max})")
    print(table, end="")
    return 0


def cmd_baseline(args) -> int:
    _refuse_unread(args, "--model", args.model)
    if args.model == "tortorella":
        costs = _cost_matrix(args)
        data = load_scored_csv(args.scores)
        res = tortorella_optimize(data, costs, empirical_priors(data))
        doc = {
            "metadata": {
                "model": "tortorella",
                **asdict(costs),
                "activated": res.activated,
                "degenerate_denominator": res.degenerate_denominator,
                "cost": res.cost,
                "n_pos": data.n_pos,
                "n_neg": data.n_neg,
            },
        }
        t, m = res.solution.thresholds, res.solution.metrics
        status = "activated" if res.activated else "not activated (t1 = t2)"
        summary = (
            f"tortorella: {status}; thresholds ({_num(t.t1)}, {_num(t.t2)}); "
            f"cost {_num(res.cost)}; rpr {m.rpr:.4f}; rnr {m.rnr:.4f}"
        )
    else:
        if args.kmax is None:
            raise UsageError("ba needs --kmax")
        if not 0.0 < args.kmax < 1.0:
            raise UsageError(f"--kmax must lie in (0,1), got {args.kmax}")
        cfn, cfp = (1.0 if c is None else c for c in (args.cfn, args.cfp))
        if not (0.0 <= cfn < math.inf and 0.0 <= cfp < math.inf):
            raise UsageError("--cfn and --cfp must be finite and non-negative")
        data = load_scored_csv(args.scores)
        try:  # the costs can still overflow against this file's class counts
            res = ba_optimize(data, args.kmax, cfn=cfn, cfp=cfp)
        except ValueError as e:
            raise UsageError(str(e)) from None
        doc = {
            "metadata": {
                "model": "ba",
                "k_max": args.kmax,
                "cfn": cfn,
                "cfp": cfp,
                "objective": res.objective,
                "n_pos": data.n_pos,
                "n_neg": data.n_neg,
            },
        }
        t, m = res.solution.thresholds, res.solution.metrics
        summary = (
            f"ba: thresholds ({_num(t.t1)}, {_num(t.t2)}); "
            f"objective {_num(res.objective)}; rej {m.rej:.4f} (cap {args.kmax})"
        )
    doc["solutions"] = [solution_record(res.solution)]
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "baseline.json"), doc)
    print(summary)
    return 0


def cmd_compare_costs(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    cfg, valid, test = _protocol_inputs(args)
    counts = cost_comparison_experiment(
        valid,
        test,
        builtin_cost_models()[args.cost_model],
        args.trials,
        cfg,
        joint_correct=args.joint_correct_costs,
    )
    os.makedirs(args.out, exist_ok=True)
    write_comparison_csv(os.path.join(args.out, "comparison.csv"), args.cost_model, counts)
    print(args.cost_model)
    print(f"  lower     {counts.lower}")
    print(f"  higher    {counts.higher}")
    print(f"  identical {counts.identical}   (not activated: {counts.not_activated})")
    return 0


def cmd_curves(args) -> int:
    cfg, valid, test = _protocol_inputs(args)
    points = curve_sweep(valid, test, cfg, metric=args.metric)
    write_curves(args.out, points)
    print(f"wrote {len(points)} curve points and {len(_CHARTS)} charts to {args.out}")
    return 0


def _prior_weighted(m: EssentialMetrics, priors: ClassPriors) -> EssentialMetrics:
    """``m`` with acc and rej weighing the two classes by ``priors``."""
    p, q = priors.p_pos, priors.p_neg
    classified = p * (1.0 - m.rpr) + q * (1.0 - m.rnr)
    acc = (p * m.tpr_all + q * m.tnr_all) / classified if classified > 0 else None
    return replace(m, acc=acc, rej=p * m.rpr + q * m.rnr)


def cmd_select(args) -> int:
    _refuse_unread(args, "--mode", args.mode)
    if args.p_pos is not None and not 0.0 < args.p_pos < 1.0:
        raise UsageError("--p-pos must lie in (0,1)")
    for flag, cap in (("--cap", args.cap), ("--p-cap", args.p_cap), ("--n-cap", args.n_cap)):
        if cap is not None and not 0.0 <= cap <= 1.0:  # also rejects NaN
            raise UsageError(f"{flag} must lie in [0,1], got {cap}")
    try:
        with open(args.pareto, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        records = doc["solutions"]
        meta = doc.get("metadata", {})
        if not isinstance(records, list) or not isinstance(meta, dict):
            raise TypeError("solutions must be a list and metadata an object")
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError, AttributeError) as e:
        raise ScoresCsvError(f"invalid Pareto JSON {args.pareto}: {e}") from None
    if not records:
        raise NoEligibleSolutionError("Pareto file contains no solutions")

    solutions = [_read_record(rec, f"{args.pareto}: solution {k}") for k, rec in enumerate(records)]
    n_pos = meta.get("n_pos", solutions[0].counts.n_pos)
    n_neg = meta.get("n_neg", solutions[0].counts.n_neg)
    for key, n in (("n_pos", n_pos), ("n_neg", n_neg)):
        if type(n) is not int or n < 1:  # also rejects bools, floats and strings
            raise ScoresCsvError(
                f"{args.pareto}: metadata {key} must be a positive integer, got {n!r}"
            )
    for k, c in enumerate(s.counts for s in solutions):
        if (c.n_pos, c.n_neg) != (n_pos, n_neg):
            raise ScoresCsvError(
                f"{args.pareto}: solution {k}: counts cover {c.n_pos} positives and "
                f"{c.n_neg} negatives, expected {n_pos} and {n_neg}"
            )
    if args.p_pos is None:
        priors = ClassPriors(n_pos / (n_pos + n_neg), n_neg / (n_pos + n_neg))
    else:
        priors = ClassPriors(args.p_pos, 1.0 - args.p_pos)
        solutions = [replace(s, metrics=_prior_weighted(s.metrics, priors)) for s in solutions]

    if args.mode == "min-cost":
        costs = _cost_matrix(args)
        best = select_min_cost(solutions, costs, priors)
        rationale = {
            "mode": "min-cost",
            "costs": asdict(costs),
            "p_pos": priors.p_pos,
            "expected_cost": expected_cost(best.metrics, priors, costs),
        }
    else:
        if args.metric is None:
            raise UsageError(f"best-metric needs --metric {{{','.join(_METRICS)}}}")
        best = select_best_under_cap(
            solutions,
            args.metric,
            max_rpr=args.p_cap,
            max_rnr=args.n_cap,
            max_rej=args.cap,
        )
        rationale = {
            "mode": "best-metric",
            "metric": args.metric,
            "caps": {"p_cap": args.p_cap, "n_cap": args.n_cap, "overall": args.cap},
            "value": getattr(best.metrics, _METRIC_KEYS[args.metric]),
        }

    m = best.metrics
    chosen = records[next(k for k, s in enumerate(solutions) if s is best)]
    out_doc = {
        "selection": rationale,
        "solution": {**chosen, "acc": m.acc, "auc": m.auc, "gmean": m.gmean, "rej": m.rej},
    }
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "selection.json"), out_doc)
    print(
        f"selected ({_num(best.thresholds.t1)}, {_num(best.thresholds.t2)}) "
        f"by {rationale['mode']}"
    )
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scores", required=True, help="scores CSV (id,label,score)")
    p.add_argument("--out", required=True, help="output directory")


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    for f in fields(MobaConfig):
        if f.name in _OPTIMIZER_FLAGS:
            flag, help_text = _OPTIMIZER_FLAGS[f.name]
            p.add_argument(flag, type=type(f.default), default=f.default, help=help_text)


def _add_cost_flags(p: argparse.ArgumentParser) -> None:
    """One flag per CostMatrix entry, unset by default: tortorella and
    select --mode min-cost need all six, ba reads only --cfn/--cfp (1 if unset)
    and refuses the other four, and select --mode best-metric refuses all six."""
    for name in _COST_FLAGS:
        p.add_argument(f"--{name}", type=float, default=None)


def _optimize_parser(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--pmax", type=float, required=True, help="positive-class reject cap")
    p.add_argument("--nmax", type=float, required=True, help="negative-class reject cap")
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_optimize)


def _baseline_parser(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--model", choices=("ba", "tortorella"), required=True)
    p.add_argument("--kmax", type=float, default=None, help="ba: overall reject cap")
    _add_cost_flags(p)
    p.set_defaults(func=cmd_baseline)


def _compare_costs_parser(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--cost-model", choices=tuple(builtin_cost_models()), required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--joint-correct-costs", action="store_true")
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_compare_costs)


def _curves_parser(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--metric", choices=_METRICS, default="auc",
                   help="selection metric for the bi-objective model")
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_curves)


def _select_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pareto", required=True, help="pareto.json from optimize")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("min-cost", "best-metric"), required=True)
    p.add_argument("--metric", choices=_METRICS, default=None)
    p.add_argument("--cap", type=float, default=None, help="overall reject cap")
    p.add_argument("--p-cap", type=float, default=None, dest="p_cap")
    p.add_argument("--n-cap", type=float, default=None, dest="n_cap")
    p.add_argument("--p-pos", type=float, default=None, dest="p_pos",
                   help="positive-class prior for expected cost, acc and rej "
                        "(default: from the records' class counts)")
    _add_cost_flags(p)
    p.set_defaults(func=cmd_select)


# name -> (help text, function adding the command's flags and handler), in
# --help order. Each handler is looked up when the parser is built, not stored
# here, so a wrapper bound over ``cmd_*`` (as a tracer installs) is the one called.
_COMMANDS = {
    "optimize": ("Pareto-optimal threshold pairs under per-class caps", _optimize_parser),
    "baseline": ("run a published baseline model", _baseline_parser),
    "compare-costs": (
        "count lower/higher/identical costs vs the hull baseline", _compare_costs_parser,
    ),
    "curves": ("performance-rejection curves for both models", _curves_parser),
    "select": ("pick the best solution from a Pareto JSON", _select_parser),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Every command is registered, so the top-level help
    and the invalid-choice error list all five; only ``command`` gets its
    flags and handler, or every command when ``command`` is None. argparse
    reads only the invoked command's flags, so a parser built for that
    command parses exactly as the full one does."""
    parser = _Parser(prog="rejectopt", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, define) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or name == command:
            define(p)
    return parser


def _invoked_command(argv: list[str]) -> str | None:
    """The command argparse dispatches ``argv`` to, if any: the top level
    takes no option with a value, so it is the first token naming one."""
    return next((a for a in argv if a in _COMMANDS), None)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(_invoked_command(argv)).parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NoEligibleSolutionError as e:  # a ValueError, so caught before them
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:  # ScoresCsvError is a ValueError
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
