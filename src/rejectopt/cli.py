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
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace

from .baselines import ba_optimize, tortorella_optimize
from .charts import line_chart_svg
from .data import ScoredDataset, ScoresCsvError, SplitSpec, load_scored_csv, stratified_split
from .harness import (
    NoEligibleSolutionError,
    builtin_cost_models,
    cost_comparison_experiment,
    curve_sweep,
    select_best_under_cap,
    select_min_cost,
    write_comparison_csv,
    write_curve_csv,
)
from .metrics import (
    ClassPriors,
    CostMatrix,
    EssentialMetrics,
    RejectionConfusion,
    SolutionEval,
    ThresholdPair,
    classify_with_rejection,
    empirical_priors,
    expected_cost,
)
from .moba import MobaConfig, evolve, pareto_document, solution_record


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


def _split_valid_test(data: ScoredDataset, seed: int) -> tuple[ScoredDataset, ScoredDataset]:
    _, valid, test = stratified_split(data, SplitSpec(0.6, 0.2, 0.2, seed))
    return valid, test


def _moba_config(args, p_max: float, n_max: float) -> MobaConfig:
    try:
        return MobaConfig(
            p_max=p_max,
            n_max=n_max,
            popsize=args.popsize,
            gensize=args.gensize,
            crossover_prob=args.pc,
            mutation_prob=args.pm,
            eta_c=args.eta_c,
            eta_m=args.eta_m,
            seed=args.seed,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None


def _cost_matrix(args) -> CostMatrix:
    values = (args.ctp, args.ctn, args.cfp, args.cfn, args.crp, args.crn)
    if any(v is None for v in values):
        raise UsageError(
            "all six cost flags are required: --ctp --ctn --cfp --cfn --crp --crn"
        )
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
        status = "activated" if res.activated else "not activated (t1 = t2)"
        summary = (
            f"tortorella: {status}; thresholds ({_num(res.thresholds.t1)}, "
            f"{_num(res.thresholds.t2)}); cost {_num(res.cost)}; "
            f"rpr {res.rpr:.4f}; rnr {res.rnr:.4f}"
        )
    else:
        if args.kmax is None:
            raise UsageError("ba needs --kmax")
        if not 0.0 < args.kmax < 1.0:
            raise UsageError(f"--kmax must lie in (0,1), got {args.kmax}")
        if not (0.0 <= args.cfn < math.inf and 0.0 <= args.cfp < math.inf):
            raise UsageError("--cfn and --cfp must be finite and non-negative")
        data = load_scored_csv(args.scores)
        try:  # the costs can still overflow against this file's class counts
            res = ba_optimize(data, args.kmax, cfn=args.cfn, cfp=args.cfp)
        except ValueError as e:
            raise UsageError(str(e)) from None
        doc = {
            "metadata": {
                "model": "ba",
                "k_max": args.kmax,
                "cfn": args.cfn,
                "cfp": args.cfp,
                "objective": res.objective,
                "n_pos": data.n_pos,
                "n_neg": data.n_neg,
            },
        }
        summary = (
            f"ba: thresholds ({_num(res.thresholds.t1)}, {_num(res.thresholds.t2)}); "
            f"objective {_num(res.objective)}; rej {res.rej:.4f} (cap {args.kmax})"
        )
    t = res.thresholds
    doc["solutions"] = [solution_record(SolutionEval.from_counts(t, classify_with_rejection(data, t)))]
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "baseline.json"), doc)
    print(summary)
    return 0


def cmd_compare_costs(args) -> int:
    models = builtin_cost_models()
    if args.cost_model not in models:
        raise UsageError(f"unknown cost model {args.cost_model!r}")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    cfg = _moba_config(args, 0.5, 0.5)  # caps are transferred per trial
    data = load_scored_csv(args.scores)
    valid, test = _split_valid_test(data, args.seed)
    counts = cost_comparison_experiment(
        valid,
        test,
        models[args.cost_model],
        args.trials,
        cfg,
        args.seed,
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
    cfg = _moba_config(args, 0.5, 0.5)  # caps are swept per grid point
    data = load_scored_csv(args.scores)
    valid, test = _split_valid_test(data, args.seed)
    points = curve_sweep(valid, test, cfg, args.seed, metric=args.metric)
    os.makedirs(args.out, exist_ok=True)
    write_curve_csv(os.path.join(args.out, "curves.csv"), points)
    charts = [
        ("acc", "acc_rej.svg", "ACC-Rej"),
        ("auc", "auc_rej.svg", "AUC-Rej"),
        ("gmean", "g_rej.svg", "G-Rej"),
    ]
    for attr, filename, title in charts:
        series: dict[str, list[tuple[float, float | None]]] = {"moba": [], "ba": []}
        for p in points:
            series[p.model].append((p.reject_param, getattr(p, attr)))
        svg = line_chart_svg(series, title, "abstention parameter", title.split("-")[0])
        _write_text(os.path.join(args.out, filename), svg)
    print(f"wrote {len(points)} curve points and {len(charts)} charts to {args.out}")
    return 0


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


def _prior_weighted(m: EssentialMetrics, priors: ClassPriors) -> EssentialMetrics:
    """``m`` with acc and rej weighing the two classes by ``priors``."""
    p, q = priors.p_pos, priors.p_neg
    classified = p * (1.0 - m.rpr) + q * (1.0 - m.rnr)
    acc = (p * m.tpr_all + q * m.tnr_all) / classified if classified > 0 else None
    return replace(m, acc=acc, rej=p * m.rpr + q * m.rnr)


def cmd_select(args) -> int:
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
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as e:
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
            raise UsageError("best-metric needs --metric {acc,auc,g}")
        best = select_best_under_cap(
            solutions,
            args.metric,
            max_rpr=args.p_cap,
            max_rnr=args.n_cap,
            max_rej=args.cap,
        )
        value = {"acc": best.metrics.acc, "auc": best.metrics.auc, "g": best.metrics.gmean}[
            args.metric
        ]
        rationale = {
            "mode": "best-metric",
            "metric": args.metric,
            "caps": {"p_cap": args.p_cap, "n_cap": args.n_cap, "overall": args.cap},
            "value": value,
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--popsize", type=int, default=20)
    p.add_argument("--gensize", type=int, default=100)
    p.add_argument("--pc", type=float, default=0.9, help="crossover probability")
    p.add_argument("--pm", type=float, default=0.5, help="per-variable mutation probability")
    p.add_argument("--eta-c", type=float, default=20.0, dest="eta_c")
    p.add_argument("--eta-m", type=float, default=20.0, dest="eta_m")


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
    p.add_argument("--cfn", type=float, default=1.0)
    p.add_argument("--cfp", type=float, default=1.0)
    p.add_argument("--ctp", type=float, default=None)
    p.add_argument("--ctn", type=float, default=None)
    p.add_argument("--crp", type=float, default=None)
    p.add_argument("--crn", type=float, default=None)
    p.set_defaults(func=cmd_baseline)


def _compare_costs_parser(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--cost-model", choices=("cm1", "cm2", "cm3", "cm4"), required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--joint-correct-costs", action="store_true")
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_compare_costs)


def _curves_parser(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--metric", choices=("acc", "auc", "g"), default="auc",
                   help="selection metric for the bi-objective model")
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_curves)


def _select_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pareto", required=True, help="pareto.json from optimize")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("min-cost", "best-metric"), required=True)
    p.add_argument("--metric", choices=("acc", "auc", "g"), default=None)
    p.add_argument("--cap", type=float, default=None, help="overall reject cap")
    p.add_argument("--p-cap", type=float, default=None, dest="p_cap")
    p.add_argument("--n-cap", type=float, default=None, dest="n_cap")
    p.add_argument("--p-pos", type=float, default=None, dest="p_pos",
                   help="positive-class prior for expected cost, acc and rej "
                        "(default: from the records' class counts)")
    p.add_argument("--ctp", type=float, default=None)
    p.add_argument("--ctn", type=float, default=None)
    p.add_argument("--cfp", type=float, default=None)
    p.add_argument("--cfn", type=float, default=None)
    p.add_argument("--crp", type=float, default=None)
    p.add_argument("--crn", type=float, default=None)
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
    parser = _Parser(prog="rejectopt", description=__doc__)
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
    except (ScoresCsvError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NoEligibleSolutionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
