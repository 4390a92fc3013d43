"""Experiment protocols: cost-model comparison counting and
performance-rejection curve sweeps, plus the two best-classifier
selection rules.

Seed discipline: one master seed fans out to per-trial (or per-grid-point)
children spawned one at a time from ``numpy.random.SeedSequence(master)``
(the children of ``spawn(n)``, in order, without holding n at once); each child's
``generate_state(2)`` yields the cost-sampler seed and the optimizer seed.
Trials are therefore independent and reproducible in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import ba_optimize, tortorella_optimize
from .data import ScoredDataset
from .metrics import (
    ClassPriors,
    CostMatrix,
    SolutionEval,
    ThresholdPair,
    classify_with_rejection,
    empirical_priors,
    essential_metrics,
    expected_cost,
)
from .moba import MobaConfig, NoFeasibleSolutionError, evolve

CostEntry = float | tuple[float, float]  # fixed value or uniform range [a, b]

_METRIC_KEYS = {"acc": "acc", "auc": "auc", "g": "gmean", "gmean": "gmean"}

_COST_TIE_TOL = 1e-9  # test-set costs closer than this count as identical


class NoEligibleSolutionError(ValueError):
    """No solution satisfies the reject-rate cap(s)."""


@dataclass(frozen=True)
class CostModelSpec:
    """Per-entry sampling spec: a fixed cost or a uniform range."""

    ctp: CostEntry
    ctn: CostEntry
    cfp: CostEntry
    cfn: CostEntry
    crp: CostEntry
    crn: CostEntry

    def __post_init__(self) -> None:
        for name in ("ctp", "ctn", "cfp", "cfn", "crp", "crn"):
            e = getattr(self, name)
            if isinstance(e, tuple):
                if len(e) != 2 or not e[0] <= e[1]:
                    raise ValueError(f"{name} range must be (a, b) with a <= b")
            elif not math.isfinite(e):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class ComparisonCounts:
    lower: int
    higher: int
    identical: int
    not_activated: int
    no_feasible: int = 0  # optimizer found no feasible pair; counted as identical

    @property
    def total(self) -> int:
        return self.lower + self.higher + self.identical


@dataclass(frozen=True)
class CurvePoint:
    """One model's test-set scores at one grid value. A "moba" point whose
    optimizer found no feasible pair has no metrics and ``observed_rej`` nan."""

    reject_param: float
    model: str  # "moba" or "ba"
    acc: float | None
    auc: float | None
    gmean: float | None
    observed_rej: float


def builtin_cost_models() -> dict[str, CostModelSpec]:
    """The four uniform cost models used by the comparison protocol."""
    base = dict(ctp=(-10.0, 0.0), ctn=(-10.0, 0.0), cfp=(0.0, 50.0), cfn=(0.0, 50.0))
    return {
        "cm1": CostModelSpec(**base, crp=1.0, crn=1.0),
        "cm2": CostModelSpec(**{**base, "cfp": (0.0, 100.0)}, crp=1.0, crn=1.0),
        "cm3": CostModelSpec(**{**base, "cfn": (0.0, 100.0)}, crp=1.0, crn=1.0),
        "cm4": CostModelSpec(**base, crp=(0.0, 30.0), crn=(0.0, 30.0)),
    }


def sample_cost_matrix(
    spec: CostModelSpec, rng: np.random.Generator, joint_correct: bool = False
) -> CostMatrix:
    """Draw one matrix; ranged entries uniform and independent, fixed copied.

    Draw order is ctp, ctn, cfp, cfn, crp, crn. ``joint_correct`` makes the
    two correct-classification costs share a single draw (they are sampled
    independently by default).
    """

    def draw(entry: CostEntry) -> float:
        if isinstance(entry, tuple):
            return float(rng.uniform(entry[0], entry[1]))
        return float(entry)

    ctp = draw(spec.ctp)
    if joint_correct and isinstance(spec.ctn, tuple) and spec.ctn == spec.ctp:
        ctn = ctp
    else:
        ctn = draw(spec.ctn)
    return CostMatrix(
        ctp=ctp,
        ctn=ctn,
        cfp=draw(spec.cfp),
        cfn=draw(spec.cfn),
        crp=draw(spec.crp),
        crn=draw(spec.crn),
    )


def select_min_cost(
    solutions: list[SolutionEval], costs: CostMatrix, priors: ClassPriors
) -> SolutionEval:
    """Expected-cost minimizer; ties break by reject rate, then thresholds."""
    if not solutions:
        raise ValueError("empty solution set")
    return min(
        solutions,
        key=lambda s: (
            expected_cost(s.metrics, priors, costs),
            s.metrics.rej,
            s.thresholds.as_tuple(),
        ),
    )


def select_best_under_cap(
    solutions: list[SolutionEval],
    metric: str,
    max_rpr: float | None = None,
    max_rnr: float | None = None,
    max_rej: float | None = None,
) -> SolutionEval:
    """Best metric among solutions meeting the reject cap(s).

    ``metric`` is one of acc / auc / g. An undefined metric (fully rejected
    class) never wins. Ties break by lower reject rate, then thresholds.
    """
    if not solutions:
        raise ValueError("empty solution set")
    key = _METRIC_KEYS.get(metric.lower())
    if key is None:
        raise ValueError(f"unknown metric {metric!r}; expected one of acc, auc, g")
    eligible = [
        s
        for s in solutions
        if (max_rpr is None or s.metrics.rpr <= max_rpr)
        and (max_rnr is None or s.metrics.rnr <= max_rnr)
        and (max_rej is None or s.metrics.rej <= max_rej)
    ]
    if not eligible:
        raise NoEligibleSolutionError(
            f"no solution satisfies caps (max_rpr={max_rpr}, max_rnr={max_rnr}, "
            f"max_rej={max_rej})"
        )

    def sort_key(s: SolutionEval):
        value = getattr(s.metrics, key)
        return (-(value if value is not None else -math.inf), s.metrics.rej, s.thresholds.as_tuple())

    return min(eligible, key=sort_key)


def _cost_on(data: ScoredDataset, t: ThresholdPair, costs: CostMatrix, priors: ClassPriors) -> float:
    return expected_cost(essential_metrics(classify_with_rejection(data, t)), priors, costs)


def cost_comparison_experiment(
    valid: ScoredDataset,
    test: ScoredDataset,
    spec: CostModelSpec,
    trials: int,
    cfg: MobaConfig,
    seed: int,
    joint_correct: bool = False,
) -> ComparisonCounts:
    """Count lower/higher/identical test-set costs of the bi-objective model
    against the hull baseline over ``trials`` sampled cost matrices.

    Per trial: sample a matrix; run the hull baseline on the tuning set; if
    the reject option is not activated, the trial counts as identical (no
    bi-objective model is constructed). Otherwise the baseline's per-class
    reject rates become the caps, the optimizer runs, the min-cost solution
    is selected on the tuning set, and both models' expected costs on the
    test set are compared at ``_COST_TIE_TOL``. A trial whose optimizer run
    ends with no feasible pair also counts as identical (tracked in
    ``no_feasible``).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    valid.require_both_classes()
    test.require_both_classes()
    priors_valid = empirical_priors(valid)
    priors_test = empirical_priors(test)
    seeds = np.random.SeedSequence(seed)
    lower = higher = identical = not_activated = no_feasible = 0
    for _ in range(trials):
        state = seeds.spawn(1)[0].generate_state(2, np.uint64)
        cost_rng = np.random.default_rng(int(state[0]))
        costs = sample_cost_matrix(spec, cost_rng, joint_correct=joint_correct)
        tort = tortorella_optimize(valid, costs, priors_valid)
        if not tort.activated:
            identical += 1
            not_activated += 1
            continue
        trial_cfg = replace(cfg, p_max=tort.rpr, n_max=tort.rnr, seed=int(state[1]))
        try:
            result = evolve(valid, trial_cfg)
        except NoFeasibleSolutionError:
            identical += 1
            no_feasible += 1
            continue
        best = select_min_cost(result.pareto, costs, priors_valid)
        moba_cost = _cost_on(test, best.thresholds, costs, priors_test)
        tort_cost = _cost_on(test, tort.thresholds, costs, priors_test)
        if moba_cost < tort_cost - _COST_TIE_TOL:
            lower += 1
        elif moba_cost > tort_cost + _COST_TIE_TOL:
            higher += 1
        else:
            identical += 1
    return ComparisonCounts(
        lower=lower,
        higher=higher,
        identical=identical,
        not_activated=not_activated,
        no_feasible=no_feasible,
    )


def default_sweep_grid() -> list[float]:
    """Abstention parameters 0.01 to 0.29 in steps of 0.02 (15 values)."""
    return [round(0.01 + 0.02 * i, 2) for i in range(15)]


def _curve_point(
    reject_param: float, model: str, test: ScoredDataset, t: ThresholdPair
) -> CurvePoint:
    m = essential_metrics(classify_with_rejection(test, t))
    return CurvePoint(
        reject_param=reject_param,
        model=model,
        acc=m.acc,
        auc=m.auc,
        gmean=m.gmean,
        observed_rej=m.rej,
    )


def curve_sweep(
    valid: ScoredDataset,
    test: ScoredDataset,
    cfg: MobaConfig,
    seed: int,
    metric: str = "auc",
    grid: list[float] | None = None,
) -> list[CurvePoint]:
    """Performance-rejection sweep of both models over the abstention grid.

    At each grid value k the bi-objective model runs with both per-class
    caps set to k (its implied overall cap then also equals k) and the
    solution with the best ``metric`` under the caps is kept; the bounded
    abstention model runs with overall cap k at unit misclassification
    costs, so it minimizes the classified error rate. Each selected
    classifier is scored on the test set; one point per (k, model), sorted
    by k then model name. A grid value where the optimizer finds no
    feasible pair gets a "moba" point without metrics (see
    :class:`CurvePoint`).
    """
    valid.require_both_classes()
    test.require_both_classes()
    grid = default_sweep_grid() if grid is None else list(grid)
    seeds = np.random.SeedSequence(seed)
    points: list[CurvePoint] = []
    for k in grid:
        moba_seed = int(seeds.spawn(1)[0].generate_state(1, np.uint64)[0])
        cfg_k = replace(cfg, p_max=k, n_max=k, seed=moba_seed)
        try:
            result = evolve(valid, cfg_k)
        except NoFeasibleSolutionError:
            points.append(CurvePoint(k, "moba", None, None, None, math.nan))
        else:
            best = select_best_under_cap(result.pareto, metric, max_rpr=k, max_rnr=k)
            points.append(_curve_point(k, "moba", test, best.thresholds))
        ba = ba_optimize(valid, k)
        points.append(_curve_point(k, "ba", test, ba.thresholds))
    points.sort(key=lambda p: (p.reject_param, p.model))
    return points


def _fmt(value: float | None) -> str:
    return "nan" if value is None else repr(value)


def write_comparison_csv(path, rows: list[tuple[str, ComparisonCounts]]) -> None:
    lines = ["cost_model,lower,higher,identical,not_activated"]
    for model_id, c in rows:
        lines.append(f"{model_id},{c.lower},{c.higher},{c.identical},{c.not_activated}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_curve_csv(path, points: list[CurvePoint]) -> None:
    lines = ["reject_param,model,acc,auc,gmean,observed_rej"]
    for p in sorted(points, key=lambda q: (q.reject_param, q.model)):
        lines.append(
            f"{p.reject_param!r},{p.model},{_fmt(p.acc)},{_fmt(p.auc)},"
            f"{_fmt(p.gmean)},{p.observed_rej!r}"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
