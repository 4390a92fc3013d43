"""Experiment protocols: cost-model comparison counting and
performance-rejection curve sweeps, plus the two best-classifier
selection rules.

Seed discipline: one master seed fans out to per-trial (or per-grid-point)
children; run k's is ``numpy.random.SeedSequence(master, spawn_key=(k,))``,
the k-th child ``spawn`` gives, so any process can describe run k by itself.
Its ``generate_state(2)`` yields the cost-sampler seed and the optimizer
seed. Trials are therefore independent and reproducible in any order.

That is what lets the runs go to worker processes: one per CPU in the
process's affinity mask, forked, capped at the number of runs. Each worker
inherits the tuning and test sets and runs every W-th trial (or grid point)
whole, from cost sampling to test-set scoring, and sends back only its
outcome. The calling process takes the outcomes in trial (or grid) order,
so every output is the same as from one CPU. With one usable CPU or one
run, or where processes cannot be forked, the runs go in-process.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import closing, suppress
from dataclasses import dataclass, replace

import numpy as np

from .baselines import ba_optimize, tortorella_optimize
from .data import ScoredDataset
from .metrics import (
    ClassPriors,
    CostMatrix,
    EssentialMetrics,
    SolutionEval,
    empirical_priors,
    expected_cost,
    score_pairs,
)
from .moba import MobaConfig, evolve

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

    @property
    def total(self) -> int:
        return self.lower + self.higher + self.identical


@dataclass(frozen=True)
class CurvePoint:
    """One model's test-set scores at one grid value."""

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


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where processes cannot be forked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _end_with_parent(parent: int) -> None:
    """In a worker: the kernel kills this worker when its parent ends, so a
    parent killed by a signal leaves no worker behind."""
    import ctypes

    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG
    if os.getppid() != parent:  # the parent ended before the call
        os._exit(1)


def _record(run: Callable[[int], object], k: int) -> bytes:
    """``run(k)`` as a pickled ``(ok, value or exception)``; an exception that
    does not survive pickling goes as a RuntimeError carrying its text."""
    try:
        return pickle.dumps((True, run(k)))
    except Exception as e:
        if hasattr(e, "add_note"):  # Python 3.11+: re-raised, it shows where it arose
            e.add_note(f"in worker {os.getpid()}: {traceback.format_exc()}")
        try:
            pickle.loads(data := pickle.dumps((False, e)))
        except Exception:
            data = pickle.dumps((False, RuntimeError(f"{type(e).__name__}: {e}")))
        return data


def _in_order(run: Callable[[int], object], n: int) -> Iterator[object]:
    """Yield ``run(k)`` for k = 0 .. ``n - 1`` in order; ``run`` must be a
    pure function of k whose value pickles.

    W = min(usable CPUs, ``n``) workers forked here compute the values (with
    W < 2 they are computed here as consumed): worker w computes each k = w
    (mod W) in turn and writes its ``_record`` to its own pipe, which holds
    it back when full. A run's exception is re-raised at its turn; closing
    the generator, an error or an interrupt kills and reaps every worker.
    """
    workers = min(_usable_cpus(), n)
    if workers < 2:
        yield from map(run, range(n))
        return
    parent, pids, pipes = os.getpid(), [], []
    try:
        for w in range(workers):
            r, w_end = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w_end, "wb") as out:
                if (pid := os.fork()) == 0:  # the worker, which never returns
                    try:
                        _end_with_parent(parent)
                        for k in range(w, n, workers):
                            out.write(_record(run, k))
                            out.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)
        for k in range(n):
            try:
                ok, value = pickle.load(pipes[k % workers])
            except EOFError:
                pid = pids.pop(k % workers)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"worker {pid} ended early, exit status {status}") from None
            if not ok:
                raise value
            yield value
    finally:
        for pid in pids:
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for f in pipes:
            f.close()


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
    test set are compared at ``_COST_TIE_TOL``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    priors_valid = empirical_priors(valid)
    priors_test = empirical_priors(test)
    entropy = np.random.SeedSequence(seed).entropy

    def trial(k: int) -> str:
        state = np.random.SeedSequence(entropy, spawn_key=(k,)).generate_state(2, np.uint64)
        cost_rng = np.random.default_rng(int(state[0]))
        costs = sample_cost_matrix(spec, cost_rng, joint_correct=joint_correct)
        tort = tortorella_optimize(valid, costs, priors_valid)
        if not tort.activated:
            return "not_activated"
        caps = tort.solution.metrics
        result = evolve(valid, replace(cfg, p_max=caps.rpr, n_max=caps.rnr, seed=int(state[1])))
        best = select_min_cost(result.pareto, costs, priors_valid)
        moba_cost, tort_cost = (
            expected_cost(s.metrics, priors_test, costs)
            for s in score_pairs(test, [best.thresholds, tort.solution.thresholds])
        )
        if moba_cost < tort_cost - _COST_TIE_TOL:
            return "lower"
        if moba_cost > tort_cost + _COST_TIE_TOL:
            return "higher"
        return "identical"

    with closing(_in_order(trial, trials)) as outcomes:
        tally = Counter(outcomes)
    return ComparisonCounts(
        lower=tally["lower"],
        higher=tally["higher"],
        identical=tally["identical"] + tally["not_activated"],
        not_activated=tally["not_activated"],
    )


def default_sweep_grid() -> list[float]:
    """Abstention parameters 0.01 to 0.29 in steps of 0.02 (15 values)."""
    return [round(0.01 + 0.02 * i, 2) for i in range(15)]


def _curve_point(reject_param: float, model: str, m: EssentialMetrics) -> CurvePoint:
    return CurvePoint(reject_param, model, m.acc, m.auc, m.gmean, m.rej)


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
    by k then model name.
    """
    grid = default_sweep_grid() if grid is None else list(grid)
    entropy = np.random.SeedSequence(seed).entropy

    def grid_point(i: int) -> tuple[CurvePoint, CurvePoint]:
        k = grid[i]
        state = np.random.SeedSequence(entropy, spawn_key=(i,)).generate_state(1, np.uint64)
        result = evolve(valid, replace(cfg, p_max=k, n_max=k, seed=int(state[0])))
        ba = ba_optimize(valid, k)
        best = select_best_under_cap(result.pareto, metric, max_rpr=k, max_rnr=k)
        s_ba, s_moba = score_pairs(test, [ba.solution.thresholds, best.thresholds])
        return _curve_point(k, "moba", s_moba.metrics), _curve_point(k, "ba", s_ba.metrics)

    with closing(_in_order(grid_point, len(grid))) as runs:
        points = [p for pair in runs for p in pair]
    points.sort(key=lambda p: (p.reject_param, p.model))
    return points
