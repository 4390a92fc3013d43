"""Constrained bi-objective threshold search with an elitist genetic engine.

Minimizes (fpr, fnr) — both among-classified rates — over threshold pairs
(t1, t2), subject to per-class reject-rate caps and t1 < t2, with at least
one classified example of each class (so both rates are defined). Constraint
handling is a death penalty: infeasible individuals get objectives (1, 1).
The variables range over the tuning set's score range, and a child that
breaks t1 < t2 is redrawn up to ``_MAX_RETRIES`` times before the operator
falls back to the parent.

Determinism contract: one seeded generator per run, consumed in a fixed
order — initialization draws, then per generation selection draws, the
crossover u's (pair by pair), and the mutation u's (child by child).
Objective evaluation consumes no randomness. The selection draws of one
generation come from a single ``integers(0, n, size=2 * popsize)`` call,
which yields the same stream as that many scalar calls.

Ranking is the two-objective O(N log N) sort; it lists every front in index
order, so ties between equal objective vectors break by position.
Ranks and crowding distances are assigned once per generation, at survivor
selection over parents plus children (crowding comes from each front of that
combined set); the next generation's tournaments and the final Pareto set
reuse them, as in the reference NSGA-II (Deb et al., IEEE TEC 2002). The
initial population passes through the same survivor selection, which
reorders it front by front before the first tournament.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import ScoredDataset
from .metrics import ThresholdPair, classify_with_rejection, confusion_counts, essential_metrics

Objectives = tuple[float, float]
FrontSet = list[list[int]]  # fronts partition the population, best rank first

_MAX_RETRIES = 100  # redraws of an operator child that breaks t1 < t2


class NoFeasibleSolutionError(RuntimeError):
    """Raised when a run ends with no individual satisfying the constraints."""

    def __init__(self, p_max: float, n_max: float):
        super().__init__(
            f"no feasible threshold pair found under caps rpr <= {p_max}, rnr <= {n_max}"
        )
        self.p_max = p_max
        self.n_max = n_max


@dataclass(frozen=True)
class MobaConfig:
    """Engine hyperparameters. Defaults mirror the published configuration
    (popsize 20, gensize 100, pc 0.9, pm 1/v with v=2, distribution indexes 20).

    The variables range over the tuning set's score range (see
    :func:`resolve_bounds`); it is not a setting.
    """

    p_max: float
    n_max: float
    popsize: int = 20
    gensize: int = 100
    crossover_prob: float = 0.9
    mutation_prob: float = 0.5
    eta_c: float = 20.0
    eta_m: float = 20.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_max <= 1.0 and 0.0 <= self.n_max <= 1.0):
            raise ValueError("reject-rate caps must lie in [0,1]")
        if self.popsize < 4 or self.popsize % 2 != 0:
            raise ValueError("popsize must be even and at least 4")
        if self.gensize < 1:
            raise ValueError("gensize must be at least 1")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0,1]")
        if not (self.eta_c >= 0 and self.eta_m >= 0):  # also rejects NaNs
            raise ValueError("distribution indexes must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class Individual:
    thresholds: ThresholdPair
    objectives: Objectives
    feasible: bool
    rank: int | None = None
    crowding: float | None = None


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    min_f1: float
    min_f2: float
    feasible_count: int


@dataclass
class EvolveResult:
    population: list[Individual]
    pareto: list[Individual]  # feasible members of the final first front
    generations: list[GenerationStats]
    config: MobaConfig
    crossover_fallbacks: int = 0
    mutation_fallbacks: int = 0


def evaluate_batch(
    ts: list[ThresholdPair], valid: ScoredDataset, p_max: float, n_max: float
) -> list[tuple[Objectives, bool]]:
    """Objectives (fpr, fnr) and feasibility of each pair on the tuning set,
    from one confusion-kernel call.

    A pair is feasible when t1 < t2, both reject rates are within their caps
    and each class keeps a classified example; an infeasible pair gets the
    death penalty (1, 1). Rates are float64 quotients of the integer counts,
    so they equal the Python floats of :func:`essential_metrics` bit for bit.
    """
    valid.require_both_classes()
    t1 = np.array([t.t1 for t in ts])
    t2 = np.array([t.t2 for t in ts])
    tp, fn, rp, fp, tn, rn = confusion_counts(valid, t1, t2)
    pos_cls = tp + fn
    neg_cls = fp + tn
    feasible = (
        (rp / valid.n_pos <= p_max) & (rn / valid.n_neg <= n_max) & (t1 < t2)
        & (pos_cls > 0) & (neg_cls > 0)
    )
    # np.maximum avoids 0/0 where a class is fully rejected; such a pair is infeasible
    f1 = np.where(feasible, fp / np.maximum(neg_cls, 1), 1.0)
    f2 = np.where(feasible, fn / np.maximum(pos_cls, 1), 1.0)
    return list(zip(zip(f1.tolist(), f2.tolist()), feasible.tolist()))


def fast_nondominated_sort(pop: list[Individual]) -> FrontSet:
    """Partition indices into fronts, best rank first, each front in index
    order; sets each ``rank``.

    Two-objective sweep (Jensen, IEEE TEC 2003), O(N log N): individuals are
    visited in lexicographic (f1, f2) order, so every dominator of an
    individual is visited before it. The last member of each front holds the
    front's smallest f2, and the fronts dominating an individual form a
    prefix, so a binary search over those last members finds its front.
    """
    if not pop:
        raise ValueError("population is empty")
    objs = [ind.objectives for ind in pop]
    fronts: FrontSet = []
    lasts: list[Objectives] = []  # last-visited member of each front
    for i in sorted(range(len(objs)), key=objs.__getitem__):
        o = objs[i]
        lo, hi = 0, len(fronts)
        while lo < hi:
            mid = (lo + hi) // 2
            # lasts[mid][0] <= o[0] by the visiting order
            if lasts[mid][1] <= o[1] and lasts[mid] != o:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(fronts):
            fronts.append([])
            lasts.append(o)
        fronts[lo].append(i)
        lasts[lo] = o
        pop[i].rank = lo
    for front in fronts:
        front.sort()
    return fronts


def crowding_distance_assignment(front: list[Individual]) -> list[float]:
    """Crowding distances for one mutually non-dominated front, input order.

    Boundary individuals per objective get +inf; interior ones accumulate
    normalized neighbor gaps. A dimension with zero spread contributes 0.
    """
    if not front:
        raise ValueError("front is empty")
    n = len(front)
    dist = [0.0] * n
    for dim in range(2):
        order = sorted(range(n), key=lambda i: front[i].objectives[dim])
        lo = front[order[0]].objectives[dim]
        hi = front[order[-1]].objectives[dim]
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        span = hi - lo
        if span <= 0.0:
            continue
        for k in range(1, n - 1):
            i = order[k]
            if dist[i] == math.inf:
                continue
            gap = front[order[k + 1]].objectives[dim] - front[order[k - 1]].objectives[dim]
            dist[i] += gap / span
    return dist


def tournament_selection(
    pop: list[Individual], rng: np.random.Generator, count: int
) -> list[Individual]:
    """Binary tournaments: lower rank wins, then larger crowding, then first drawn.

    The 2 * count contestants come from one ``rng.integers`` call, drawn in
    the order (first, second) per tournament.
    """
    drawn = [pop[int(i)] for i in rng.integers(0, len(pop), size=2 * count)]
    winners: list[Individual] = []
    for a, b in zip(drawn[0::2], drawn[1::2]):
        if a.rank is None or b.rank is None or a.crowding is None or b.crowding is None:
            raise ValueError("tournament requires ranks and crowding distances assigned")
        if b.rank < a.rank or (b.rank == a.rank and b.crowding > a.crowding):
            winners.append(b)
        else:
            winners.append(a)
    return winners


def sbx_beta(u: float, eta_c: float) -> float:
    """Spread factor for one uniform draw u in (0,1)."""
    if u <= 0.5:
        return (2.0 * u) ** (1.0 / (eta_c + 1.0))
    return (2.0 - 2.0 * u) ** (-1.0 / (eta_c + 1.0))


def sbx_children(
    p1: tuple[float, float],
    p2: tuple[float, float],
    eta_c: float,
    rng: np.random.Generator,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """One raw SBX draw per variable; no constraint handling.

    Per variable the child pair mean equals the parent pair mean, and
    u = 0.5 gives beta = 1, i.e. the parents swapped.
    """
    c1 = []
    c2 = []
    for m in range(2):
        b = sbx_beta(rng.random(), eta_c)
        c1.append(0.5 * ((1.0 - b) * p1[m] + (1.0 + b) * p2[m]))
        c2.append(0.5 * ((1.0 + b) * p1[m] + (1.0 - b) * p2[m]))
    return (c1[0], c1[1]), (c2[0], c2[1])


def sbx_crossover(
    x1: ThresholdPair,
    x2: ThresholdPair,
    eta_c: float,
    rng: np.random.Generator,
    crossover_prob: float = 1.0,
) -> tuple[ThresholdPair, ThresholdPair, bool]:
    """Simulated binary crossover of two threshold pairs.

    Applied with probability ``crossover_prob`` (one coin per pair),
    otherwise the parents are returned unchanged. A child violating
    t1 < t2 is recomputed from a fresh :func:`sbx_children` draw, up to
    ``_MAX_RETRIES`` redraws; on exhaustion the corresponding parent is
    returned and the third element of the result is True.
    """
    if rng.random() >= crossover_prob:
        return x1, x2, False
    p1, p2 = x1.as_tuple(), x2.as_tuple()
    raws = sbx_children(p1, p2, eta_c, rng)
    out: list[ThresholdPair] = []
    fell_back = False
    for k, parent in enumerate((x1, x2)):
        raw = raws[k]
        tries = 0
        while not raw[0] < raw[1] and tries < _MAX_RETRIES:
            raw = sbx_children(p1, p2, eta_c, rng)[k]
            tries += 1
        if raw[0] < raw[1]:
            out.append(ThresholdPair(raw[0], raw[1]))
        else:
            out.append(parent)
            fell_back = True
    return out[0], out[1], fell_back


def mutation_delta(u: float, eta_m: float) -> float:
    """Polynomial-mutation perturbation for one uniform draw u in (0,1)."""
    if u < 0.5:
        return (2.0 * u) ** (1.0 / (eta_m + 1.0)) - 1.0
    return 1.0 - (2.0 - 2.0 * u) ** (1.0 / (eta_m + 1.0))


def polynomial_mutation(
    x: ThresholdPair,
    mutation_prob: float,
    eta_m: float,
    lower: float,
    upper: float,
    rng: np.random.Generator,
) -> tuple[ThresholdPair, bool]:
    """Mutate each variable independently with probability ``mutation_prob``.

    Mutated values are clamped to [lower, upper]. If the mutated pair
    violates t1 < t2, fresh u draws are generated for the mutating
    variables, up to ``_MAX_RETRIES`` redraws; on exhaustion the input is
    returned unchanged and the second element of the result is True.
    """
    if not (lower < upper and math.isfinite(upper - lower)):
        raise ValueError(f"need lower < upper with a finite span, got ({lower}, {upper})")
    apply = (rng.random() < mutation_prob, rng.random() < mutation_prob)
    if not (apply[0] or apply[1]):
        return x, False
    span = upper - lower
    base = x.as_tuple()
    for _ in range(_MAX_RETRIES + 1):
        vals = list(base)
        for m in range(2):
            if apply[m]:
                v = vals[m] + span * mutation_delta(rng.random(), eta_m)
                vals[m] = min(max(v, lower), upper)
        if vals[0] < vals[1]:
            return ThresholdPair(vals[0], vals[1]), False
    return x, True


def pop_initialization(
    valid: ScoredDataset, cfg: MobaConfig, rng: np.random.Generator
) -> list[ThresholdPair]:
    """popsize pairs uniform over the score range, rejection-sampled to t1 < t2."""
    lo, hi = resolve_bounds(valid)
    pop: list[ThresholdPair] = []
    while len(pop) < cfg.popsize:
        a = lo + (hi - lo) * rng.random()
        b = lo + (hi - lo) * rng.random()
        if a < b:
            pop.append(ThresholdPair(a, b))
    return pop


def resolve_bounds(valid: ScoredDataset) -> tuple[float, float]:
    """Variable bounds: the tuning set's score range.

    Raises ValueError when the range is empty or its width overflows to inf
    (initialization and mutation scale draws by it).
    """
    lo, hi = valid.score_range()
    if not lo < hi:
        raise ValueError("degenerate score range: every tuning score is equal")
    if not math.isfinite(hi - lo):
        raise ValueError(
            f"variable range ({lo}, {hi}) is too wide: its width overflows; rescale the scores"
        )
    return lo, hi


def elite_preservation(combined: list[Individual], popsize: int) -> list[Individual]:
    """Keep the best ``popsize`` individuals: whole fronts in rank order,
    overflow front truncated by descending crowding distance.

    Every survivor leaves with its rank and its crowding distance within its
    front of ``combined``; tournaments and the final Pareto set reuse them.
    """
    fronts = fast_nondominated_sort(combined)
    survivors: list[Individual] = []
    for front_idx in fronts:
        members = [combined[i] for i in front_idx]
        dists = crowding_distance_assignment(members)
        for ind, d in zip(members, dists):
            ind.crowding = d
        if len(survivors) + len(members) <= popsize:
            survivors.extend(members)
            if len(survivors) == popsize:
                break
        else:
            room = popsize - len(survivors)
            order = sorted(range(len(members)), key=lambda i: -dists[i])
            survivors.extend(members[i] for i in order[:room])
            break
    return survivors


def _make_individuals(
    ts: list[ThresholdPair], valid: ScoredDataset, p_max: float, n_max: float
) -> list[Individual]:
    return [
        Individual(thresholds=t, objectives=obj, feasible=feasible)
        for t, (obj, feasible) in zip(ts, evaluate_batch(ts, valid, p_max, n_max))
    ]


def _generation_stats(generation: int, pop: list[Individual]) -> GenerationStats:
    return GenerationStats(
        generation=generation,
        min_f1=min(ind.objectives[0] for ind in pop),
        min_f2=min(ind.objectives[1] for ind in pop),
        feasible_count=sum(1 for ind in pop if ind.feasible),
    )


def evolve(valid: ScoredDataset, cfg: MobaConfig) -> EvolveResult:
    """Run the full generational loop and return population, Pareto set,
    and per-generation diagnostics. Deterministic for a fixed config.

    Initialization and mutation range over the tuning set's score range
    (see :func:`resolve_bounds`).
    """
    valid.require_both_classes()
    lo, hi = resolve_bounds(valid)

    rng = np.random.default_rng(cfg.seed)
    initial = pop_initialization(valid, cfg, rng)
    pop = elite_preservation(_make_individuals(initial, valid, cfg.p_max, cfg.n_max), cfg.popsize)
    stats = [_generation_stats(0, pop)]
    crossover_fallbacks = 0
    mutation_fallbacks = 0

    for gen in range(1, cfg.gensize + 1):
        parents = tournament_selection(pop, rng, cfg.popsize)

        child_thresholds: list[ThresholdPair] = []
        for i in range(0, cfg.popsize, 2):
            c1, c2, fb = sbx_crossover(
                parents[i].thresholds,
                parents[i + 1].thresholds,
                cfg.eta_c,
                rng,
                cfg.crossover_prob,
            )
            crossover_fallbacks += fb
            child_thresholds.extend((c1, c2))
        mutated: list[ThresholdPair] = []
        for t in child_thresholds:
            y, fb = polynomial_mutation(t, cfg.mutation_prob, cfg.eta_m, lo, hi, rng)
            mutation_fallbacks += fb
            mutated.append(y)

        children = _make_individuals(mutated, valid, cfg.p_max, cfg.n_max)
        pop = elite_preservation(pop + children, cfg.popsize)
        stats.append(_generation_stats(gen, pop))

    pareto = [ind for ind in pop if ind.rank == 0 and ind.feasible]
    if not pareto:
        raise NoFeasibleSolutionError(cfg.p_max, cfg.n_max)
    return EvolveResult(
        population=pop,
        pareto=pareto,
        generations=stats,
        config=cfg,
        crossover_fallbacks=crossover_fallbacks,
        mutation_fallbacks=mutation_fallbacks,
    )


def hypervolume_2d(points: list[Objectives]) -> float:
    """Area dominated by a set of minimization points up to the reference (1, 1)."""
    eligible = sorted(p for p in points if p[0] <= 1.0 and p[1] <= 1.0)
    hv = 0.0
    prev_f2 = 1.0
    for f1, f2 in eligible:
        if f2 < prev_f2:
            hv += (1.0 - f1) * (prev_f2 - f2)
            prev_f2 = f2
    return hv


def solution_record(data: ScoredDataset, t: ThresholdPair, feasible: bool = True) -> dict:
    """JSON-ready record of one threshold pair on ``data``: its rates and the
    confusion counts behind them. A fully rejected class has a null among-
    classified error rate (``None``), not the optimizer's death penalty."""
    c = classify_with_rejection(data, t)
    m = essential_metrics(c)
    return {
        "t1": t.t1,
        "t2": t.t2,
        "fpr": m.fpr_cls,
        "fnr": m.fnr_cls,
        "rpr": m.rpr,
        "rnr": m.rnr,
        "feasible": feasible,
        "counts": asdict(c),
    }


def pareto_document(result: EvolveResult, valid: ScoredDataset) -> dict:
    """JSON-ready export of a run: solution records plus run metadata."""
    solutions = [
        solution_record(valid, ind.thresholds, ind.feasible)
        for ind in sorted(result.pareto, key=lambda i: i.thresholds.as_tuple())
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
