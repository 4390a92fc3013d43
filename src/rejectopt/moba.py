"""Constrained bi-objective threshold search with an elitist genetic engine.

Minimizes (fpr, fnr) — both among-classified rates — over threshold pairs
(t1, t2), subject to per-class reject-rate caps and t1 < t2, with at least
one classified example of each class (so both rates are defined). Constraint
handling is a death penalty: infeasible individuals get objectives (1, 1).
The variables range over the tuning set's score range, and a child that
breaks t1 < t2 is redrawn up to ``_MAX_RETRIES`` times before the operator
falls back to the parent.

The initial population holds one more member than the drawn ones: the pair
(hi, next float above hi), with hi the highest tuning score. It classifies
every example negative and rejects nothing, so it is feasible under any caps
in [0, 1], and its objectives (0, 1) dominate the penalty (1, 1). While a
member dominates (1, 1), no infeasible member is in the first front, and
survivor selection always keeps part of that front, so such a member
survives every generation. Each run therefore ends with a non-empty Pareto
set of feasible pairs, whatever the data and the caps.

A generation works on parallel lists of Python floats — t1, t2, objective
tuples, feasibility, rank and crowding — and each operator handles the
whole generation in one call. Only the final Pareto set leaves the loop as
:class:`~rejectopt.metrics.SolutionEval` objects, scored by one kernel call.

Determinism contract: one seeded generator per run, consumed in a fixed
order. Initialization draws come first; the extra initial member follows
them and draws nothing. Then, for each generation of popsize N:

1. ``integers(0, N, size=2N)`` for the binary tournaments, drawn in the
   order (first, second) per tournament;
2. one ``random(B)`` block, B = N/2 + N + 2N + 2N, whose layout does not
   depend on any outcome: N/2 crossover coins (one per mating pair), N SBX
   first-try uniforms (t1 then t2 per pair), 2N mutation coins and 2N
   mutation first-try uniforms (t1 then t2 per child);
3. redraws for children that break t1 < t2: first the SBX children, child
   by child, two draws (t1, t2) per redraw; then the mutated children,
   child by child, one draw per mutating variable per redraw; at most
   ``_MAX_RETRIES`` redraws per child.

Objective evaluation consumes no randomness.

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
from bisect import bisect_left
from dataclasses import asdict, dataclass

import numpy as np

from .data import ScoredDataset
from .metrics import RejectionConfusion, SolutionEval, ThresholdPair, confusion_counts

Objectives = tuple[float, float]
FrontSet = list[list[int]]  # fronts partition the population, best rank first

_MAX_RETRIES = 100  # redraws of an operator child that breaks t1 < t2


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
        # an infinite index makes every SBX spread 1 and every mutation step 0
        if not (0 <= self.eta_c < math.inf and 0 <= self.eta_m < math.inf):  # also NaNs
            raise ValueError("distribution indexes must be finite and non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    min_f1: float
    min_f2: float
    feasible_count: int


@dataclass
class EvolveResult:
    pareto: list[SolutionEval]  # final first front, each pair once, all feasible, population order
    generations: list[GenerationStats]
    config: MobaConfig
    crossover_fallbacks: int = 0  # mating pairs with a child that fell back
    mutation_fallbacks: int = 0  # children whose mutation fell back


def evaluate_batch(
    t1: list[float], t2: list[float], valid: ScoredDataset, p_max: float, n_max: float
) -> tuple[list[Objectives], list[bool]]:
    """Objectives (fpr, fnr) and feasibility of each pair (t1[i], t2[i]) on
    the tuning set, from one confusion-kernel call.

    A pair is feasible when t1 < t2, both reject rates are within their caps
    and each class keeps a classified example; an infeasible pair gets the
    death penalty (1, 1). Rates are quotients of the counts as Python ints,
    so they equal the floats of :func:`essential_metrics` bit for bit.
    """
    t1s = np.array(t1, dtype=np.float64)
    t2s = np.array(t2, dtype=np.float64)
    counts = (c.tolist() for c in confusion_counts(valid, t1s, t2s))
    n_pos, n_neg = valid.n_pos, valid.n_neg
    p_max, n_max = float(p_max), float(n_max)  # numpy caps would make numpy bools
    objs: list[Objectives] = []
    feasible: list[bool] = []
    for a, b, tp, fn, rp, fp, tn, rn in zip(t1s.tolist(), t2s.tolist(), *counts):
        pos_cls = tp + fn
        neg_cls = fp + tn
        ok = rp / n_pos <= p_max and rn / n_neg <= n_max and a < b and pos_cls > 0 and neg_cls > 0
        objs.append((fp / neg_cls, fn / pos_cls) if ok else (1.0, 1.0))
        feasible.append(ok)
    return objs, feasible


def fast_nondominated_sort(objs: list[Objectives]) -> FrontSet:
    """Partition indices of ``objs`` into fronts, best rank first, each front
    in index order; an index's rank is the position of its front.

    Two-objective sweep (Jensen, IEEE TEC 2003), O(N log N): individuals are
    visited in lexicographic (f1, f2) order, so every dominator of an
    individual is visited before it. The last member of each front holds the
    front's smallest f2, and the fronts dominating an individual form a
    prefix, so a binary search over those last members finds its front.
    Given the visiting order, a last member L dominates o exactly when
    (L.f2, L.f1) < (o.f2, o.f1), and those swapped keys ascend with the
    front, so the search is a ``bisect_left``.
    """
    if not objs:
        raise ValueError("population is empty")
    fronts: FrontSet = []
    lasts: list[Objectives] = []  # swapped key (f2, f1) of each front's last-visited member
    for i in sorted(range(len(objs)), key=objs.__getitem__):
        f1, f2 = objs[i]
        key = (f2, f1)
        r = bisect_left(lasts, key)
        if r == len(fronts):
            fronts.append([i])
            lasts.append(key)
        else:
            fronts[r].append(i)
            lasts[r] = key
    for front in fronts:
        front.sort()
    return fronts


def crowding_distance_assignment(objs: list[Objectives]) -> list[float]:
    """Crowding distances for one mutually non-dominated front, input order.

    Boundary individuals per objective get +inf; interior ones accumulate
    normalized neighbor gaps. A dimension with zero spread contributes 0.
    """
    if not objs:
        raise ValueError("front is empty")
    n = len(objs)
    if n <= 2:
        return [math.inf] * n
    dist = [0.0] * n
    for dim in range(2):
        vals = [o[dim] for o in objs]
        order = sorted(range(n), key=vals.__getitem__)
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        span = vals[order[-1]] - vals[order[0]]
        if span <= 0.0:
            continue
        for k in range(1, n - 1):
            i = order[k]
            if dist[i] == math.inf:
                continue
            dist[i] += (vals[order[k + 1]] - vals[order[k - 1]]) / span
    return dist


def tournament_selection(
    rank: list[int], crowding: list[float], rng: np.random.Generator, count: int
) -> list[int]:
    """Indices of ``count`` binary-tournament winners: lower rank wins, then
    larger crowding, then the first drawn.

    The 2 * count contestants come from one ``rng.integers`` call, drawn in
    the order (first, second) per tournament.
    """
    if len(rank) != len(crowding):
        raise ValueError("tournament requires a rank and a crowding distance per individual")
    drawn = rng.integers(0, len(rank), size=2 * count).tolist()
    winners: list[int] = []
    for a, b in zip(drawn[0::2], drawn[1::2]):
        if rank[b] < rank[a] or (rank[b] == rank[a] and crowding[b] > crowding[a]):
            winners.append(b)
        else:
            winners.append(a)
    return winners


def _sbx_beta(u: float, eta_c: float) -> float:
    """Spread factor for one uniform draw u in (0,1)."""
    if u <= 0.5:
        return (2.0 * u) ** (1.0 / (eta_c + 1.0))
    return (2.0 - 2.0 * u) ** (-1.0 / (eta_c + 1.0))


def sbx_crossover(
    t1: list[float], t2: list[float], coins: list[float], us: list[float],
    eta_c: float, crossover_prob: float, rng: np.random.Generator,
) -> tuple[list[float], list[float], list[int]]:
    """Simulated binary crossover of a generation's mating pairs.

    Parents 2k and 2k+1 form pair k, crossed when ``coins[k] <
    crossover_prob`` and otherwise passed on unchanged. Its two children
    share the spread factors of ``us[2k]`` (t1) and ``us[2k+1]`` (t2), so
    per variable they keep the parents' mean, and u = 0.5 swaps the parents.
    A child violating t1 < t2 is recomputed from two fresh ``rng.random()``
    draws (t1, t2), up to ``_MAX_RETRIES`` redraws, and is then a copy of its
    own parent. Returns the children's t1 and t2 and the indices of the
    children that fell back.
    """
    out1, out2 = list(t1), list(t2)
    fell: list[int] = []
    for k, coin in enumerate(coins):
        if coin >= crossover_prob:
            continue
        first = (_sbx_beta(us[2 * k], eta_c), _sbx_beta(us[2 * k + 1], eta_c))
        for own, mate in ((2 * k, 2 * k + 1), (2 * k + 1, 2 * k)):
            b1, b2 = first
            for tries in range(_MAX_RETRIES + 1):
                if tries:
                    b1, b2 = _sbx_beta(rng.random(), eta_c), _sbx_beta(rng.random(), eta_c)
                x1 = 0.5 * ((1.0 - b1) * t1[own] + (1.0 + b1) * t1[mate])
                x2 = 0.5 * ((1.0 - b2) * t2[own] + (1.0 + b2) * t2[mate])
                if x1 < x2:
                    out1[own], out2[own] = x1, x2
                    break
            else:
                fell.append(own)
    return out1, out2, fell


def _mutation_delta(u: float, eta_m: float) -> float:
    """Polynomial-mutation perturbation for one uniform draw u in (0,1)."""
    if u < 0.5:
        return (2.0 * u) ** (1.0 / (eta_m + 1.0)) - 1.0
    return 1.0 - (2.0 - 2.0 * u) ** (1.0 / (eta_m + 1.0))


def polynomial_mutation(
    t1: list[float], t2: list[float], coins: list[float], us: list[float],
    mutation_prob: float, eta_m: float, lower: float, upper: float, rng: np.random.Generator,
) -> tuple[list[float], list[float], list[int]]:
    """Polynomial mutation of a generation's children (t1[i], t2[i]).

    Variable m of child i mutates when ``coins[2i + m] < mutation_prob``,
    first with ``us[2i + m]``; mutated values are clamped to [lower, upper].
    If the child violates t1 < t2, fresh ``rng.random()`` draws replace the
    u's of its mutating variables (t1 first), up to ``_MAX_RETRIES``
    redraws, and the child is then returned unchanged. Returns the mutated
    t1 and t2 and the indices of the children whose mutation fell back.
    """
    if not (lower < upper and math.isfinite(upper - lower)):
        raise ValueError(f"need lower < upper with a finite span, got ({lower}, {upper})")
    span = upper - lower
    out1, out2 = list(t1), list(t2)
    fell: list[int] = []
    for i, (a, b) in enumerate(zip(t1, t2)):
        m1, m2 = coins[2 * i] < mutation_prob, coins[2 * i + 1] < mutation_prob
        if not (m1 or m2):
            continue
        u1, u2 = us[2 * i], us[2 * i + 1]
        for tries in range(_MAX_RETRIES + 1):
            if tries:
                u1 = rng.random() if m1 else u1
                u2 = rng.random() if m2 else u2
            x1, x2 = a, b
            if m1:
                x1 = a + span * _mutation_delta(u1, eta_m)
                x1 = lower if x1 < lower else upper if x1 > upper else x1
            if m2:
                x2 = b + span * _mutation_delta(u2, eta_m)
                x2 = lower if x2 < lower else upper if x2 > upper else x2
            if x1 < x2:
                out1[i], out2[i] = x1, x2
                break
        else:
            fell.append(i)
    return out1, out2, fell


def pop_initialization(
    valid: ScoredDataset, cfg: MobaConfig, rng: np.random.Generator
) -> tuple[list[float], list[float]]:
    """t1 and t2 of popsize pairs uniform over the score range,
    rejection-sampled to t1 < t2, then of the reject-nothing pair
    (hi, next float above hi), which is feasible under any caps (see the
    module docstring). When hi is max float, the next float is inf, a
    legal cut."""
    lo, hi = resolve_bounds(valid)
    t1, t2 = [], []
    while len(t1) < cfg.popsize:
        a = lo + (hi - lo) * rng.random()
        b = lo + (hi - lo) * rng.random()
        if a < b:
            t1.append(a)
            t2.append(b)
    t1.append(hi)
    t2.append(math.nextafter(hi, math.inf))
    return t1, t2


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
            f"score range ({lo:.6g}, {hi:.6g}): its width overflows; rescale the scores"
        )
    return lo, hi


def elite_preservation(
    objs: list[Objectives], popsize: int
) -> tuple[list[int], list[int], list[float]]:
    """The best ``popsize`` indices of ``objs``: whole fronts in rank order,
    overflow front truncated by descending crowding distance.

    Returns the survivors' indices with, position by position, their rank
    and their crowding distance within their front of ``objs``; tournaments
    and the final Pareto set reuse them.
    """
    keep, rank, crowding = [], [], []
    for r, front in enumerate(fast_nondominated_sort(objs)):
        dists = crowding_distance_assignment([objs[i] for i in front])
        room = popsize - len(keep)
        if len(front) > room:
            order = sorted(range(len(front)), key=dists.__getitem__, reverse=True)[:room]
            front = [front[i] for i in order]
            dists = [dists[i] for i in order]
        keep += front
        rank += [r] * len(front)
        crowding += dists
        if len(keep) == popsize:
            break
    return keep, rank, crowding


def evolve(valid: ScoredDataset, cfg: MobaConfig) -> EvolveResult:
    """Run the full generational loop and return the Pareto set, scored on
    ``valid``, and per-generation diagnostics. Deterministic for a fixed
    config (see the module docstring for the draw order).

    Initialization and mutation range over the tuning set's score range
    (see :func:`resolve_bounds`).
    """
    lo, hi = resolve_bounds(valid)
    n, half = cfg.popsize, cfg.popsize // 2
    p_max, n_max = cfg.p_max, cfg.n_max

    rng = np.random.default_rng(cfg.seed)
    t1, t2 = pop_initialization(valid, cfg, rng)
    objs, feas = evaluate_batch(t1, t2, valid, p_max, n_max)
    stats: list[GenerationStats] = []
    crossover_fallbacks = mutation_fallbacks = 0

    for gen in range(cfg.gensize + 1):
        keep, rank, crowding = elite_preservation(objs, n)
        t1, t2, objs, feas = ([x[i] for i in keep] for x in (t1, t2, objs, feas))
        f1, f2 = min(o[0] for o in objs), min(o[1] for o in objs)
        stats.append(GenerationStats(gen, f1, f2, sum(feas)))
        if gen == cfg.gensize:
            break

        won = tournament_selection(rank, crowding, rng, n)
        block = rng.random(half + 5 * n).tolist()
        c1, c2, fell = sbx_crossover(
            [t1[i] for i in won], [t2[i] for i in won], block[:half], block[half:half + n],
            cfg.eta_c, cfg.crossover_prob, rng,
        )
        crossover_fallbacks += len({i // 2 for i in fell})
        c1, c2, fell = polynomial_mutation(
            c1, c2, block[half + n:half + 3 * n], block[half + 3 * n:],
            cfg.mutation_prob, cfg.eta_m, lo, hi, rng,
        )
        mutation_fallbacks += len(fell)

        c_objs, c_feas = evaluate_batch(c1, c2, valid, p_max, n_max)
        t1, t2, objs, feas = t1 + c1, t2 + c2, objs + c_objs, feas + c_feas

    # survivors can repeat a pair; the Pareto set lists each classifier once
    front = list(dict.fromkeys((a, b) for a, b, r in zip(t1, t2, rank) if r == 0))
    counts = zip(*(c.tolist() for c in confusion_counts(valid, *zip(*front))))
    pareto = [
        SolutionEval.from_counts(ThresholdPair(*t), RejectionConfusion(*c))
        for t, c in zip(front, counts)
    ]
    return EvolveResult(pareto, stats, cfg, crossover_fallbacks, mutation_fallbacks)


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
