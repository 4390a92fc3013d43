"""Published comparison models: the ROC-convex-hull expected-cost minimizer
with its reject-activation condition, and the bounded-abstention model.

Both are solved exactly over candidate thresholds (midpoints between
consecutive distinct scores plus below-min/above-max sentinels), which reach
every achievable confusion matrix on a finite tuning set. The hull model
evaluates all ordered hull-vertex pairs in one confusion-kernel call. The
bounded-abstention model sweeps only the band of candidate pairs its reject
budget allows, in chunks of bounded size, so its memory stays linear in the
number of examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ScoredDataset
from .metrics import (
    ClassPriors,
    CostMatrix,
    ThresholdPair,
    classify_with_rejection,
    confusion_counts,
    essential_metrics,
)

_PAIR_CELLS = 1 << 14  # cells per ba_optimize chunk; small chunks stay in cache


def _width(t1s: np.ndarray, t2s: np.ndarray) -> np.ndarray:
    """Tie key t2 - t1, exactly 0 where t1 == t2 (an infinite sentinel cut
    used as both thresholds would otherwise give inf - inf = nan)."""
    return np.subtract(t2s, t1s, out=np.zeros(np.shape(t1s)), where=t1s != t2s)


@dataclass(frozen=True)
class RocPoint:
    """One operating point: among-all rates at a single score cut."""

    fpr: float
    tpr: float
    threshold: float


@dataclass(frozen=True)
class ActivationCheck:
    activated: bool
    degenerate_denominator: bool


@dataclass(frozen=True)
class TortorellaResult:
    thresholds: ThresholdPair
    cost: float  # expected cost on the tuning set
    activated: bool
    degenerate_denominator: bool
    rpr: float  # tuning-set per-class reject rates, exposed for cap transfer
    rnr: float


@dataclass(frozen=True)
class BaResult:
    thresholds: ThresholdPair
    objective: float  # misclassification cost per classified example
    rej: float  # tuning-set overall reject rate
    rpr: float
    rnr: float


def candidate_thresholds(data: ScoredDataset) -> np.ndarray:
    """Ascending candidate cuts: midpoints of distinct scores plus sentinels.

    Every cut keeps ``s_i <= cut_i < s_{i+1}`` over the distinct scores
    ``s``, so consecutive cuts differ by at least one example, also at huge
    magnitudes and between adjacent floats: a midpoint that rounds up to the
    upper score or overflows falls back to the lower score, and a sentinel
    that ``s ± 1`` cannot move steps one float outward.
    """
    s = np.unique(data.scores)
    lo, hi = s[:-1], s[1:]
    with np.errstate(over="ignore"):
        mids = (lo + hi) / 2.0
        below = np.minimum(s[0] - 1.0, np.nextafter(s[0], -np.inf))
        above = np.maximum(s[-1] + 1.0, np.nextafter(s[-1], np.inf))
    mids = np.where((lo <= mids) & (mids < hi), mids, lo)
    return np.concatenate(([below], mids, [above]))


def roc_points(valid: ScoredDataset) -> list[RocPoint]:
    """All achievable single-threshold operating points, fpr ascending.

    A cut classifies positive iff score > cut, so descending cuts trace
    the curve from (0,0) (above-max sentinel) to (1,1) (below-min).
    """
    valid.require_both_classes()
    cands = candidate_thresholds(valid)[::-1]
    tp, _, _, fp, _, _ = confusion_counts(valid, cands, cands)
    tprs = (tp / valid.n_pos).tolist()
    fprs = (fp / valid.n_neg).tolist()
    return [
        RocPoint(fpr=fpr, tpr=tpr, threshold=c)
        for fpr, tpr, c in zip(fprs, tprs, cands.tolist())
    ]


def _cross(o: RocPoint, a: RocPoint, b: RocPoint) -> float:
    return (a.fpr - o.fpr) * (b.tpr - o.tpr) - (a.tpr - o.tpr) * (b.fpr - o.fpr)


def rocch(points: list[RocPoint]) -> list[RocPoint]:
    """Upper convex hull in ROC space; collinear interior points dropped."""
    pts = sorted(points, key=lambda p: (p.fpr, p.tpr))
    hull: list[RocPoint] = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0.0:
            hull.pop()
        hull.append(p)
    return hull


def check_reject_activation(costs: CostMatrix) -> ActivationCheck:
    """Cost-structure condition under which a rejection band can pay off.

    A zero denominator (CFN = CRP or CTP = CRP) is reported as
    not-activated with the diagnostic flag set instead of guessing a sign
    convention.
    """
    d1 = costs.cfn - costs.crp
    d2 = costs.ctp - costs.crp
    if d1 == 0.0 or d2 == 0.0:
        return ActivationCheck(activated=False, degenerate_denominator=True)
    lhs = (costs.ctn - costs.crn) / d1
    rhs = (costs.cfp - costs.crn) / d2
    return ActivationCheck(activated=lhs > rhs, degenerate_denominator=False)


def tortorella_optimize(
    valid: ScoredDataset, costs: CostMatrix, priors: ClassPriors
) -> TortorellaResult:
    """Expected-cost minimizer over hull-vertex thresholds.

    Not activated: best single hull threshold, returned as t1 = t2.
    Activated: exhaustive search over ordered hull-vertex pairs (t1 <= t2)
    minimizing the expected cost on the tuning set; on a finite set this
    attains the same optimum as the published tangent construction. Ties
    break by smaller reject rate, then band width, then (t1, t2).
    """
    valid.require_both_classes()
    hull = rocch(roc_points(valid))
    thresholds = np.array(sorted({p.threshold for p in hull}))
    check = check_reject_activation(costs)

    if check.activated:
        ii, jj = np.triu_indices(thresholds.size)
    else:
        ii = jj = np.arange(thresholds.size)
    t1s, t2s = thresholds[ii], thresholds[jj]
    tp, fn, rp, fp, tn, rn = confusion_counts(valid, t1s, t2s)
    n_pos, n_neg = valid.n_pos, valid.n_neg
    rpr = rp / n_pos
    rnr = rn / n_neg
    # same operation order as essential_metrics + expected_cost, so the same floats
    cost = priors.p_pos * (
        costs.cfn * (fn / n_pos) + costs.ctp * (tp / n_pos) + costs.crp * rpr
    ) + priors.p_neg * (
        costs.ctn * (tn / n_neg) + costs.cfp * (fp / n_neg) + costs.crn * rnr
    )
    rej = (rp + rn) / (n_pos + n_neg)
    # key (cost, rej, t2 - t1, t1, t2); t1 = t2 pairs reduce it to (cost, t)
    best = int(np.lexsort((t2s, t1s, _width(t1s, t2s), rej, cost))[0])
    return TortorellaResult(
        thresholds=ThresholdPair(float(t1s[best]), float(t2s[best])),
        cost=float(cost[best]),
        activated=check.activated,
        degenerate_denominator=check.degenerate_denominator,
        rpr=float(rpr[best]),
        rnr=float(rnr[best]),
    )


def ba_optimize(
    valid: ScoredDataset, k_max: float, cfn: float = 1.0, cfp: float = 1.0
) -> BaResult:
    """Bounded abstention: minimize misclassification cost per classified
    example subject to overall reject rate <= k_max.

    Exact over ordered candidate pairs (i <= j); t1 = t2 pairs reject
    nothing, so a feasible pair always exists. Consecutive cuts differ by at
    least one example, so a pair rejects at least ``j - i`` examples and only
    a band of ``j - i <= k_max * total + 1`` can be feasible. The band is
    swept in chunks of at most ``_PAIR_CELLS`` cells, so memory stays linear
    in the number of examples whatever ``k_max``. Ties break by smaller
    reject rate, then band width, then (t1, t2). The costs must be finite
    and non-negative.
    """
    valid.require_both_classes()
    if not 0.0 < k_max < 1.0:
        raise ValueError(f"k_max must lie in (0,1), got {k_max}")
    if not (0.0 <= cfn < np.inf and 0.0 <= cfp < np.inf):  # also rejects NaNs
        raise ValueError(f"cfn and cfp must be finite and non-negative, got {cfn}, {cfp}")
    cands = candidate_thresholds(valid)
    total = len(valid)
    # per-cut counts: a cut used as t1 fixes (fn, tn), used as t2 fixes (tp, fp)
    tp, fn, _, fp, tn, _ = (
        c.astype(np.float64) for c in confusion_counts(valid, cands, cands)
    )
    fn_tn = fn + tn
    cfn_fn = cfn * fn
    cfp_fp = cfp * fp

    k = cands.size
    width = min(k, int(k_max * total) + 2)  # offsets j - i in [0, width)
    n_cells = k * width
    # running best (objective, rej, width, t1, t2); the first chunk holds the
    # always-feasible pair (0, 0), so it sets a finite objective
    best_key: tuple = (np.inf,)
    for start in range(0, n_cells, _PAIR_CELLS):
        cell = np.arange(start, min(start + _PAIR_CELLS, n_cells))
        i, d = np.divmod(cell, width)
        j = i + d
        inside = j < k
        i, j = i[inside], j[inside]
        classified = fn_tn[i] + tp[j] + fp[j]
        rej = (total - classified) / total
        feasible = (rej <= k_max) & (classified >= 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            objective = np.where(feasible, (cfn_fn[i] + cfp_fp[j]) / classified, np.inf)
        obj = objective.min(initial=np.inf)
        if obj > best_key[0]:
            continue
        tie = np.flatnonzero(objective == obj)
        t1, t2 = cands[i[tie]], cands[j[tie]]
        width_tie = _width(t1, t2)
        w = int(np.lexsort((t2, t1, width_tie, rej[tie]))[0])
        key = (float(obj), float(rej[tie[w]]), float(width_tie[w]), float(t1[w]), float(t2[w]))
        best_key = min(best_key, key)
    best_obj, _, _, t1_best, t2_best = best_key
    pair = ThresholdPair(t1_best, t2_best)
    m = essential_metrics(classify_with_rejection(valid, pair))
    return BaResult(
        thresholds=pair,
        objective=best_obj,
        rej=m.rej,
        rpr=m.rpr,
        rnr=m.rnr,
    )
