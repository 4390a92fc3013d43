"""Published comparison models: the ROC-convex-hull expected-cost minimizer
with its reject-activation condition, and the bounded-abstention model.

Both are solved exactly over candidate thresholds (midpoints between
consecutive distinct scores plus below-min/above-max sentinels), which reach
every achievable confusion matrix on a finite tuning set; each cut's counts
are read from the dataset's cut table. The hull model evaluates all ordered
hull-vertex pairs in one confusion-kernel call.

Each model returns its chosen pair as ``.solution``, a
:class:`~rejectopt.metrics.SolutionEval` scored on the tuning set: its
counts and rates, such as the per-class reject rates the comparison
protocol transfers as caps. The hull model builds it from the counts of
that one kernel call; the bounded-abstention model scores its pair with
:func:`~rejectopt.metrics.score_pairs`.

The ROC points are integer arrays of false- and true-positive counts, and
the hull is exact: its turns are decided by integer cross products of
count differences, so a point collinear with two others in counts is never
kept as a vertex, as it can be when rates are compared in float. Vectorized
passes drop points under the chord of their neighbours in O(k) total work,
and a monotone chain finishes on what is left.

The bounded-abstention model is a ratio objective over a window of upper
cuts per lower cut. A parametric search (Dinkelbach) finds the optimum
ratio from window minima of a sparse table in O(k log k) time; an exact
decision then enumerates, in chunks of bounded size, only the rows holding
a pair that ties that ratio to within a rounding bound, and picks among
them with the float objective and tie order of an exhaustive search. Its
memory stays linear in the number of examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ScoredDataset
from .metrics import (
    ClassPriors,
    CostMatrix,
    RejectionConfusion,
    SolutionEval,
    ThresholdPair,
    confusion_counts,
    score_pairs,
)

_PAIR_CELLS = 1 << 14  # cells per ba_optimize chunk; small chunks stay in cache


def _width(t1s: np.ndarray, t2s: np.ndarray) -> np.ndarray:
    """Tie key t2 - t1, exactly 0 where t1 == t2 (an infinite sentinel cut
    used as both thresholds would otherwise give inf - inf = nan)."""
    return np.subtract(t2s, t1s, out=np.zeros(np.shape(t1s)), where=t1s != t2s)


@dataclass(frozen=True)
class ActivationCheck:
    activated: bool
    degenerate_denominator: bool


@dataclass(frozen=True)
class TortorellaResult:
    solution: SolutionEval  # the chosen pair, scored on the tuning set
    cost: float  # its expected cost on the tuning set
    activated: bool
    degenerate_denominator: bool


@dataclass(frozen=True)
class BaResult:
    solution: SolutionEval  # the chosen pair, scored on the tuning set
    objective: float  # misclassification cost per classified example


def candidate_thresholds(data: ScoredDataset) -> np.ndarray:
    """Ascending candidate cuts: midpoints of distinct scores plus sentinels.

    Over the cut table's distinct scores ``s``, every cut keeps
    ``s_{k-1} <= cut_k < s_k``, so cut k has the table's k-th counts, also at
    huge magnitudes and between adjacent floats: a midpoint that rounds up to
    the upper score or overflows falls back to the lower score, and a
    sentinel that ``s ± 1`` cannot move steps one float outward.
    """
    s = data.cut_table[0]
    lo, hi = s[:-1], s[1:]
    with np.errstate(over="ignore"):
        mids = (lo + hi) / 2.0
        below = np.minimum(s[0] - 1.0, np.nextafter(s[0], -np.inf))
        above = np.maximum(s[-1] + 1.0, np.nextafter(s[-1], np.inf))
    mids = np.where((lo <= mids) & (mids < hi), mids, lo)
    return np.concatenate(([below], mids, [above]))


def roc_points(valid: ScoredDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All achievable single-threshold operating points as ``(fp, tp, cuts)``:
    the false- and true-positive counts (int64) at each candidate cut.

    A cut classifies positive iff score > cut, so descending cuts trace
    the curve from (0, 0) (above-max sentinel) to (n_neg, n_pos)
    (below-min), and the points come lexicographically ascending in
    ``(fp, tp)``. The rates are ``fp / n_neg`` and ``tp / n_pos``.
    """
    _, pos_le, neg_le = valid.cut_table
    cuts = candidate_thresholds(valid)[::-1]
    return valid.n_neg - neg_le[::-1], valid.n_pos - pos_le[::-1], cuts


def _drop_below_chords(fp: np.ndarray, tp: np.ndarray) -> np.ndarray:
    """Indices left after vectorized passes that each drop every interior
    point on or below the chord of its current neighbours; such a point is
    never a hull vertex, so dropping many at once is sound. The passes stop
    after one that drops less than a quarter of the interior, so their work
    is at most about four passes over all points."""
    keep = np.arange(fp.size)
    while keep.size > 2:
        dx, dy = np.diff(fp[keep]), np.diff(tp[keep])
        # cross product of the edges into and out of each interior point;
        # exact in int64 while the counts stay below 2**31
        on_or_below = dx[:-1] * dy[1:] - dy[:-1] * dx[1:] >= 0
        keep = np.concatenate((keep[:1], keep[1:-1][~on_or_below], keep[-1:]))
        if 4 * np.count_nonzero(on_or_below) < on_or_below.size:
            break
    return keep


def rocch(fp: np.ndarray, tp: np.ndarray) -> np.ndarray:
    """Indices of the upper convex hull's vertices, ascending, for points
    given lexicographically ascending in integer counts ``(fp, tp)``.

    The hull is exact: points on a hull edge (collinear) are not vertices,
    and every turn is decided by the integer cross product of count
    differences. Rates divide each axis by a positive class size, which
    scales that product by ``1 / (n_neg * n_pos)`` and keeps its sign; a
    cross product of float rates can round to the wrong side of zero.
    Vectorized passes (:func:`_drop_below_chords`) first remove most
    non-vertices in O(k) total work; Andrew's monotone chain (IPL 1979)
    finishes on the survivors.
    """
    fp = np.asarray(fp, dtype=np.int64)
    tp = np.asarray(tp, dtype=np.int64)
    dx, dy = np.diff(fp), np.diff(tp)
    if not ((dx > 0) | ((dx == 0) & (dy >= 0))).all():
        raise ValueError("points must be lexicographically ascending in (fp, tp)")
    keep = _drop_below_chords(fp, tp)
    hull: list[int] = []
    xs: list[int] = []
    ys: list[int] = []
    for i, x, y in zip(keep.tolist(), fp[keep].tolist(), tp[keep].tolist()):
        # pop while the last vertex lies on or below the chord to (x, y)
        while len(hull) >= 2 and (
            (xs[-1] - xs[-2]) * (y - ys[-1]) >= (ys[-1] - ys[-2]) * (x - xs[-1])
        ):
            del hull[-1], xs[-1], ys[-1]
        hull.append(i)
        xs.append(x)
        ys.append(y)
    return np.array(hull, dtype=np.intp)


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
    fp, tp, cuts = roc_points(valid)
    thresholds = cuts[rocch(fp, tp)][::-1]  # ascending
    check = check_reject_activation(costs)

    if check.activated:
        ii, jj = np.triu_indices(thresholds.size)
    else:
        ii = jj = np.arange(thresholds.size)
    t1s, t2s = thresholds[ii], thresholds[jj]
    counts = confusion_counts(valid, t1s, t2s)
    tp, fn, rp, fp, tn, rn = counts
    n_pos, n_neg = valid.n_pos, valid.n_neg
    # same operation order as essential_metrics + expected_cost, so the same floats
    cost = priors.p_pos * (
        costs.cfn * (fn / n_pos) + costs.ctp * (tp / n_pos) + costs.crp * (rp / n_pos)
    ) + priors.p_neg * (
        costs.ctn * (tn / n_neg) + costs.cfp * (fp / n_neg) + costs.crn * (rn / n_neg)
    )
    rej = (rp + rn) / (n_pos + n_neg)
    # key (cost, rej, t2 - t1, t1, t2); t1 = t2 pairs reduce it to (cost, t)
    best = int(np.lexsort((t2s, t1s, _width(t1s, t2s), rej, cost))[0])
    return TortorellaResult(
        solution=SolutionEval.from_counts(
            ThresholdPair(float(t1s[best]), float(t2s[best])),
            RejectionConfusion(*(int(c[best]) for c in counts)),
        ),
        cost=float(cost[best]),
        activated=check.activated,
        degenerate_denominator=check.degenerate_denominator,
    )


def _window_min(g: np.ndarray, r: np.ndarray, levels: list[np.ndarray]) -> np.ndarray:
    """``min(g[i : r[i] + 1])`` for every i, from a sparse table built one
    level at a time; ``levels[p]`` lists the windows whose length has
    ``floor(log2) == p``, so memory stays linear."""
    out = np.empty_like(g)
    table = g  # at level p, table[x] = min(g[x : x + 2**p])
    for p, rows in enumerate(levels):
        if p:
            half = 1 << (p - 1)
            table = np.minimum(table[:-half], table[half:])
        out[rows] = np.minimum(table[rows], table[r[rows] - (1 << p) + 1])
    return out


def ba_optimize(
    valid: ScoredDataset, k_max: float, cfn: float = 1.0, cfp: float = 1.0
) -> BaResult:
    """Bounded abstention: minimize misclassification cost per classified
    example subject to overall reject rate <= k_max.

    Exact over ordered candidate pairs (i <= j); t1 = t2 pairs reject
    nothing, so a feasible pair always exists. The objective of pair (i, j)
    is ``(cfn*fn_i + cfp*fp_j) / (c_i + e_j)``, where cut i fixes
    ``fn, tn`` as t1 (``c = fn + tn``) and cut j fixes ``tp, fp`` as t2
    (``e = tp + fp``); ties break by smaller reject rate, then band width,
    then (t1, t2). The solver runs in three steps:

    1. Windows. ``e`` falls as j grows, so the feasible t2 cuts of t1 cut i
       form a window ``[i, r(i)]``, found by one binary search against the
       smallest classified count whose reject rate is at most ``k_max``.
    2. Parametric search (Dinkelbach, Management Science 1967). For a ratio
       ``lam``, ``min (cfn*fn_i - lam*c_i) + (cfp*fp_j - lam*e_j)`` splits
       per row; a sparse table gives every window's minimum of the second
       term in O(k log w). ``lam`` becomes the float objective of the best
       pair until it stops decreasing.
    3. Exact decision. Every pair whose exact ratio lies within a rounding
       bound of ``lam`` sits in a row whose window minimum passes a
       conservative slack; those rows are enumerated in chunks of at most
       ``_PAIR_CELLS`` cells with the float objective and the tie key
       above, so the result is that of an exhaustive search in float.

    Time is O(k log k) plus the near-tie rows' windows (the whole band when
    every pair ties, as with zero costs); memory stays linear in the number
    of examples. The costs must be finite and non-negative, with
    ``(cfn*n_pos + cfp*n_neg) * total`` finite.
    """
    if not 0.0 < k_max < 1.0:
        raise ValueError(f"k_max must lie in (0,1), got {k_max}")
    if not (0.0 <= cfn < np.inf and 0.0 <= cfp < np.inf):  # also rejects NaNs
        raise ValueError(f"cfn and cfp must be finite and non-negative, got {cfn}, {cfp}")
    total = len(valid)
    if not math.isfinite((float(cfn) * valid.n_pos + float(cfp) * valid.n_neg) * total):
        raise ValueError("cfn and cfp are too large: (cfn*n_pos + cfp*n_neg)*n overflows")
    cands = candidate_thresholds(valid)
    k = cands.size
    # per-cut counts: a cut used as t1 fixes (fn, tn), used as t2 fixes (tp, fp)
    _, pos_le, neg_le = valid.cut_table
    fn, tn = pos_le.astype(np.float64), neg_le.astype(np.float64)
    tp, fp = valid.n_pos - fn, valid.n_neg - tn
    fn_tn = fn + tn
    tp_fp = tp + fp
    cfn_fn = cfn * fn
    cfp_fp = cfp * fp

    def objective(i, j):
        return (cfn_fn[i] + cfp_fp[j]) / (fn_tn[i] + tp_fp[j])

    # 1. windows: the reject rate falls as the classified count grows
    rej_by_count = (total - np.arange(total + 1.0)) / total
    c_min = total + 1 - np.searchsorted(rej_by_count[::-1], k_max, side="right")
    r = np.searchsorted(-tp_fp, fn_tn - c_min, side="right") - 1  # r(i) >= i
    cuts = np.arange(k)
    level = np.frexp(r - cuts + 1.0)[1] - 1  # floor(log2(window length))
    levels = [np.flatnonzero(level == p) for p in range(level.max() + 1)]

    # 2. parametric search, from the best pair that rejects nothing
    lam = objective(cuts, cuts).min()
    while True:
        g = cfp_fp - lam * tp_fp
        i = int(np.argmin(cfn_fn - lam * fn_tn + _window_min(g, r, levels)))
        j = i + int(np.argmin(g[i : r[i] + 1]))
        nxt = objective(i, j)
        if not nxt < lam:
            break
        lam = nxt

    # 3. exact decision. Two roundings separate a float objective from the
    # exact ratio, so a pair whose float objective is <= lam has a ratio
    # <= lam_hi, and its row's computed minimum errs by less than `slack`
    # (a few roundings of the largest terms; both bounds hold with 4x to
    # spare, and an overflow to -inf or inf only admits more rows)
    with np.errstate(over="ignore"):
        lam_hi = lam * (1.0 + 2.0**-50) + 2.0**-1070
        g = cfp_fp - lam_hi * tp_fp
        row_min = cfn_fn - lam_hi * fn_tn + _window_min(g, r, levels)
        slack = 2.0**-50 * (cfn_fn[-1] + cfp_fp[0] + lam_hi * total) + 2.0**-1060
    rows = np.flatnonzero(row_min <= slack)
    lengths = r[rows] - rows + 1
    ends = np.cumsum(lengths)
    n_cells = int(ends[-1])
    # running best (objective, rej, width, t1, t2); the pair that set lam is
    # enumerated, so the objective ends finite
    best_key: tuple = (np.inf,)
    for start in range(0, n_cells, _PAIR_CELLS):
        cell = np.arange(start, min(start + _PAIR_CELLS, n_cells))
        at = np.searchsorted(ends, cell, side="right")
        i = rows[at]
        j = i + cell - (ends[at] - lengths[at])
        obj_cells = objective(i, j)
        obj = obj_cells.min()
        if obj > best_key[0]:
            continue
        tie = np.flatnonzero(obj_cells == obj)
        i, j = i[tie], j[tie]
        rej = (total - (fn_tn[i] + tp_fp[j])) / total
        low = rej == rej.min()  # only these can win, so only these are sorted
        t1, t2, rej = cands[i[low]], cands[j[low]], rej[low]
        width = _width(t1, t2)
        w = int(np.lexsort((t2, t1, width))[0])
        key = (float(obj), float(rej[w]), float(width[w]), float(t1[w]), float(t2[w]))
        best_key = min(best_key, key)
    best_obj, _, _, t1_best, t2_best = best_key
    return BaResult(score_pairs(valid, [ThresholdPair(t1_best, t2_best)])[0], best_obj)
