"""Rejection rule, confusion matrix with rejection, and derived metrics.

Two rate families coexist and must not be mixed:

* among-all rates divide by every example of a class (tpr_all + fnr_all +
  rpr = 1); the expected-cost objective consumes these;
* among-classified rates divide by the non-rejected examples of a class
  (tpr_cls + fnr_cls = 1); the bi-objective model and the composite
  metrics (acc, auc, gmean) consume these.

An among-classified rate is ``None`` when its class is fully rejected;
callers must handle the marker deliberately instead of propagating NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ScoredDataset


@dataclass(frozen=True)
class ThresholdPair:
    """Rejection thresholds (t1, t2): scores in (t1, t2] are rejected.

    t1 == t2 degenerates to the plain single-threshold rule (no rejection).
    """

    t1: float
    t2: float

    def __post_init__(self) -> None:
        if not (self.t1 <= self.t2):  # also rejects NaNs
            raise ValueError(f"need t1 <= t2, got ({self.t1}, {self.t2})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.t1, self.t2)


@dataclass(frozen=True)
class RejectionConfusion:
    """2x3 confusion counts: per class, (correct, wrong, rejected)."""

    tp: int
    fn: int
    rp: int
    fp: int
    tn: int
    rn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fn", "rp", "fp", "tn", "rn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def n_pos(self) -> int:
        return self.tp + self.fn + self.rp

    @property
    def n_neg(self) -> int:
        return self.fp + self.tn + self.rn

    @property
    def n_classified(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class CostMatrix:
    """Six cost entries; correct-classification costs may be negative (gains)."""

    ctp: float
    ctn: float
    cfp: float
    cfn: float
    crp: float
    crn: float

    def __post_init__(self) -> None:
        for name in ("ctp", "ctn", "cfp", "cfn", "crp", "crn"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class ClassPriors:
    p_pos: float
    p_neg: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_pos <= 1.0 and 0.0 <= self.p_neg <= 1.0):
            raise ValueError("priors must lie in [0,1]")
        if abs(self.p_pos + self.p_neg - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")


@dataclass(frozen=True)
class EssentialMetrics:
    """Every rate either model consumes, both families, plus composites."""

    # among-all family
    tpr_all: float
    fnr_all: float
    rpr: float
    tnr_all: float
    fpr_all: float
    rnr: float
    # among-classified family (None when the class has no classified example)
    tpr_cls: float | None
    fnr_cls: float | None
    tnr_cls: float | None
    fpr_cls: float | None
    # composites
    rej: float
    acc: float | None
    auc: float | None
    gmean: float | None


@dataclass(frozen=True)
class SolutionEval:
    """A threshold pair scored on a fixed dataset: its confusion counts and
    the metrics derived from them."""

    thresholds: ThresholdPair
    counts: RejectionConfusion
    metrics: EssentialMetrics

    @classmethod
    def from_counts(cls, thresholds: ThresholdPair, counts: RejectionConfusion) -> "SolutionEval":
        return cls(thresholds, counts, essential_metrics(counts))

    @property
    def objectives(self) -> tuple[float | None, float | None]:
        """The optimizer's objectives (fpr, fnr), among-classified rates."""
        return (self.metrics.fpr_cls, self.metrics.fnr_cls)


def confusion_counts(data: ScoredDataset, t1s, t2s) -> tuple[np.ndarray, ...]:
    """Vectorized rejection rule: counts for many threshold pairs at once.

    ``t1s`` and ``t2s`` are scalars or equal-shape arrays with t1 <= t2
    elementwise. Returns (tp, fn, rp, fp, tn, rn), each an int64 array (or
    numpy integer for scalar input) of the thresholds' shape, computed with
    the same rule as :func:`classify_with_rejection`: each threshold is one
    search into the dataset's distinct scores, and its per-class counts at
    or below are read from :attr:`ScoredDataset.cut_table`.
    """
    t1s = np.asarray(t1s, dtype=np.float64)
    t2s = np.asarray(t2s, dtype=np.float64)
    if not (t1s <= t2s).all():  # also rejects NaNs
        raise ValueError("need t1 <= t2 for every pair")
    distinct, pos_le, neg_le = data.cut_table
    i = distinct.searchsorted(t1s, side="right")
    j = distinct.searchsorted(t2s, side="right")
    fn, tn = pos_le[i], neg_le[i]
    tp, fp = data.n_pos - pos_le[j], data.n_neg - neg_le[j]
    return tp, fn, pos_le[j] - fn, fp, tn, neg_le[j] - tn


def classify_with_rejection(data: ScoredDataset, t: ThresholdPair) -> RejectionConfusion:
    """Apply the rejection rule and tally counts against true labels.

    Predicted positive iff score > t2; predicted negative iff score <= t1;
    rejected otherwise (score in (t1, t2]).
    """
    return RejectionConfusion(*map(int, confusion_counts(data, t.t1, t.t2)))


def essential_metrics(c: RejectionConfusion) -> EssentialMetrics:
    """Compute both rate families and the composite metrics from counts."""
    n_pos, n_neg = c.n_pos, c.n_neg
    if n_pos < 1 or n_neg < 1:
        raise ValueError("confusion must cover at least one example of each class")
    tpr_all = c.tp / n_pos
    fnr_all = c.fn / n_pos
    rpr = c.rp / n_pos
    tnr_all = c.tn / n_neg
    fpr_all = c.fp / n_neg
    rnr = c.rn / n_neg

    pos_cls = c.tp + c.fn
    neg_cls = c.fp + c.tn
    tpr_cls = c.tp / pos_cls if pos_cls > 0 else None
    fnr_cls = c.fn / pos_cls if pos_cls > 0 else None
    tnr_cls = c.tn / neg_cls if neg_cls > 0 else None
    fpr_cls = c.fp / neg_cls if neg_cls > 0 else None

    rej = (c.rp + c.rn) / (n_pos + n_neg)
    acc = (c.tp + c.tn) / c.n_classified if c.n_classified > 0 else None
    if tpr_cls is not None and tnr_cls is not None:
        auc = (tpr_cls + tnr_cls) / 2.0
        gmean = math.sqrt(tpr_cls * tnr_cls)
    else:
        auc = None
        gmean = None
    return EssentialMetrics(
        tpr_all=tpr_all,
        fnr_all=fnr_all,
        rpr=rpr,
        tnr_all=tnr_all,
        fpr_all=fpr_all,
        rnr=rnr,
        tpr_cls=tpr_cls,
        fnr_cls=fnr_cls,
        tnr_cls=tnr_cls,
        fpr_cls=fpr_cls,
        rej=rej,
        acc=acc,
        auc=auc,
        gmean=gmean,
    )


def expected_cost(m: EssentialMetrics, priors: ClassPriors, costs: CostMatrix) -> float:
    """Prior-weighted expected cost over the six among-all rates."""
    return priors.p_pos * (
        costs.cfn * m.fnr_all + costs.ctp * m.tpr_all + costs.crp * m.rpr
    ) + priors.p_neg * (
        costs.ctn * m.tnr_all + costs.cfp * m.fpr_all + costs.crn * m.rnr
    )


def empirical_priors(data: ScoredDataset) -> ClassPriors:
    total = data.n_pos + data.n_neg
    return ClassPriors(p_pos=data.n_pos / total, p_neg=data.n_neg / total)
