import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rejectopt.data import ScoredDataset, synth_two_gaussian
from rejectopt.metrics import (
    ClassPriors,
    CostMatrix,
    RejectionConfusion,
    ThresholdPair,
    confusion_counts,
    empirical_priors,
    essential_metrics,
    expected_cost,
    score_pairs,
)


_MAX = float(np.finfo(np.float64).max)
# signed zeros, the smallest subnormals, the float limits, and 1 between its neighbours
_TIE_POOL = [
    0.0, -0.0, 5e-324, -5e-324, _MAX, -_MAX, 1.0, math.nextafter(1.0, 0.0),
    math.nextafter(1.0, 2.0),
]
_TIE_CUTS = [
    t for v in _TIE_POOL for t in (v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf))
] + [-math.inf, math.inf]


def make_dataset(pairs):
    return ScoredDataset([s for s, _ in pairs], [l for _, l in pairs])


def classify(data, t):
    return score_pairs(data, [t])[0].counts


class TestThresholdPair:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ThresholdPair(0.6, 0.4)

    def test_degenerate_allowed(self):
        assert ThresholdPair(0.5, 0.5).as_tuple() == (0.5, 0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ThresholdPair(float("nan"), 0.5)


class TestClassifyWithRejection:
    def test_degenerate_pair_is_plain_rule(self):
        data = make_dataset([(0.9, 1), (0.1, -1)])
        c = classify(data, ThresholdPair(0.5, 0.5))
        assert (c.tp, c.fn, c.rp, c.fp, c.tn, c.rn) == (1, 0, 0, 0, 1, 0)

    def test_hand_enumerated_band(self):
        data = make_dataset([(0.9, 1), (0.7, 1), (0.6, -1), (0.4, -1), (0.3, 1)])
        c = classify(data, ThresholdPair(0.35, 0.65))
        assert (c.tp, c.fn, c.rp, c.fp, c.tn, c.rn) == (2, 1, 0, 0, 0, 2)

    def test_tie_handling_is_exact(self):
        # boundary scores: s > t2 positive, s <= t1 negative, (t1, t2] rejected
        data = make_dataset([(0.2, -1), (0.5, -1), (0.8, 1)])
        c = classify(data, ThresholdPair(0.2, 0.8))
        assert (c.tn, c.rn, c.rp, c.tp) == (1, 1, 1, 0)

    def test_class_conservation_random(self):
        rng = np.random.default_rng(0)
        data = synth_two_gaussian(33, 47, 0.5, -0.5, 1.0, seed=4)
        lo, hi = data.score_range()
        for _ in range(200):
            a, b = sorted(rng.uniform(lo - 0.5, hi + 0.5, 2))
            c = classify(data, ThresholdPair(a, b))
            assert c.tp + c.fn + c.rp == data.n_pos
            assert c.fp + c.tn + c.rn == data.n_neg

    def test_degenerate_rejects_nothing(self):
        data = synth_two_gaussian(20, 20, 0.5, -0.5, 1.0, seed=4)
        for t in np.linspace(-2, 2, 17):
            c = classify(data, ThresholdPair(t, t))
            assert c.rp == 0 and c.rn == 0

    def test_rejection_monotonicity(self):
        data = synth_two_gaussian(25, 25, 0.5, -0.5, 1.0, seed=6)
        rng = np.random.default_rng(1)
        for _ in range(100):
            t1 = rng.uniform(-2, 1)
            t2a = rng.uniform(t1, 2)
            t2b = rng.uniform(t2a, 2.5)
            ca = classify(data, ThresholdPair(t1, t2a))
            cb = classify(data, ThresholdPair(t1, t2b))
            assert cb.rp >= ca.rp and cb.rn >= ca.rn
            t1_lower = rng.uniform(-2.5, t1)
            cc = classify(data, ThresholdPair(t1_lower, t2a))
            assert cc.rp >= ca.rp and cc.rn >= ca.rn

    def test_same_partition_same_confusion(self):
        data = make_dataset([(0.1, -1), (0.4, -1), (0.6, 1), (0.9, 1)])
        a = classify(data, ThresholdPair(0.2, 0.7))
        b = classify(data, ThresholdPair(0.35, 0.65))
        assert a == b


class TestConfusionCounts:
    def test_batch_matches_direct_counting(self):
        rng = np.random.default_rng(21)
        data = ScoredDataset(np.round(rng.normal(0, 1, 120), 1), rng.choice([1, -1], 120))
        t1 = np.round(rng.uniform(-2, 2, 50), 1)
        t2 = t1 + np.round(rng.uniform(0, 1, 50), 1)
        counts = confusion_counts(data, t1, t2)
        for k in range(50):
            pred_pos = data.scores > t2[k]
            pred_neg = data.scores <= t1[k]
            rej = ~(pred_pos | pred_neg)
            pos, neg = data.labels == 1, data.labels == -1
            direct = [
                (pred_pos & pos).sum(), (pred_neg & pos).sum(), (rej & pos).sum(),
                (pred_pos & neg).sum(), (pred_neg & neg).sum(), (rej & neg).sum(),
            ]
            assert [int(c[k]) for c in counts] == [int(v) for v in direct]

    def test_one_pair_call_is_classify(self):
        data = synth_two_gaussian(30, 40, 0.5, -0.5, 1.0, seed=3)
        c = classify(data, ThresholdPair(-0.3, 0.4))
        counts = confusion_counts(data, [-0.3], [0.4])
        assert [int(a[0]) for a in counts] == [c.tp, c.fn, c.rp, c.fp, c.tn, c.rn]

    def test_unordered_or_nan_pairs_rejected(self):
        data = make_dataset([(0.9, 1), (0.1, -1)])
        with pytest.raises(ValueError, match="t1 <= t2"):
            confusion_counts(data, [0.1, 0.6], [0.2, 0.4])
        with pytest.raises(ValueError, match="t1 <= t2"):
            confusion_counts(data, [float("nan")], [0.4])

    @seed(20261019)
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(_TIE_POOL), st.booleans()), min_size=2, max_size=30
        ).filter(lambda examples: len({p for _, p in examples}) == 2),
        st.lists(st.tuples(st.sampled_from(_TIE_CUTS), st.sampled_from(_TIE_CUTS)), max_size=8),
        st.sampled_from(["pairs", "same array", "0-d", "same 0-d"]),
    )
    def test_counts_match_direct_counting_on_ties(self, examples, pairs, form):
        data = make_dataset([(v, 1 if p else -1) for v, p in examples])
        t1s = np.array([min(a, b) for a, b in pairs])
        t2s = np.array([max(a, b) for a, b in pairs])
        if form.endswith("0-d"):
            t1s, t2s = (np.array(t1s[0]), np.array(t2s[0])) if pairs else (np.array(1.0),) * 2
        if form.startswith("same"):
            t2s = t1s
        counts = confusion_counts(data, t1s, t2s)
        pos, neg = data.scores[data.labels == 1], data.scores[data.labels == -1]
        for c in counts:
            assert c.dtype == np.int64 and c.shape == t1s.shape
            assert isinstance(c, np.ndarray if t1s.ndim else np.integer)
        for k in np.ndindex(t1s.shape):
            t1, t2 = t1s[k], t2s[k]
            direct = [
                (pos > t2).sum(), (pos <= t1).sum(), ((pos > t1) & (pos <= t2)).sum(),
                (neg > t2).sum(), (neg <= t1).sum(), ((neg > t1) & (neg <= t2)).sum(),
            ]
            assert [int(c[k]) for c in counts] == [int(v) for v in direct]


class TestEssentialMetrics:
    def test_partially_rejected_example(self):
        m = essential_metrics(RejectionConfusion(tp=2, fn=1, rp=0, fp=0, tn=0, rn=2))
        assert m.rpr == 0.0
        assert m.rnr == 1.0
        assert m.fnr_all == pytest.approx(1 / 3)
        assert m.tpr_cls == pytest.approx(2 / 3)
        assert m.fpr_cls is None  # no classified negatives
        assert m.auc is None and m.gmean is None

    def test_perfect_classifier(self):
        m = essential_metrics(RejectionConfusion(tp=5, fn=0, rp=0, fp=0, tn=5, rn=0))
        assert (m.acc, m.auc, m.gmean, m.rej) == (1.0, 1.0, 1.0, 0.0)

    def test_overall_reject_rate(self):
        m = essential_metrics(RejectionConfusion(tp=3, fn=1, rp=1, fp=1, tn=3, rn=1))
        assert m.rej == pytest.approx(0.2)

    def test_rate_identities_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            tp, fn, rp, fp, tn, rn = (int(x) for x in rng.integers(0, 30, 6))
            if tp + fn + rp == 0 or fp + tn + rn == 0:
                continue
            m = essential_metrics(RejectionConfusion(tp, fn, rp, fp, tn, rn))
            assert abs(m.tpr_all + m.fnr_all + m.rpr - 1.0) <= 1e-12
            assert abs(m.tnr_all + m.fpr_all + m.rnr - 1.0) <= 1e-12
            if m.tpr_cls is not None:
                assert abs(m.tpr_cls + m.fnr_cls - 1.0) <= 1e-12
            if m.tnr_cls is not None:
                assert abs(m.tnr_cls + m.fpr_cls - 1.0) <= 1e-12


class TestExpectedCost:
    def test_zero_costs(self):
        m = essential_metrics(RejectionConfusion(3, 1, 1, 2, 4, 1))
        priors = ClassPriors(0.5, 0.5)
        assert expected_cost(m, priors, CostMatrix(0, 0, 0, 0, 0, 0)) == 0.0

    def test_perfect_classifier_gains(self):
        m = essential_metrics(RejectionConfusion(tp=5, fn=0, rp=0, fp=0, tn=5, rn=0))
        costs = CostMatrix(ctp=-1, ctn=-1, cfp=0, cfn=0, crp=0, crn=0)
        assert expected_cost(m, ClassPriors(0.5, 0.5), costs) == pytest.approx(-1.0)

    def test_direct_substitution(self):
        m = essential_metrics(RejectionConfusion(tp=8, fn=1, rp=1, fp=1, tn=8, rn=1))
        assert m.tpr_all == 0.8 and m.fnr_all == 0.1 and m.rpr == 0.1
        costs = CostMatrix(ctp=0, ctn=0, cfp=10, cfn=10, crp=1, crn=1)
        cost = expected_cost(m, ClassPriors(0.5, 0.5), costs)
        assert cost == pytest.approx(1.1)

    def test_homogeneity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            counts = [int(x) for x in rng.integers(0, 40, 6)]
            if counts[0] + counts[1] + counts[2] == 0 or counts[3] + counts[4] + counts[5] == 0:
                continue
            m = essential_metrics(RejectionConfusion(*counts))
            p = float(rng.uniform(0.05, 0.95))
            priors = ClassPriors(p, 1 - p)
            values = [float(x) for x in rng.uniform(-10, 50, 6)]
            costs = CostMatrix(*values)
            lam = float(rng.uniform(0.1, 4.0))
            scaled = CostMatrix(*(v * lam for v in values))
            assert abs(
                expected_cost(m, priors, scaled) - lam * expected_cost(m, priors, costs)
            ) <= 1e-12


class TestEmpiricalPriors:
    def test_pima_counts(self):
        data = synth_two_gaussian(268, 500, 1.0, -1.0, 1.0, seed=0)
        priors = empirical_priors(data)
        assert priors.p_pos == pytest.approx(268 / 768)
        assert round(priors.p_pos, 4) == 0.349

    def test_symmetric(self):
        data = ScoredDataset([0.1, 0.9], [1, -1])
        assert empirical_priors(data) == ClassPriors(0.5, 0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            ScoredDataset([0.1, 0.2, 0.3], [-1, -1, -1])


class TestCostMatrix:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(0, 0, math.inf, 0, 0, 0)


class TestClassPriors:
    def test_sum_checked(self):
        with pytest.raises(ValueError):
            ClassPriors(0.6, 0.6)
