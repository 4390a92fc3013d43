import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from rejectopt import baselines
from rejectopt.baselines import (
    BaResult,
    TortorellaResult,
    ba_optimize,
    candidate_thresholds,
    check_reject_activation,
    roc_points,
    rocch,
    tortorella_optimize,
)
from rejectopt.data import ScoredDataset, synth_two_gaussian
from rejectopt.harness import builtin_cost_models, sample_cost_matrix
from rejectopt.metrics import (
    CostMatrix,
    RejectionConfusion,
    ThresholdPair,
    classify_with_rejection,
    empirical_priors,
    essential_metrics,
    expected_cost,
)


def make_dataset(pairs):
    return ScoredDataset([s for s, _ in pairs], [l for _, l in pairs])


def brute_force_ba(data, k_max, cfn, cfp):
    """Independent double-loop oracle: direct per-example counting."""
    scores = data.scores.tolist()
    labels = data.labels.tolist()
    s = sorted(set(scores))
    cands = [s[0] - 1.0] + [(a + b) / 2 for a, b in zip(s, s[1:])] + [s[-1] + 1.0]
    total = len(scores)
    best = None
    for t1 in cands:
        for t2 in cands:
            if t1 > t2:
                continue
            fn = fp = tn = tp = rej = 0
            for sc, lb in zip(scores, labels):
                if sc > t2:
                    if lb == 1:
                        tp += 1
                    else:
                        fp += 1
                elif sc <= t1:
                    if lb == 1:
                        fn += 1
                    else:
                        tn += 1
                else:
                    rej += 1
            if rej / total > k_max:
                continue
            classified = tp + fp + tn + fn
            if classified == 0:
                continue
            obj = (cfn * fn + cfp * fp) / classified
            if best is None or obj < best:
                best = obj
    return best


def brute_force_min_cost(data, costs, priors, single_cuts=False):
    """Independent oracle: the least expected cost over every ordered pair of
    candidate cuts (t1 <= t2), or over every single cut (t1 = t2), counted
    example by example."""
    scores = data.scores.tolist()
    labels = data.labels.tolist()
    s = sorted(set(scores))
    cands = [s[0] - 1.0] + [(a + b) / 2 for a, b in zip(s, s[1:])] + [s[-1] + 1.0]
    best = None
    for i, t1 in enumerate(cands):
        for t2 in cands[i : i + 1] if single_cuts else cands[i:]:
            tp = fn = rp = fp = tn = rn = 0
            for sc, lb in zip(scores, labels):
                if sc > t2:
                    tp, fp = (tp + 1, fp) if lb == 1 else (tp, fp + 1)
                elif sc <= t1:
                    fn, tn = (fn + 1, tn) if lb == 1 else (fn, tn + 1)
                else:
                    rp, rn = (rp + 1, rn) if lb == 1 else (rp, rn + 1)
            m = essential_metrics(RejectionConfusion(tp, fn, rp, fp, tn, rn))
            cost = expected_cost(m, priors, costs)
            if best is None or cost < best:
                best = cost
    return best


def dense_ba(valid, k_max, cfn=1.0, cfp=1.0):
    """Dense k x k reference solver: every ordered candidate pair at once,
    ties resolved by a Python loop over the cells at the optimum."""
    cands = candidate_thresholds(valid)
    pos = np.sort(valid.scores[valid.labels == 1])
    neg = np.sort(valid.scores[valid.labels == -1])
    n_pos, n_neg = pos.size, neg.size
    total = n_pos + n_neg

    pos_le = np.searchsorted(pos, cands, side="right")
    neg_le = np.searchsorted(neg, cands, side="right")

    fn = pos_le[:, None].astype(np.float64)
    tn = neg_le[:, None].astype(np.float64)
    tp = (n_pos - pos_le)[None, :].astype(np.float64)
    fp = (n_neg - neg_le)[None, :].astype(np.float64)
    classified = fn + tn + tp + fp
    rejected = total - classified
    rej = rejected / total

    k = cands.size
    ordered = np.triu(np.ones((k, k), dtype=bool))  # i <= j, i.e. t1 <= t2
    feasible = ordered & (rej <= k_max) & (classified >= 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        objective = np.where(classified >= 1, (cfn * fn + cfp * fp) / classified, np.inf)
    objective = np.where(feasible, objective, np.inf)

    best_obj = objective.min()
    ii, jj = np.nonzero(objective == best_obj)
    best_key = None
    best_ij = None
    for i, j in zip(ii.tolist(), jj.tolist()):
        key = (rej[i, j], cands[j] - cands[i], cands[i], cands[j])
        if best_key is None or key < best_key:
            best_key, best_ij = key, (i, j)
    i, j = best_ij
    pair = ThresholdPair(float(cands[i]), float(cands[j]))
    m = essential_metrics(classify_with_rejection(valid, pair))
    return BaResult(thresholds=pair, objective=float(best_obj), rej=m.rej, rpr=m.rpr, rnr=m.rnr)


def loop_roc_points(valid):
    """One binary search per candidate cut, descending."""
    pos = np.sort(valid.scores[valid.labels == 1])
    neg = np.sort(valid.scores[valid.labels == -1])
    cuts = candidate_thresholds(valid)[::-1]
    fp = [neg.size - int(np.searchsorted(neg, c, side="right")) for c in cuts]
    tp = [pos.size - int(np.searchsorted(pos, c, side="right")) for c in cuts]
    return fp, tp, cuts.tolist()


def brute_hull(fp, tp):
    """Independent exact oracle over Python ints: a point is a hull vertex
    iff it lies strictly above every segment joining an earlier point to a
    later one (lexicographic order), so the two ends always are."""
    pts = list(zip(map(int, fp), map(int, tp)))

    def strictly_above(a, q, b):
        return (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0]) > 0

    return [
        i
        for i, q in enumerate(pts)
        if all(strictly_above(a, q, b) for a in pts[:i] for b in pts[i + 1 :])
    ]


def loop_tortorella(valid, costs, priors):
    """Per-pair scalar evaluation over the hull thresholds, keyed tuples."""
    fp, tp, cuts = roc_points(valid)
    thresholds = sorted(cuts[rocch(fp, tp)].tolist())
    check = check_reject_activation(costs)
    if check.activated:
        pairs = [(t1, t2) for i, t1 in enumerate(thresholds) for t2 in thresholds[i:]]
    else:
        pairs = [(t, t) for t in thresholds]
    best_key = best = None
    for t1, t2 in pairs:
        m = essential_metrics(classify_with_rejection(valid, ThresholdPair(t1, t2)))
        cost = expected_cost(m, priors, costs)
        key = (cost, m.rej, t2 - t1, t1, t2) if check.activated else (cost, t1)
        if best_key is None or key < best_key:
            best_key, best = key, (ThresholdPair(t1, t2), cost, m)
    pair, cost, m = best
    return TortorellaResult(
        thresholds=pair,
        cost=cost,
        activated=check.activated,
        degenerate_denominator=check.degenerate_denominator,
        rpr=m.rpr,
        rnr=m.rnr,
    )


def tied_dataset(levels, is_pos, positions):
    """Scores drawn from a few unevenly spaced levels (many exact ties);
    both classes present."""
    labels = [1 if p else -1 for p in is_pos]
    labels[0], labels[-1] = 1, -1
    return ScoredDataset([positions[lv % len(positions)] for lv in levels], labels)


tied_examples = st.integers(2, 40).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.integers(-40, 40).map(lambda v: v / 8), min_size=1, max_size=7),
    )
)

_MAX = float(np.finfo(np.float64).max)

# zero, non-dyadic decimals (float ties differ from exact ones) and a range
ba_costs = st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.7]), st.floats(0.01, 10.0))


def unique_candidate_thresholds(data):
    """``candidate_thresholds`` on ``np.unique``'s distinct scores: the
    reference for its numpy.ma-free distinct step."""
    s = np.unique(data.scores)
    lo, hi = s[:-1], s[1:]
    with np.errstate(over="ignore"):
        mids = (lo + hi) / 2.0
        below = np.minimum(s[0] - 1.0, np.nextafter(s[0], -np.inf))
        above = np.maximum(s[-1] + 1.0, np.nextafter(s[-1], np.inf))
    mids = np.where((lo <= mids) & (mids < hi), mids, lo)
    return np.concatenate(([below], mids, [above]))


# signed zeros, subnormals, adjacent floats and the float limits
_TIE_SCORES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.2250738585072014e-308, 1.0, -1.0,
    float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0)), _MAX, -_MAX,
    float(np.nextafter(_MAX, 0.0)),
]


def extreme_scores(base, steps, mode):
    """Scores at a huge magnitude: adjacent floats, or a spread of multiples."""
    out = []
    for m in steps:
        if mode == "adjacent":
            s = base
            for _ in range(m):
                s = float(np.nextafter(s, 0.0))
        elif mode == "spread":
            s = base * (1.0 - m / 8.0)
        else:  # both signs
            s = base * (1.0 - m / 8.0) * (-1.0) ** m
        out.append(s)
    return out


def counts(points):
    fp, tp, _ = points
    return list(zip(fp.tolist(), tp.tolist()))


class TestRocPoints:
    def test_two_example_points(self):
        data = make_dataset([(0.9, 1), (0.1, -1)])
        assert counts(roc_points(data)) == [(0, 0), (0, 1), (1, 1)]

    def test_perfect_ranking_hull_through_corner(self):
        data = make_dataset([(0.9, 1), (0.8, 1), (0.2, -1), (0.1, -1)])
        fp, tp, _ = roc_points(data)
        hull = rocch(fp, tp)
        assert (0, 2) in zip(fp[hull].tolist(), tp[hull].tolist())

    def test_degenerate_single_score(self):
        data = make_dataset([(0.5, 1), (0.5, 1), (0.5, -1)])
        assert counts(roc_points(data)) == [(0, 0), (1, 2)]

    def test_fpr_ascending(self):
        data = synth_two_gaussian(20, 30, 0.7, -0.7, 1.0, seed=0)
        pts = counts(roc_points(data))
        assert pts == sorted(pts)  # lexicographically, so fp ascending

    @settings(max_examples=200, deadline=None)
    @given(tied_examples)
    def test_matches_loop_oracle(self, example_lists):
        data = tied_dataset(*example_lists)
        fp, tp, cuts = roc_points(data)
        assert (fp.tolist(), tp.tolist(), cuts.tolist()) == loop_roc_points(data)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([1e17, -1e17, 1e308, -1e308, _MAX, -_MAX, 1.0]),
        st.sampled_from(["adjacent", "spread", "signed"]),
        st.lists(st.integers(0, 6), min_size=2, max_size=20),
        st.randoms(use_true_random=False),
    )
    @example(1e17, "spread", [0, 2, 4, 6], None)  # scores 1e17 .. 2.5e16
    def test_huge_magnitudes_reach_both_corners(self, base, mode, steps, shuffler):
        scores = extreme_scores(base, steps, mode)
        labels = [1 if i % 2 else -1 for i in range(len(scores))]
        if shuffler is not None:
            shuffler.shuffle(labels)
        labels[0], labels[-1] = 1, -1
        data = ScoredDataset(scores, labels)
        s = np.unique(data.scores)
        cands = candidate_thresholds(data)
        assert cands.size == s.size + 1
        assert cands[0] < s[0] and cands[-1] >= s[-1]
        assert np.all((s[:-1] <= cands[1:-1]) & (cands[1:-1] < s[1:]))
        fp, tp, cuts = roc_points(data)
        assert fp.size == s.size + 1
        assert (fp[0], tp[0]) == (0, 0)
        assert (fp[-1], tp[-1]) == (data.n_neg, data.n_pos)
        assert (fp.tolist(), tp.tolist(), cuts.tolist()) == loop_roc_points(data)
        assert rocch(fp, tp).tolist() == brute_hull(fp, tp)

    @seed(20261020)
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(_TIE_SCORES), st.floats(allow_nan=False, allow_infinity=False)
            ),
            min_size=1,
            max_size=40,
        )
    )
    @example([0.0, -0.0, 0.0, -0.0])
    @example([-0.0, 5e-324, 0.0, -5e-324, -0.0])
    def test_distinct_scores_match_unique(self, scores):
        data = ScoredDataset(scores * 2, [1] * len(scores) + [-1] * len(scores))
        assert candidate_thresholds(data).tobytes() == unique_candidate_thresholds(data).tobytes()

    def test_ordinary_cuts_unchanged(self):
        data = synth_two_gaussian(30, 30, 0.5, -0.5, 1.0, seed=4)
        s = np.unique(data.scores)
        expected = np.concatenate(([s[0] - 1.0], (s[:-1] + s[1:]) / 2.0, [s[-1] + 1.0]))
        assert candidate_thresholds(data).tobytes() == expected.tobytes()


def rates(data):
    """Hull vertex rates (fpr, tpr) and every point's rates."""
    fp, tp, _ = roc_points(data)
    fpr, tpr = fp / data.n_neg, tp / data.n_pos
    hull = rocch(fp, tp)
    return fpr[hull].tolist(), tpr[hull].tolist(), list(zip(fpr.tolist(), tpr.tolist()))


class TestRocch:
    # the hand-built cases are the rate points of a 10-example class pair, in counts

    def test_interior_point_below_chord_dropped(self):
        fp, tp = [0, 2, 5, 10], [0, 8, 4, 10]
        assert rocch(fp, tp).tolist() == [0, 1, 3]

    def test_collinear_interior_dropped(self):
        assert rocch([0, 5, 10], [0, 5, 10]).tolist() == [0, 2]

    def test_idempotent_on_convex_input(self):
        fp, tp = np.array([0, 1, 4, 10]), np.array([0, 6, 9, 10])
        hull = rocch(fp, tp)
        assert hull.tolist() == [0, 1, 2, 3]
        assert rocch(fp[hull], tp[hull]).tolist() == hull.tolist()

    def test_unsorted_points_rejected(self):
        with pytest.raises(ValueError, match="lexicographically ascending"):
            rocch([0, 5, 2, 10], [0, 4, 8, 10])
        with pytest.raises(ValueError, match="lexicographically ascending"):
            rocch([0, 0, 1], [2, 1, 3])  # equal fp, descending tp

    def test_hull_dominates_raw_points(self):
        xs, ys, pts = rates(synth_two_gaussian(40, 40, 0.6, -0.6, 1.0, seed=2))
        for px, py in pts:
            # hull interpolation at px
            y = max(
                ys[i] + (ys[i + 1] - ys[i]) * (px - xs[i]) / (xs[i + 1] - xs[i])
                if xs[i + 1] > xs[i]
                else max(ys[i], ys[i + 1])
                for i in range(len(xs) - 1)
                if xs[i] <= px <= xs[i + 1]
            )
            assert py <= y + 1e-12

    def test_hull_slopes_nonincreasing(self):
        xs, ys, _ = rates(synth_two_gaussian(35, 45, 0.6, -0.6, 1.0, seed=3))
        slopes = []
        for (ax, ay), (bx, by) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
            dx = bx - ax
            slopes.append(float("inf") if dx == 0 else (by - ay) / dx)
        assert all(s1 >= s2 - 1e-12 for s1, s2 in zip(slopes, slopes[1:]))

    def test_collinear_counts_dropped_where_float_rates_round(self):
        # (1,2), (2,3), (3,4) are collinear in counts; the rates 1/3 and 2/3
        # round, and a float cross product kept the middle one (cut 3.0)
        data = ScoredDataset([5, 5, 1, 4, 5, 2, 4], [1, 1, 1, 1, -1, -1, -1])
        fp, tp, cuts = roc_points(data)
        assert counts((fp, tp, cuts)) == [(0, 0), (1, 2), (2, 3), (3, 3), (3, 4)]
        assert cuts[rocch(fp, tp)].tolist() == [6.0, 4.5, 0.0]

    def test_exact_hull_of_large_input(self):
        # a float-rate hull kept 44 vertices here, two of them collinear
        fp, tp, _ = roc_points(synth_two_gaussian(2500, 2500, 1, -1, 1, seed=16))
        assert rocch(fp, tp).size == 42

    @pytest.mark.parametrize("m, r", [(12, 6), (1000, 500)])
    def test_long_concave_staircase_finished_by_the_chain(self, m, r):
        # rises of m, m-1, ..., 1, each followed by one step right, then a last
        # rise to the line through the top corners of rises r-1 and r. Each
        # pass can expose only the last top corner, so the passes stop by
        # their bound with about m non-vertices left, and the chain removes
        # them, down to the corner of rise r, collinear on the last hull edge
        fp, tp = [0], [0]
        for rise in range(m, 0, -1):
            fp += [fp[-1], fp[-1] + 1]
            tp += [tp[-1] + rise, tp[-1] + rise]
        fp.append(m)
        tp.append(tp[2 * r - 1] + (m - r + 1) ** 2)  # top corner of rise j: index 2j-1
        expected = [0] + [2 * j - 1 for j in range(1, r)] + [2 * m + 1]
        assert baselines._drop_below_chords(np.array(fp), np.array(tp)).size > m
        assert rocch(fp, tp).tolist() == expected
        if m < 20:
            assert brute_hull(fp, tp) == expected

    @settings(max_examples=200, deadline=None)
    @given(tied_examples)
    def test_matches_exact_oracle(self, example_lists):
        fp, tp, _ = roc_points(tied_dataset(*example_lists))
        assert rocch(fp, tp).tolist() == brute_hull(fp, tp)


class TestRejectActivation:
    def test_symmetric_matrix_activated(self):
        costs = CostMatrix(ctp=-5, ctn=-5, cfp=40, cfn=40, crp=1, crn=1)
        assert check_reject_activation(costs).activated

    def test_sign_analysis_activated(self):
        costs = CostMatrix(ctp=-2, ctn=0, cfp=10, cfn=10, crp=0, crn=0)
        assert check_reject_activation(costs).activated

    def test_zero_denominator_diagnostic(self):
        costs = CostMatrix(ctp=-5, ctn=-5, cfp=40, cfn=1, crp=1, crn=1)  # cfn == crp
        check = check_reject_activation(costs)
        assert not check.activated and check.degenerate_denominator

    def test_not_activated(self):
        costs = CostMatrix(ctp=-1, ctn=-50, cfp=1, cfn=1, crp=0, crn=0)
        check = check_reject_activation(costs)
        assert not check.activated and not check.degenerate_denominator


class TestTortorella:
    @staticmethod
    def overlapping_data():
        return synth_two_gaussian(40, 40, 0.5, -0.5, 1.0, seed=11)

    def test_rejection_band_beats_single_threshold(self):
        data = self.overlapping_data()
        costs = CostMatrix(ctp=-1, ctn=-1, cfp=100, cfn=100, crp=0, crn=0)
        priors = empirical_priors(data)
        res = tortorella_optimize(data, costs, priors)
        assert res.activated
        assert res.thresholds.t2 - res.thresholds.t1 > 0
        # exhaustive single-threshold check over every candidate cut
        for c in candidate_thresholds(data):
            single, _ = _cost_and_rej(data, float(c), float(c), costs, priors)
            assert res.cost <= single + 1e-12

    def test_separable_data_reaches_gain_floor(self):
        data = make_dataset([(0.9, 1), (0.8, 1), (0.2, -1), (0.1, -1)])
        costs = CostMatrix(ctp=-1, ctn=-1, cfp=50, cfn=50, crp=0.5, crn=0.5)
        res = tortorella_optimize(data, costs, empirical_priors(data))
        assert res.cost == pytest.approx(-1.0)  # all correct at gain -1 each

    def test_not_activated_returns_degenerate_pair(self):
        data = self.overlapping_data()
        costs = CostMatrix(ctp=-1, ctn=-50, cfp=1, cfn=1, crp=0, crn=0)
        res = tortorella_optimize(data, costs, empirical_priors(data))
        assert not res.activated
        assert res.thresholds.t1 == res.thresholds.t2
        assert res.rpr == 0.0 and res.rnr == 0.0

    def test_reject_rates_exposed_for_transfer(self):
        data = self.overlapping_data()
        costs = CostMatrix(ctp=0, ctn=0, cfp=80, cfn=80, crp=1, crn=1)
        res = tortorella_optimize(data, costs, empirical_priors(data))
        rp, rn = _reject_counts(data, res.thresholds)
        assert res.rpr == pytest.approx(rp / data.n_pos)
        assert res.rnr == pytest.approx(rn / data.n_neg)

    def test_optimal_on_hull_vertex_grid(self):
        data = synth_two_gaussian(25, 25, 0.5, -0.5, 1.0, seed=13)
        costs = CostMatrix(ctp=-2, ctn=-2, cfp=30, cfn=45, crp=2, crn=2)
        priors = empirical_priors(data)
        res = tortorella_optimize(data, costs, priors)
        if res.activated:
            fp, tp, cuts = roc_points(data)
            hull_ths = sorted(cuts[rocch(fp, tp)].tolist())
            for i, t1 in enumerate(hull_ths):
                for t2 in hull_ths[i:]:
                    cost, _ = _cost_and_rej(data, t1, t2, costs, priors)
                    assert res.cost <= cost + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        tied_examples,
        st.lists(st.integers(-5, 60), min_size=6, max_size=6),
    )
    def test_matches_loop_oracle(self, example_lists, entries):
        # integer costs make exact cost ties, so the tie-break order is checked
        data = tied_dataset(*example_lists)
        costs = CostMatrix(*map(float, entries))
        priors = empirical_priors(data)
        assert tortorella_optimize(data, costs, priors) == loop_tortorella(data, costs, priors)

    @seed(20261019)
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        tied_examples,
        st.sampled_from(sorted(builtin_cost_models())),
        st.integers(0, 2**32 - 1),
    )
    def test_cost_is_the_all_pairs_minimum(self, example_lists, model, draw_seed):
        # the hull-vertex search loses nothing against every ordered pair of
        # cuts, activated or not, for matrices the comparison protocol samples
        data = tied_dataset(*example_lists)
        costs = sample_cost_matrix(builtin_cost_models()[model], np.random.default_rng(draw_seed))
        priors = empirical_priors(data)
        brute = brute_force_min_cost(data, costs, priors)
        assert tortorella_optimize(data, costs, priors).cost == pytest.approx(brute, rel=1e-12, abs=1e-12)

    @seed(20261020)
    @settings(max_examples=120, deadline=None, database=None)
    @given(
        tied_examples,
        st.sampled_from(sorted(builtin_cost_models())),
        st.integers(0, 2**32 - 1),
    )
    def test_cost_is_exactly_the_minimum_over_its_search_space(self, example_lists, model, draw_seed):
        # the same float expression over every ordered cut pair when the reject
        # option is activated, over every single cut when it is not
        data = tied_dataset(*example_lists)
        costs = sample_cost_matrix(builtin_cost_models()[model], np.random.default_rng(draw_seed))
        priors = empirical_priors(data)
        res = tortorella_optimize(data, costs, priors)
        assert res.cost == brute_force_min_cost(data, costs, priors, single_cuts=not res.activated)


@pytest.mark.filterwarnings("error")
def test_max_float_sentinel_pair_ties_by_threshold():
    # the below-min cut of -max float is -inf; the pair (-inf, -inf) has width
    # 0 (not inf - inf = nan), so among equal costs the smaller t wins: calling
    # everything positive (t = -inf) and everything negative (t = 6) tie here
    data = ScoredDataset([-_MAX, -_MAX, 5.0, 1.0], [1, 1, -1, -1])
    tort = tortorella_optimize(data, CostMatrix(0, 0, 1, 1, 0, 0), empirical_priors(data))
    assert tort.thresholds == ThresholdPair(-np.inf, -np.inf) and not tort.activated
    for k_max in (0.3, 0.6):
        assert ba_optimize(data, k_max).thresholds == ThresholdPair(-np.inf, -np.inf)


class TestBaOptimize:
    def test_tight_cap_degenerates_to_single_threshold(self):
        data = make_dataset([(0.9, 1), (0.7, 1), (0.4, -1), (0.2, -1)])
        # any candidate band rejects >= 1 of 4 examples = 0.25 > 0.2
        res = ba_optimize(data, 0.2)
        assert res.thresholds.t1 == res.thresholds.t2
        assert res.rej == 0.0

    def test_unit_costs_minimize_classified_error(self):
        data = synth_two_gaussian(30, 30, 0.6, -0.6, 1.0, seed=21)
        res = ba_optimize(data, 0.2, 1.0, 1.0)
        oracle = brute_force_ba(data, 0.2, 1.0, 1.0)
        assert res.objective == oracle

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            n_pos = int(rng.integers(3, 16))
            n_neg = int(rng.integers(3, 16))
            data = synth_two_gaussian(n_pos, n_neg, 0.5, -0.5, 1.0, seed=trial)
            k_max = float(rng.uniform(0.05, 0.5))
            cfn = float(rng.uniform(0.5, 5.0))
            cfp = float(rng.uniform(0.5, 5.0))
            res = ba_optimize(data, k_max, cfn, cfp)
            assert res.objective == brute_force_ba(data, k_max, cfn, cfp)

    def test_feasibility(self):
        data = synth_two_gaussian(40, 60, 0.6, -0.6, 1.2, seed=5)
        for k_max in (0.05, 0.15, 0.3):
            res = ba_optimize(data, k_max)
            assert res.rej <= k_max

    def test_kmax_validated(self):
        data = synth_two_gaussian(5, 5, 0.5, -0.5, 1.0, seed=1)
        with pytest.raises(ValueError, match="k_max"):
            ba_optimize(data, 1.0)

    @pytest.mark.parametrize("cost", ["cfn", "cfp"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_costs_validated(self, cost, value):
        # nan and inf used to crash on an empty tie set; -1 gave a negative objective
        data = synth_two_gaussian(5, 5, 0.5, -0.5, 1.0, seed=1)
        with pytest.raises(ValueError, match="finite and non-negative"):
            ba_optimize(data, 0.2, **{cost: value})
        ba_optimize(data, 0.2, **{cost: 0.0})

    @settings(max_examples=300, deadline=None)
    @given(
        tied_examples,
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        ba_costs,
        ba_costs,
        st.integers(1, 16),
    )
    @example(  # (0.1*2)/4 == 0.05 < (0.1*3)/6 in float, an exact tie at 1/20 that the
        # smaller reject rate of (-2.125, -2.125) would win; the float objective decides
        ([1, 0, 2, 2, 6, 5], [True, True, False, True, False, True], [-1.125, 2.625, 3.5]),
        0.5,
        0.1,
        0.1,
        3,
    )
    @example(  # equal objective: the smaller reject rate wins over the narrower band
        (
            [2, 2, 2, 1, 0, 0, 2, 0, 2, 2, 1, 0, 0, 0],
            [True, True, False, False, True, True, True,
             False, True, True, True, True, False, False],
            [-4.0, -1.125, 4.375],
        ),
        0.5,
        2.0,
        3.0,
        1 << 18,  # one chunk: the tie is settled inside it, not across chunks
    )
    def test_matches_dense_oracle(self, example_lists, k_max, cfn, cfp, cells):
        data = tied_dataset(*example_lists)
        with pytest.MonkeyPatch.context() as mp:
            # tiny chunks: the sweep crosses many chunk boundaries
            mp.setattr(baselines, "_PAIR_CELLS", cells)
            res = ba_optimize(data, k_max, cfn, cfp)
        assert res == dense_ba(data, k_max, cfn, cfp)

    @pytest.mark.parametrize("k_max", [0.05, 0.25])
    def test_memory_stays_bounded(self, k_max):
        data = synth_two_gaussian(2500, 2500, 1, -1, 1, seed=16)
        tracemalloc.start()
        try:
            ba_optimize(data, k_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20  # the dense k x k search peaks near 1 GB here

    @pytest.mark.parametrize("case", ["zero_costs", "separated"])
    def test_memory_stays_bounded_when_the_whole_band_ties(self, case):
        # every pair within the budget ties at objective 0 (or every row holds
        # one that does), so the exact decision enumerates the whole band
        if case == "zero_costs":
            data = synth_two_gaussian(2500, 2500, 1, -1, 1, seed=16)
            costs = (0.0, 0.0)
            t = float(data.scores.min()) - 1.0  # rejects nothing; the smallest cut
        else:
            data = ScoredDataset(np.arange(5000.0), [-1] * 2500 + [1] * 2500)
            costs = (1.0, 1.0)
            t = 2499.5  # the one cut between the classes
        tracemalloc.start()
        try:
            res = ba_optimize(data, 0.25, *costs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res == BaResult(ThresholdPair(t, t), objective=0.0, rej=0.0, rpr=0.0, rnr=0.0)
        assert peak < 64 * 2**20

    @pytest.mark.filterwarnings("error")
    def test_overflowing_costs_rejected(self):
        # (cfn*n_pos + cfp*n_neg)*n overflows; this used to warn and crash
        data = synth_two_gaussian(100, 100, 0.5, -0.5, 1.0, seed=1)
        with pytest.raises(ValueError, match="too large"):
            ba_optimize(data, 0.2, 1e308, 1e308)
        with pytest.raises(ValueError, match="too large"):
            ba_optimize(data, 0.2, 0.0, _MAX / 100)
        ba_optimize(data, 0.2, 0.0, _MAX / 400 / 100)  # finite, near the bound


def _reject_counts(data, t):
    rp = int(((data.scores > t.t1) & (data.scores <= t.t2) & (data.labels == 1)).sum())
    rn = int(((data.scores > t.t1) & (data.scores <= t.t2) & (data.labels == -1)).sum())
    return rp, rn


def _cost_and_rej(data, t1, t2, costs, priors):
    """Direct expected-cost computation, independent of the library path."""
    scores, labels = data.scores, data.labels
    pos = labels == 1
    neg = labels == -1
    pred_pos = scores > t2
    pred_neg = scores <= t1
    rej = ~(pred_pos | pred_neg)
    n_pos, n_neg = pos.sum(), neg.sum()
    tpr = (pred_pos & pos).sum() / n_pos
    fnr = (pred_neg & pos).sum() / n_pos
    rpr = (rej & pos).sum() / n_pos
    tnr = (pred_neg & neg).sum() / n_neg
    fpr = (pred_pos & neg).sum() / n_neg
    rnr = (rej & neg).sum() / n_neg
    cost = priors.p_pos * (costs.cfn * fnr + costs.ctp * tpr + costs.crp * rpr) + priors.p_neg * (
        costs.ctn * tnr + costs.cfp * fpr + costs.crn * rnr
    )
    return cost, (rej.sum() / (n_pos + n_neg))
