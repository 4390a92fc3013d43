import math
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rejectopt.cli import pareto_document
from rejectopt.data import ScoredDataset, synth_two_gaussian
from rejectopt.metrics import ThresholdPair, classify_with_rejection, essential_metrics
from rejectopt.moba import (
    MobaConfig,
    evaluate_batch,
    evolve,
    hypervolume_2d,
)


def count_rejects(data, t1, t2):
    rp = int(((data.scores > t1) & (data.scores <= t2) & (data.labels == 1)).sum())
    rn = int(((data.scores > t1) & (data.scores <= t2) & (data.labels == -1)).sum())
    return rp, rn


class TestEvaluate:
    def test_separable_no_rejection(self):
        valid = ScoredDataset([0.9, 0.8, 0.1, 0.2], [1, 1, -1, -1])
        objs, feasible = evaluate_batch([0.4], [0.5], valid, 0.1, 0.1)
        assert feasible == [True] and objs == [(0.0, 0.0)]

    def test_cap_violation_penalized(self):
        valid = ScoredDataset([0.9, 0.5, 0.1, 0.2], [1, 1, -1, -1])
        # band (0.3, 0.6] rejects one of two positives: rpr = 0.5 > 0.1
        objs, feasible = evaluate_batch([0.3], [0.6], valid, 0.1, 0.1)
        assert feasible == [False] and objs == [(1.0, 1.0)]

    def test_degenerate_pair_infeasible(self):
        valid = ScoredDataset([0.9, 0.1], [1, -1])
        objs, feasible = evaluate_batch([0.5], [0.5], valid, 0.5, 0.5)
        assert feasible == [False] and objs == [(1.0, 1.0)]

    def test_numpy_caps_give_python_bools(self):
        # evolve sums the flags into GenerationStats.feasible_count
        valid = ScoredDataset([0.9, 0.5, 0.1, 0.2], [1, 1, -1, -1])
        caps = np.float64(0.1)
        _, feasible = evaluate_batch([0.3, 0.4], [0.35, 0.6], valid, caps, caps)
        assert feasible == [True, False]
        assert all(type(f) is bool for f in feasible)

    def test_batch_equals_per_pair_floats(self):
        def per_pair(t, data, p_max, n_max):
            m = essential_metrics(classify_with_rejection(data, t))
            if not (m.rpr <= p_max and m.rnr <= n_max and t.t1 < t.t2):
                return (1.0, 1.0), False
            if m.fpr_cls is None or m.fnr_cls is None:  # a fully rejected class
                return (1.0, 1.0), False
            return (m.fpr_cls, m.fnr_cls), True

        rng = np.random.default_rng(5)
        for trial in range(90):
            # the last 30 trials: classes of 1-3 examples under caps of 1, where
            # random pairs often reject a whole class and nothing else rules them out
            small = trial >= 60
            high = 4 if small else 70
            data = synth_two_gaussian(
                int(rng.integers(1, high)), int(rng.integers(1, high)), 1.0, -1.0, 1.0, seed=trial
            )
            if trial % 2:  # tied scores
                data = ScoredDataset(np.round(data.scores, 1), data.labels)
            ts = [ThresholdPair(*sorted(map(float, rng.uniform(-3, 3, 2)))) for _ in range(30)]
            ts += [ThresholdPair(0.2, 0.2), ThresholdPair(-9.0, 9.0)]  # degenerate, all rejected
            if small:
                p_max = n_max = 1.0
            else:
                p_max, n_max = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            objs, feasible = evaluate_batch(
                [t.t1 for t in ts], [t.t2 for t in ts], data, p_max, n_max
            )
            assert list(zip(objs, feasible)) == [per_pair(t, data, p_max, n_max) for t in ts]
            assert all(type(f) is float for obj in objs for f in obj)


class TestHypervolume:
    def test_single_points(self):
        assert hypervolume_2d([(0.0, 0.0)]) == 1.0
        assert hypervolume_2d([(0.5, 0.5)]) == 0.25

    def test_staircase_sum(self):
        pts = [(0.0, 0.5), (0.5, 0.0)]
        # two rectangles: (1-0)*(1-0.5) + (1-0.5)*(0.5-0)
        assert hypervolume_2d(pts) == pytest.approx(0.75)

    def test_dominated_and_outside_points_ignored(self):
        base = hypervolume_2d([(0.2, 0.3)])
        assert hypervolume_2d([(0.2, 0.3), (0.4, 0.5), (1.2, 0.1)]) == pytest.approx(base)


@pytest.fixture(scope="module")
def valid():
    return synth_two_gaussian(60, 60, 1.0, -1.0, 1.0, seed=17)


class TestEvolve:

    def test_pareto_at_most_popsize(self, valid):
        res = evolve(valid, MobaConfig(p_max=0.1, n_max=0.1, seed=1))
        assert 1 <= len(res.pareto) <= 20

    def test_pareto_lists_each_pair_once(self):
        # survivor selection keeps copies of a pair: at caps 0.1, half of these
        # runs once exported 25 duplicates among their 800 members
        data = synth_two_gaussian(100, 100, 1, -1, 1, seed=7)
        for run_seed in range(40):
            res = evolve(data, MobaConfig(p_max=0.1, n_max=0.1, seed=run_seed))
            pairs = [s.thresholds.as_tuple() for s in res.pareto]
            assert len(set(pairs)) == len(pairs), run_seed

    def test_vacuous_caps_all_feasible(self, valid):
        cfg = MobaConfig(p_max=1.0 - 1e-9, n_max=1.0 - 1e-9, popsize=12, gensize=10, seed=2)
        res = evolve(valid, cfg)
        assert res.generations[-1].feasible_count == cfg.popsize

    def test_deterministic(self, valid):
        cfg = MobaConfig(p_max=0.15, n_max=0.1, popsize=12, gensize=25, seed=5)
        a = evolve(valid, cfg)
        b = evolve(valid, cfg)
        assert [s.thresholds for s in a.pareto] == [s.thresholds for s in b.pareto]
        assert [s.counts for s in a.pareto] == [s.counts for s in b.pareto]
        assert a.generations == b.generations

    def test_output_feasibility_reevaluated(self, valid):
        cfg = MobaConfig(p_max=0.12, n_max=0.08, popsize=16, gensize=30, seed=3)
        res = evolve(valid, cfg)
        for ind in res.pareto:
            t = ind.thresholds
            assert t.t1 < t.t2
            rp, rn = count_rejects(valid, t.t1, t.t2)
            assert rp / valid.n_pos <= cfg.p_max
            assert rn / valid.n_neg <= cfg.n_max

    # score of level k in 0..4: quarters; adjacent floats 1.0 + k ulp; quarters
    # of max float, whose top score puts the reject-nothing member's t2 at inf
    SCORE_SCALES = {
        "quarters": lambda k: k / 4,
        "adjacent": lambda k: 1.0 + k * 2.0**-52,
        "max float": lambda k: k / 4 * sys.float_info.max,
    }

    @seed(20261018)
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=2, max_size=40),
        st.sampled_from(sorted(SCORE_SCALES)),
        st.integers(2, 6),
        st.integers(1, 10),
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_pareto_members_carry_their_counts(
        self, examples, scale, half_popsize, gensize, p_max, n_max, run_seed
    ):
        # every run ends with a non-empty feasible front, whatever the data and
        # caps: tied scores on five levels, anti-separated classes among them;
        # the first and last examples fix both classes and a non-degenerate range
        levels = [0, *(level for level, _ in examples[1:-1]), 4]
        labels = [1, *(1 if is_pos else -1 for _, is_pos in examples[1:-1]), -1]
        data = ScoredDataset([self.SCORE_SCALES[scale](level) for level in levels], labels)
        cfg = MobaConfig(p_max, n_max, 2 * half_popsize, gensize, seed=run_seed)
        res = evolve(data, cfg)
        assert res.pareto
        objs, feasible = evaluate_batch(
            [s.thresholds.t1 for s in res.pareto], [s.thresholds.t2 for s in res.pareto],
            data, p_max, n_max,
        )
        assert all(feasible)
        for s, obj in zip(res.pareto, objs):
            assert s.counts == classify_with_rejection(data, s.thresholds)
            assert s.metrics == essential_metrics(s.counts)
            assert s.objectives == obj

    def test_elitist_monotonicity(self, valid):
        cfg = MobaConfig(p_max=0.2, n_max=0.2, popsize=12, gensize=40, seed=8)
        res = evolve(valid, cfg)
        f1 = [g.min_f1 for g in res.generations]
        f2 = [g.min_f2 for g in res.generations]
        assert all(a >= b for a, b in zip(f1, f1[1:]))
        assert all(a >= b for a, b in zip(f2, f2[1:]))

    def test_generation_diagnostics_shape(self, valid):
        cfg = MobaConfig(p_max=0.2, n_max=0.2, popsize=8, gensize=7, seed=0)
        res = evolve(valid, cfg)
        assert len(res.generations) == 8  # initial population plus one per generation
        assert res.generations[0].generation == 0
        assert res.generations[-1].generation == 7
        assert all(0 <= g.feasible_count <= 8 for g in res.generations)

    def test_overflowing_score_range_raises(self):
        # hi - lo overflows to inf; initialization used to loop forever
        valid = ScoredDataset([-1e308, -1.0, 1.0, 1e308], [1, -1, 1, -1])
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=4, gensize=2)
        with pytest.raises(ValueError, match="overflows"):
            evolve(valid, cfg)

    def test_pareto_document_schema(self, valid):
        cfg = MobaConfig(p_max=0.1, n_max=0.1, popsize=8, gensize=10, seed=4)
        res = evolve(valid, cfg)
        doc = pareto_document(res, valid)
        assert set(doc) == {"metadata", "solutions"}
        assert doc["metadata"]["popsize"] == 8
        assert doc["metadata"]["n_pos"] == valid.n_pos
        for rec in doc["solutions"]:
            assert set(rec) == {"t1", "t2", "fpr", "fnr", "rpr", "rnr", "feasible", "counts"}
            assert rec["feasible"] is True
            assert rec["rpr"] <= 0.1 and rec["rnr"] <= 0.1


class TestMobaConfig:
    def test_popsize_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            MobaConfig(p_max=0.1, n_max=0.1, popsize=7)

    def test_caps_range(self):
        with pytest.raises(ValueError, match="caps"):
            MobaConfig(p_max=1.5, n_max=0.1)
        # transferred caps may be exactly 0 or 1
        MobaConfig(p_max=0.0, n_max=1.0)

    @pytest.mark.parametrize("field", ["eta_c", "eta_m"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_distribution_index_range(self, field, value):
        # a NaN index would make every operator draw fail and clone the parents;
        # an infinite one makes every spread 1 and every step 0, freezing the search
        with pytest.raises(ValueError, match="distribution indexes"):
            MobaConfig(p_max=0.1, n_max=0.1, **{field: value})
        MobaConfig(p_max=0.1, n_max=0.1, **{field: 0.0})

    def test_probability_range(self):
        with pytest.raises(ValueError, match="crossover_prob"):
            MobaConfig(p_max=0.1, n_max=0.1, crossover_prob=1.5)
