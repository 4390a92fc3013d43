import math

import numpy as np
import pytest

from rejectopt.data import synth_two_gaussian, stratified_split, SplitSpec
from rejectopt.harness import (
    ComparisonCounts,
    CostModelSpec,
    NoEligibleSolutionError,
    builtin_cost_models,
    cost_comparison_experiment,
    curve_sweep,
    default_sweep_grid,
    sample_cost_matrix,
    select_best_under_cap,
    select_min_cost,
    write_comparison_csv,
    write_curve_csv,
)
from rejectopt.metrics import (
    ClassPriors,
    CostMatrix,
    ThresholdPair,
    classify_with_rejection,
    empirical_priors,
    essential_metrics,
    expected_cost,
)
from rejectopt.moba import MobaConfig, evolve


@pytest.fixture(scope="module")
def splits():
    full = synth_two_gaussian(80, 120, 0.8, -0.8, 1.0, seed=33)
    _, valid, test = stratified_split(full, SplitSpec(0.6, 0.2, 0.2, seed=4))
    return valid, test


class TestBuiltinCostModels:
    def test_cm1_fixed_rejection_costs(self):
        cm = builtin_cost_models()["cm1"]
        assert cm.crp == 1.0 and cm.crn == 1.0
        assert cm.ctp == (-10.0, 0.0) and cm.cfp == (0.0, 50.0) and cm.cfn == (0.0, 50.0)

    def test_cm2_raises_cfp(self):
        assert builtin_cost_models()["cm2"].cfp == (0.0, 100.0)

    def test_cm3_raises_cfn(self):
        assert builtin_cost_models()["cm3"].cfn == (0.0, 100.0)

    def test_cm4_ranged_rejection_costs(self):
        cm = builtin_cost_models()["cm4"]
        assert cm.crp == (0.0, 30.0) and cm.crn == (0.0, 30.0)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="range"):
            CostModelSpec(ctp=(0.0, -1.0), ctn=1.0, cfp=1.0, cfn=1.0, crp=1.0, crn=1.0)


class TestSampleCostMatrix:
    def test_cm1_sample_ranges(self):
        cm = builtin_cost_models()["cm1"]
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = sample_cost_matrix(cm, rng)
            assert -10 <= c.ctp <= 0 and -10 <= c.ctn <= 0
            assert 0 <= c.cfp <= 50 and 0 <= c.cfn <= 50
            assert c.crp == 1.0 and c.crn == 1.0

    def test_deterministic_sequence(self):
        cm = builtin_cost_models()["cm1"]
        a = [sample_cost_matrix(cm, np.random.default_rng(9)) for _ in range(1)]
        b = [sample_cost_matrix(cm, np.random.default_rng(9)) for _ in range(1)]
        assert a == b

    def test_cfp_mean_near_25(self):
        cm = builtin_cost_models()["cm1"]
        rng = np.random.default_rng(123)
        mean = np.mean([sample_cost_matrix(cm, rng).cfp for _ in range(10000)])
        assert 24 <= mean <= 26

    def test_independent_correct_costs_by_default(self):
        cm = builtin_cost_models()["cm1"]
        rng = np.random.default_rng(5)
        samples = [sample_cost_matrix(cm, rng) for _ in range(50)]
        assert any(c.ctp != c.ctn for c in samples)

    def test_joint_correct_flag(self):
        cm = builtin_cost_models()["cm1"]
        rng = np.random.default_rng(5)
        samples = [sample_cost_matrix(cm, rng, joint_correct=True) for _ in range(50)]
        assert all(c.ctp == c.ctn for c in samples)

    def test_cm4_rejection_costs_differ(self):
        cm = builtin_cost_models()["cm4"]
        rng = np.random.default_rng(6)
        samples = [sample_cost_matrix(cm, rng) for _ in range(50)]
        assert any(c.crp != c.crn for c in samples)


class TestSelection:
    @staticmethod
    def solutions_on(valid):
        cfg = MobaConfig(p_max=0.15, n_max=0.15, popsize=12, gensize=25, seed=2)
        return evolve(valid, cfg).pareto

    def test_singleton(self, splits):
        valid, _ = splits
        sols = self.solutions_on(valid)[:1]
        costs = CostMatrix(-1, -1, 10, 10, 1, 1)
        assert select_min_cost(sols, costs, empirical_priors(valid)) is sols[0]

    def test_min_cost_matches_exhaustive(self, splits):
        valid, _ = splits
        sols = self.solutions_on(valid)
        priors = empirical_priors(valid)
        rng = np.random.default_rng(8)
        for _ in range(20):
            costs = CostMatrix(*(float(x) for x in rng.uniform(-10, 50, 6)))
            best = select_min_cost(sols, costs, priors)
            best_cost = expected_cost(best.metrics, priors, costs)
            assert all(
                best_cost <= expected_cost(s.metrics, priors, costs) + 1e-15 for s in sols
            )

    def test_lower_fnr_wins_when_fn_costly(self, splits):
        valid, _ = splits
        sols = self.solutions_on(valid)
        costs = CostMatrix(ctp=0, ctn=0, cfp=0, cfn=10, crp=0, crn=0)
        best = select_min_cost(sols, costs, empirical_priors(valid))
        assert best.metrics.fnr_all == min(s.metrics.fnr_all for s in sols)

    def test_best_under_vacuous_caps_is_argmax(self, splits):
        valid, _ = splits
        sols = self.solutions_on(valid)
        best = select_best_under_cap(sols, "auc", max_rpr=1.0, max_rnr=1.0)
        target = max(s.metrics.auc for s in sols if s.metrics.auc is not None)
        assert best.metrics.auc == target

    def test_auc_definition(self, splits):
        valid, _ = splits
        sols = self.solutions_on(valid)
        best = select_best_under_cap(sols, "auc")
        m = best.metrics
        assert m.auc == pytest.approx((m.tpr_cls + m.tnr_cls) / 2)

    def test_empty_eligible_set(self, splits):
        valid, _ = splits
        sols = self.solutions_on(valid)
        with pytest.raises(NoEligibleSolutionError):
            select_best_under_cap(sols, "acc", max_rej=-1.0)

    def test_unknown_metric(self, splits):
        valid, _ = splits
        sols = self.solutions_on(valid)
        with pytest.raises(ValueError, match="metric"):
            select_best_under_cap(sols, "f1")


class TestCostComparisonExperiment:
    def test_counts_conserved_small(self, splits):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=8)
        counts = cost_comparison_experiment(
            valid, test, builtin_cost_models()["cm1"], 12, cfg, seed=3
        )
        assert counts.lower + counts.higher + counts.identical == 12
        assert counts.not_activated <= counts.identical

    def test_deterministic(self, splits):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=8)
        spec = builtin_cost_models()["cm1"]
        a = cost_comparison_experiment(valid, test, spec, 8, cfg, seed=7)
        b = cost_comparison_experiment(valid, test, spec, 8, cfg, seed=7)
        assert a == b

    def test_hand_built_not_activated_matrix(self, splits):
        valid, test = splits
        # fixed entries violating the activation inequality for every trial
        spec = CostModelSpec(ctp=-1.0, ctn=-50.0, cfp=1.0, cfn=1.0, crp=0.0, crn=0.0)
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=8)
        counts = cost_comparison_experiment(valid, test, spec, 1, cfg, seed=0)
        assert counts == ComparisonCounts(lower=0, higher=0, identical=1, not_activated=1)

    def test_one_seed_child_per_trial(self, splits, monkeypatch):
        # children are spawned as the trials need them, not all before the first
        import rejectopt.harness as harness

        masters = []

        class RecordedSeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                masters.append(self)

        spawned_at_trial = []

        def sample(*args, **kwargs):
            spawned_at_trial.append(masters[0].n_children_spawned)
            return sample_cost_matrix(*args, **kwargs)

        monkeypatch.setattr(harness.np.random, "SeedSequence", RecordedSeedSequence)
        monkeypatch.setattr(harness, "sample_cost_matrix", sample)
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=4)
        cost_comparison_experiment(valid, test, builtin_cost_models()["cm1"], 3, cfg, seed=0)
        assert spawned_at_trial == [1, 2, 3]

    def test_trials_validated(self, splits):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5)
        with pytest.raises(ValueError, match="trials"):
            cost_comparison_experiment(valid, test, builtin_cost_models()["cm1"], 0, cfg, seed=0)


class TestCurveSweep:
    def test_default_grid(self):
        grid = default_sweep_grid()
        assert len(grid) == 15
        assert grid[0] == 0.01 and grid[-1] == 0.29
        assert all(round(b - a, 2) == 0.02 for a, b in zip(grid, grid[1:]))

    def test_point_count_and_order(self, splits):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=12, gensize=15)
        grid = [0.08, 0.16, 0.24]
        points = curve_sweep(valid, test, cfg, seed=1, grid=grid)
        assert len(points) == 6
        assert [(p.reject_param, p.model) for p in points] == [
            (0.08, "ba"),
            (0.08, "moba"),
            (0.16, "ba"),
            (0.16, "moba"),
            (0.24, "ba"),
            (0.24, "moba"),
        ]

    def test_deterministic(self, splits):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=12, gensize=15)
        a = curve_sweep(valid, test, cfg, seed=5, grid=[0.1, 0.2])
        b = curve_sweep(valid, test, cfg, seed=5, grid=[0.1, 0.2])
        assert a == b

    def test_no_feasible_grid_point_keeps_sweeping(self, splits, monkeypatch, tmp_path):
        import rejectopt.harness as harness
        from rejectopt.moba import NoFeasibleSolutionError

        def evolve_failing_at_032(valid, cfg):
            if cfg.p_max == 0.32:
                raise NoFeasibleSolutionError(cfg.p_max, cfg.n_max)
            return evolve(valid, cfg)

        monkeypatch.setattr(harness, "evolve", evolve_failing_at_032)
        valid, test = splits
        # at caps 0.24 and 0.40 this budget found a feasible pair for each of
        # 5 000 sweep seeds checked, so only the patched point is missing
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=20, gensize=15)
        points = curve_sweep(valid, test, cfg, seed=1, grid=[0.24, 0.32, 0.40])
        assert [(p.reject_param, p.model) for p in points] == [
            (k, m) for k in (0.24, 0.32, 0.40) for m in ("ba", "moba")
        ]
        missing = points[3]
        assert (missing.acc, missing.auc, missing.gmean) == (None, None, None)
        assert math.isnan(missing.observed_rej)
        assert all(not math.isnan(p.observed_rej) for i, p in enumerate(points) if i != 3)
        write_curve_csv(tmp_path / "curves.csv", points)
        rows = (tmp_path / "curves.csv").read_text().splitlines()
        assert rows[4] == "0.32,moba,nan,nan,nan,nan"

    def test_equal_caps_imply_overall_cap_on_tuning_set(self, splits):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=15)
        k = 0.15
        result = evolve(valid, MobaConfig(p_max=k, n_max=k, popsize=8, gensize=15, seed=0))
        for ind in result.pareto:
            m = essential_metrics(classify_with_rejection(valid, ind.thresholds))
            assert m.rej <= k + 1e-12


class TestCsvWriters:
    def test_comparison_csv(self, tmp_path):
        path = tmp_path / "c.csv"
        counts = ComparisonCounts(lower=7, higher=2, identical=1, not_activated=1)
        write_comparison_csv(path, [("cm1", counts)])
        assert path.read_text() == "cost_model,lower,higher,identical,not_activated\ncm1,7,2,1,1\n"

    def test_curve_csv_sorted_and_nan(self, tmp_path, splits):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=12, gensize=15)
        points = curve_sweep(valid, test, cfg, seed=2, grid=[0.24, 0.08])
        path = tmp_path / "k.csv"
        write_curve_csv(path, points)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "reject_param,model,acc,auc,gmean,observed_rej"
        firsts = [l.split(",")[0] for l in lines[1:]]
        assert firsts == sorted(firsts, key=float)
