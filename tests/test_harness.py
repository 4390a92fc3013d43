import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rejectopt.cli import write_comparison_csv, write_curve_csv
from rejectopt.data import synth_two_gaussian, stratified_split
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
)
from rejectopt.metrics import (
    CostMatrix,
    empirical_priors,
    expected_cost,
    score_pairs,
)
from rejectopt.moba import MobaConfig, evolve


@pytest.fixture(scope="module")
def splits():
    full = synth_two_gaussian(80, 120, 0.8, -0.8, 1.0, seed=33)
    valid, test = stratified_split(full, seed=4)
    return valid, test


# Runs that end with no feasible pair on this 16/24-row tuning set unless the
# initial population holds the reject-nothing member.
@pytest.mark.parametrize(
    "budget",
    [
        dict(seed=52, popsize=12, gensize=15),
        dict(seed=103, popsize=12, gensize=15),
        dict(seed=153, popsize=12, gensize=15),
        dict(seed=2008),
        dict(seed=2312),
    ],
    ids=["52-pop12x15", "103-pop12x15", "153-pop12x15", "2008-default", "2312-default"],
)
def test_evolve_ends_feasible_on_tuning_split(splits, budget):
    valid, _ = splits
    cfg = MobaConfig(p_max=0.08, n_max=0.08, **budget)
    result = evolve(valid, cfg)
    assert result.pareto
    for s in result.pareto:
        assert s.thresholds.t1 < s.thresholds.t2
        assert s.metrics.rpr <= cfg.p_max and s.metrics.rnr <= cfg.n_max
        assert s.metrics.fpr_cls is not None and s.metrics.fnr_cls is not None


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
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=8, seed=3)
        counts = cost_comparison_experiment(valid, test, builtin_cost_models()["cm1"], 12, cfg)
        assert counts.lower + counts.higher + counts.identical == 12
        assert counts.not_activated <= counts.identical

    def test_deterministic(self, splits):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=8, seed=7)
        spec = builtin_cost_models()["cm1"]
        a = cost_comparison_experiment(valid, test, spec, 8, cfg)
        b = cost_comparison_experiment(valid, test, spec, 8, cfg)
        assert a == b

    def test_hand_built_not_activated_matrix(self, splits):
        valid, test = splits
        # fixed entries violating the activation inequality for every trial
        spec = CostModelSpec(ctp=-1.0, ctn=-50.0, cfp=1.0, cfn=1.0, crp=0.0, crn=0.0)
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=8)
        counts = cost_comparison_experiment(valid, test, spec, 1, cfg)
        assert counts == ComparisonCounts(lower=0, higher=0, identical=1, not_activated=1)

    def test_one_seed_child_per_trial(self, splits, monkeypatch):
        # trial k samples its costs from the k-th child of the master seed, cfg.seed
        import rejectopt.harness as harness

        drawn = []

        def sample(*args, **kwargs):
            drawn.append(sample_cost_matrix(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(harness, "sample_cost_matrix", sample)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)  # sample in this process
        valid, test = splits
        spec = builtin_cost_models()["cm1"]
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=4, seed=9)
        cost_comparison_experiment(valid, test, spec, 3, cfg)
        expected = [
            sample_cost_matrix(spec, np.random.default_rng(int(c.generate_state(2, np.uint64)[0])))
            for c in np.random.SeedSequence(9).spawn(3)
        ]
        assert drawn == expected

    def test_trials_validated(self, splits):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5)
        with pytest.raises(ValueError, match="trials"):
            cost_comparison_experiment(valid, test, builtin_cost_models()["cm1"], 0, cfg)


class TestCurveSweep:
    def test_default_grid(self):
        grid = default_sweep_grid()
        assert len(grid) == 15
        assert grid[0] == 0.01 and grid[-1] == 0.29
        assert all(round(b - a, 2) == 0.02 for a, b in zip(grid, grid[1:]))

    def test_point_count_and_order(self, splits):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=12, gensize=15, seed=1)
        grid = [0.08, 0.16, 0.24]
        points = curve_sweep(valid, test, cfg, grid=grid)
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
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=12, gensize=15, seed=5)
        a = curve_sweep(valid, test, cfg, grid=[0.1, 0.2])
        b = curve_sweep(valid, test, cfg, grid=[0.1, 0.2])
        assert a == b

    def test_equal_caps_imply_overall_cap_on_tuning_set(self, splits):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=15)
        k = 0.15
        result = evolve(valid, MobaConfig(p_max=k, n_max=k, popsize=8, gensize=15, seed=0))
        for ind in result.pareto:
            m = score_pairs(valid, [ind.thresholds])[0].metrics
            assert m.rej <= k + 1e-12


class TestWorkerProcesses:
    """Both protocols run each trial or grid point whole in a forked worker."""

    STEPS = {
        "compare-costs": {"sample_cost_matrix", "tortorella_optimize", "evolve", "select_min_cost"},
        "curves": {"evolve", "ba_optimize", "select_best_under_cap"},
    }

    @staticmethod
    def force_cpus(monkeypatch, n):
        import rejectopt.harness as harness

        monkeypatch.setattr(harness, "_usable_cpus", lambda: n)

    @staticmethod
    def record_pids(monkeypatch, path):
        """Make each step of a run append ``<step> <pid>`` to ``path``."""
        import rejectopt.harness as harness

        def recording(name, fn):
            def step(*args, **kwargs):
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(f"{name} {os.getpid()}\n")
                return fn(*args, **kwargs)

            return step

        for name in set().union(*TestWorkerProcesses.STEPS.values()):
            monkeypatch.setattr(harness, name, recording(name, getattr(harness, name)))

    @pytest.mark.parametrize("protocol", ["compare-costs", "curves"])
    def test_same_results_from_one_and_two_workers(self, splits, monkeypatch, tmp_path, protocol):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=8, seed=3)

        def run():
            if protocol == "compare-costs":
                spec = builtin_cost_models()["cm4"]
                return cost_comparison_experiment(valid, test, spec, 12, cfg)
            return curve_sweep(valid, test, cfg, grid=[0.04, 0.12, 0.2, 0.28])

        results, steps, pids = [], [], []
        for n in (1, 2):
            with monkeypatch.context() as patch:
                self.force_cpus(patch, n)
                self.record_pids(patch, tmp_path / f"pids{n}")
                results.append(run())
            lines = [line.split() for line in (tmp_path / f"pids{n}").read_text().splitlines()]
            steps.append({name for name, _ in lines})
            pids.append({pid for _, pid in lines})
        assert results[0] == results[1]
        assert steps[0] == steps[1] == self.STEPS[protocol]
        assert pids[0] == {str(os.getpid())}
        assert 1 <= len(pids[1]) <= 2 and str(os.getpid()) not in pids[1]

    def test_error_in_a_run_propagates_and_ends_the_workers(self, splits, monkeypatch):
        import rejectopt.harness as harness

        def evolve_failing_at_016(valid, cfg):
            if cfg.p_max == 0.16:
                raise ValueError("run failed at 0.16")
            return evolve(valid, cfg)

        self.force_cpus(monkeypatch, 2)
        monkeypatch.setattr(harness, "evolve", evolve_failing_at_016)
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=8, seed=1)
        with pytest.raises(ValueError, match="run failed at 0.16"):
            curve_sweep(valid, test, cfg, grid=[0.08, 0.12, 0.16, 0.2, 0.24, 0.28])

    @staticmethod
    def slow_runs(monkeypatch):
        """``_in_order`` over 40 slow runs on 2 workers, still busy when the
        caller stops; the conftest guard then checks that both were reaped."""
        import rejectopt.harness as harness

        def run(k):
            time.sleep(0.02)
            return k

        TestWorkerProcesses.force_cpus(monkeypatch, 2)
        return harness._in_order(run, 40)

    def test_error_in_the_caller_ends_the_workers(self, monkeypatch):
        with pytest.raises(ValueError, match="caller failed"):
            for k in self.slow_runs(monkeypatch):
                assert k == 0
                raise ValueError("caller failed")

    def test_closing_the_runs_ends_the_workers(self, monkeypatch):
        runs = self.slow_runs(monkeypatch)
        assert next(runs) == 0
        runs.close()

    @pytest.mark.parametrize(
        "failure, raised",
        [("unpicklable", "UnpicklableError: run failed at 0.16"), ("exit", "exit status 7")],
    )
    def test_failure_in_a_worker_arrives_as_runtime_error(self, splits, monkeypatch, failure, raised):
        import rejectopt.harness as harness

        class UnpicklableError(Exception):  # local: pickle cannot find it by name
            pass

        def evolve_failing_at_016(valid, cfg):
            if cfg.p_max == 0.16:
                if failure == "exit":
                    os._exit(7)
                raise UnpicklableError("run failed at 0.16")
            return evolve(valid, cfg)

        self.force_cpus(monkeypatch, 2)
        monkeypatch.setattr(harness, "evolve", evolve_failing_at_016)
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=8, seed=1)
        with pytest.raises(RuntimeError, match=raised):
            curve_sweep(valid, test, cfg, grid=[0.08, 0.12, 0.16, 0.2, 0.24, 0.28])


_SWEEP_UNTIL_KILLED = """
import os, sys
import rejectopt.harness as harness
from rejectopt.data import stratified_split, synth_two_gaussian
from rejectopt.moba import MobaConfig, evolve

def evolve_recording_pid(valid, cfg):
    with open(sys.argv[1], "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\\n")
    return evolve(valid, cfg)

harness.evolve = evolve_recording_pid
harness._usable_cpus = lambda: 2
valid, test = stratified_split(synth_two_gaussian(80, 120, 0.8, -0.8, 1.0, seed=33), seed=4)
harness.curve_sweep(valid, test, MobaConfig(p_max=0.5, n_max=0.5, seed=1), grid=[0.1] * 10_000)
"""


def _running(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="worker processes run on Linux only")
def test_killed_parent_leaves_no_worker(tmp_path):
    import rejectopt

    pid_file = tmp_path / "pids"
    src = str(Path(rejectopt.__file__).resolve().parents[1])
    parent = subprocess.Popen(
        [sys.executable, "-c", _SWEEP_UNTIL_KILLED, str(pid_file)],
        env={**os.environ, "PYTHONPATH": src},
    )
    workers: set[int] = set()
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline and parent.poll() is None:
            time.sleep(0.05)
            if pid_file.exists():
                workers = {int(p) for p in pid_file.read_text().split()}
        assert len(workers) == 2
        parent.kill()  # SIGKILL: no clean-up code runs in the parent
        parent.wait()
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


class TestCsvWriters:
    def test_comparison_csv(self, tmp_path):
        path = tmp_path / "c.csv"
        counts = ComparisonCounts(lower=7, higher=2, identical=1, not_activated=1)
        write_comparison_csv(path, "cm1", counts)
        assert path.read_text() == "cost_model,lower,higher,identical,not_activated\ncm1,7,2,1,1\n"

    def test_curve_csv_sorted_and_nan(self, tmp_path, splits):
        valid, test = splits
        cfg = MobaConfig(p_max=0.5, n_max=0.5, popsize=12, gensize=15, seed=2)
        points = curve_sweep(valid, test, cfg, grid=[0.24, 0.08])
        path = tmp_path / "k.csv"
        write_curve_csv(path, points)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "reject_param,model,acc,auc,gmean,observed_rej"
        firsts = [l.split(",")[0] for l in lines[1:]]
        assert firsts == sorted(firsts, key=float)
