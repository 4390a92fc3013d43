"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Oracles are independent
re-derivations (direct counting, naive sorting, double-loop search); they
never call the code path they check.
"""

import math
import time

import numpy as np

import rejectopt as ro
from rejectopt.cli import main as cli_main
from rejectopt.metrics import ClassPriors, RejectionConfusion
from rejectopt.moba import (
    crowding_distance_assignment,
    fast_nondominated_sort,
    polynomial_mutation,
    sbx_crossover,
)


def report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


class StubRng:
    def __init__(self, randoms, cycle=False):
        self._randoms = list(randoms)
        self._cycle = cycle
        self._i = 0

    def random(self):
        if self._i >= len(self._randoms):
            if not self._cycle:
                raise AssertionError("random stream exhausted")
            self._i = 0
        v = self._randoms[self._i]
        self._i += 1
        return v


def direct_confusion(data, t1, t2):
    """Per-example counting, independent of the library's searchsorted path."""
    scores, labels = data.scores, data.labels
    pred_pos = scores > t2
    pred_neg = scores <= t1
    rej = ~(pred_pos | pred_neg)
    pos = labels == 1
    neg = labels == -1
    return {
        "tp": int((pred_pos & pos).sum()),
        "fn": int((pred_neg & pos).sum()),
        "rp": int((rej & pos).sum()),
        "fp": int((pred_pos & neg).sum()),
        "tn": int((pred_neg & neg).sum()),
        "rn": int((rej & neg).sum()),
    }


def midpoint_candidates(scores):
    s = np.unique(scores)
    return np.concatenate(([s[0] - 1.0], (s[:-1] + s[1:]) / 2.0, [s[-1] + 1.0]))


def test_c01_pareto_oracle_hypervolume():
    """Criterion 1: evolve reaches >= 95% of the exhaustive front's hypervolume."""
    valid = ro.synth_two_gaussian(100, 100, 1.0, -1.0, 1.0, seed=42)
    p_max = n_max = 0.1
    cands = midpoint_candidates(valid.scores)
    objs = []
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            c = direct_confusion(valid, cands[i], cands[j])
            if c["rp"] / valid.n_pos > p_max or c["rn"] / valid.n_neg > n_max:
                continue
            if c["tp"] + c["fn"] == 0 or c["tn"] + c["fp"] == 0:
                continue
            objs.append((c["fp"] / (c["tn"] + c["fp"]), c["fn"] / (c["tp"] + c["fn"])))
    objs = sorted(set(objs))
    oracle_front = []
    best_f2 = math.inf
    for f1, f2 in objs:
        if f2 < best_f2:
            oracle_front.append((f1, f2))
            best_f2 = f2
    hv_oracle = ro.hypervolume_2d(oracle_front)
    assert hv_oracle > 0

    ratios, times = [], []
    for seed in range(10):
        cfg = ro.MobaConfig(p_max=p_max, n_max=n_max, popsize=20, gensize=100, seed=seed)
        t0 = time.perf_counter()
        res = ro.evolve(valid, cfg)
        times.append(time.perf_counter() - t0)
        ratios.append(ro.hypervolume_2d([ind.objectives for ind in res.pareto]) / hv_oracle)
    ok = all(r >= 0.95 for r in ratios) and all(t < 10.0 for t in times)
    report(
        ok,
        f"criterion 1 (Pareto oracle): min HV ratio {min(ratios):.4f} >= 0.95 "
        f"over 10 seeds, max run time {max(times):.2f}s < 10s",
    )


def test_c02_sort_oracle():
    """Criterion 2: fast sort equals the naive all-pairs sort on 1000 populations."""

    def naive_dom(a, b):
        return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))

    def naive_sort(objs):
        remaining = set(range(len(objs)))
        fronts = []
        while remaining:
            front = sorted(
                p
                for p in remaining
                if not any(naive_dom(objs[q], objs[p]) for q in remaining if q != p)
            )
            fronts.append(front)
            remaining -= set(front)
        return fronts

    rng = np.random.default_rng(2023)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        objs = [tuple(rng.uniform(0, 1, 2)) for _ in range(n)]
        fast = [sorted(f) for f in fast_nondominated_sort(objs)]
        if fast != naive_sort(objs):
            mismatches += 1
    report(mismatches == 0, f"criterion 2 (sort oracle): {mismatches} mismatches in 1000 populations")


def test_c03_operator_algebra():
    """Criterion 3: SBX mean preservation, u=0.5 behaviors, mutation bounds."""
    rng = np.random.default_rng(7)
    t1, t2, us = [], [], []
    for _ in range(100_000):
        for p in (np.sort(rng.uniform(0, 1, 2)), np.sort(rng.uniform(0, 1, 2))):
            t1.append(float(p[0]))
            t2.append(float(p[1]))
        us += [rng.random(), rng.random()]
    # NaN redraws fail, so every child that needed one falls back and is listed;
    # the mean is checked over the pairs crossed at their first try
    c1, c2, fell = sbx_crossover(
        t1, t2, [0.0] * 100_000, us, 20.0, 1.0, StubRng([math.nan], cycle=True)
    )
    redrawn = {i // 2 for i in fell}
    worst = 0.0
    for k in range(100_000):
        if k in redrawn:
            continue
        i, j = 2 * k, 2 * k + 1
        drift = abs((c1[i] + c1[j]) - (t1[i] + t1[j])), abs((c2[i] + c2[j]) - (t2[i] + t2[j]))
        worst = max(worst, *drift)
    mean_ok = worst <= 1e-9 and len(redrawn) < 50_000

    c1, c2, _ = sbx_crossover(
        [0.11, 0.23], [0.42, 0.77], [0.0], [0.5, 0.5], 20.0, 0.9, StubRng([])
    )
    swap_ok = c1 == [0.23, 0.11] and c2 == [0.77, 0.42]

    y1, y2, _ = polynomial_mutation(
        [0.3], [0.7], [0.0, 0.0], [0.5, 0.5], 1.0, 20.0, 0.0, 1.0, StubRng([])
    )
    identity_ok = (y1, y2) == ([0.3], [0.7])

    lo, hi = -0.5, 1.5
    pairs = [np.sort(rng.uniform(lo, hi, 2)) for _ in range(5000)]
    pairs = [(float(a), float(b)) for a, b in pairs if a < b]
    us = rng.random(2 * len(pairs)).tolist()
    y1, y2, _ = polynomial_mutation(
        [a for a, _ in pairs], [b for _, b in pairs], [0.0] * len(us), us, 1.0, 20.0, lo, hi, rng
    )
    bounds_ok = all(lo <= v <= hi for v in y1 + y2)
    report(
        mean_ok and swap_ok and identity_ok and bounds_ok,
        f"criterion 3 (operator algebra): max SBX mean drift {worst:.2e} <= 1e-9 over "
        f"{100_000 - len(redrawn)} first-try pairs, u=0.5 swap {swap_ok}, "
        f"mutation identity {identity_ok}, bounds {bounds_ok}",
    )


def test_c04_crowding():
    """Criterion 4: exact distances and affine invariance of finite distances."""
    d = crowding_distance_assignment([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
    exact_ok = math.isinf(d[0]) and d[1] == 2.0 and math.isinf(d[2])

    rng = np.random.default_rng(19)
    affine_ok = True
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 15))
        xs = np.sort(rng.uniform(0, 1, n))
        ys = np.sort(rng.uniform(0, 1, n))[::-1]
        base = crowding_distance_assignment([(float(x), float(y)) for x, y in zip(xs, ys)])
        a, b = float(rng.uniform(0.1, 7)), float(rng.uniform(-5, 5))
        dim = int(rng.integers(0, 2))
        scaled_objs = [
            (a * x + b, y) if dim == 0 else (x, a * y + b)
            for x, y in ((float(x), float(y)) for x, y in zip(xs, ys))
        ]
        scaled = crowding_distance_assignment(scaled_objs)
        for u, v in zip(base, scaled):
            if math.isinf(u) != math.isinf(v):
                affine_ok = False
            elif not math.isinf(u):
                worst = max(worst, abs(u - v))
    affine_ok = affine_ok and worst <= 1e-12
    report(
        exact_ok and affine_ok,
        f"criterion 4 (crowding): exact (inf, 2.0, inf) {exact_ok}, "
        f"max affine drift {worst:.2e} <= 1e-12",
    )


def test_c05_constraint_compliance():
    """Criterion 5: every returned solution satisfies the constraints, 50 configs."""
    rng = np.random.default_rng(101)
    violations = 0
    for run in range(50):
        n_pos = int(rng.integers(15, 60))
        n_neg = int(rng.integers(15, 60))
        valid = ro.synth_two_gaussian(
            n_pos, n_neg, float(rng.uniform(0.3, 1.2)), float(rng.uniform(-1.2, -0.3)),
            float(rng.uniform(0.6, 1.4)), seed=run,
        )
        cfg = ro.MobaConfig(
            p_max=float(rng.uniform(0.08, 0.4)),
            n_max=float(rng.uniform(0.08, 0.4)),
            popsize=int(rng.integers(2, 9)) * 2,
            gensize=int(rng.integers(5, 26)),
            crossover_prob=float(rng.uniform(0.6, 1.0)),
            mutation_prob=float(rng.uniform(0.2, 0.8)),
            eta_c=float(rng.uniform(5, 30)),
            eta_m=float(rng.uniform(5, 30)),
            seed=run,
        )
        res = ro.evolve(valid, cfg)
        for ind in res.pareto:
            t = ind.thresholds
            c = direct_confusion(valid, t.t1, t.t2)
            if (
                t.t1 >= t.t2
                or c["rp"] / valid.n_pos > cfg.p_max
                or c["rn"] / valid.n_neg > cfg.n_max
            ):
                violations += 1
    report(violations == 0, f"criterion 5 (constraint compliance): {violations} violations in 50 runs")


def test_c06_elitist_monotonicity():
    """Criterion 6: per-objective population minima never increase, 20 runs."""
    violations = 0
    for seed in range(20):
        valid = ro.synth_two_gaussian(50, 50, 0.8, -0.8, 1.0, seed=seed + 200)
        cfg = ro.MobaConfig(p_max=0.15, n_max=0.15, popsize=12, gensize=40, seed=seed)
        res = ro.evolve(valid, cfg)
        f1 = [g.min_f1 for g in res.generations]
        f2 = [g.min_f2 for g in res.generations]
        if any(b > a for a, b in zip(f1, f1[1:])) or any(b > a for a, b in zip(f2, f2[1:])):
            violations += 1
    report(violations == 0, f"criterion 6 (elitist monotonicity): {violations} violations in 20 runs")


def test_c07_ba_oracle():
    """Criterion 7: exact objective match with the double-loop brute force, 100 datasets."""
    rng = np.random.default_rng(55)
    mismatches = 0
    for trial in range(100):
        n_pos = int(rng.integers(3, 31))
        n_neg = int(rng.integers(3, 31))
        data = ro.synth_two_gaussian(
            n_pos, n_neg, float(rng.uniform(0.2, 1.0)), float(rng.uniform(-1.0, -0.2)),
            float(rng.uniform(0.5, 1.5)), seed=trial + 500,
        )
        k_max = float(rng.uniform(0.05, 0.6))
        cfn = float(rng.uniform(0.5, 5.0))
        cfp = float(rng.uniform(0.5, 5.0))
        res = ro.ba_optimize(data, k_max, cfn, cfp)

        cands = midpoint_candidates(data.scores)
        total = len(data)
        best = None
        for i in range(len(cands)):
            for j in range(i, len(cands)):
                c = direct_confusion(data, cands[i], cands[j])
                if (c["rp"] + c["rn"]) / total > k_max:
                    continue
                classified = c["tp"] + c["fn"] + c["fp"] + c["tn"]
                if classified == 0:
                    continue
                obj = (cfn * c["fn"] + cfp * c["fp"]) / classified
                if best is None or obj < best:
                    best = obj
        if res.objective != best:
            mismatches += 1
    report(mismatches == 0, f"criterion 7 (BA oracle): {mismatches} objective mismatches in 100 datasets")


def test_c08_tortorella_sanity():
    """Criterion 8: activated runs never lose to the best single threshold."""
    valid = ro.synth_two_gaussian(60, 60, 0.7, -0.7, 1.0, seed=77)
    priors = ro.empirical_priors(valid)
    cands = midpoint_candidates(valid.scores)
    single_counts = [direct_confusion(valid, c, c) for c in cands]
    cm1 = ro.builtin_cost_models()["cm1"]
    rng = np.random.default_rng(404)

    violations = 0
    activated_seen = 0
    for _ in range(100):
        costs = ro.sample_cost_matrix(cm1, rng)
        res = ro.tortorella_optimize(valid, costs, priors)
        if not res.activated:
            if res.solution.thresholds.t1 != res.solution.thresholds.t2:
                violations += 1
            continue
        activated_seen += 1
        best_single = math.inf
        for c in single_counts:
            cost = priors.p_pos * (
                costs.cfn * c["fn"] / valid.n_pos + costs.ctp * c["tp"] / valid.n_pos
            ) + priors.p_neg * (
                costs.ctn * c["tn"] / valid.n_neg + costs.cfp * c["fp"] / valid.n_neg
            )
            best_single = min(best_single, cost)
        if res.cost > best_single + 1e-12:
            violations += 1
    report(
        violations == 0 and activated_seen > 0,
        f"criterion 8 (Tortorella sanity): {violations} violations in 100 matrices "
        f"({activated_seen} activated)",
    )


def test_c09_harness_conservation():
    """Criterion 9: comparison counts sum exactly to trials at trials=1000."""
    valid = ro.synth_two_gaussian(40, 60, 0.8, -0.8, 1.0, seed=900)
    test = ro.synth_two_gaussian(40, 60, 0.8, -0.8, 1.0, seed=901)
    cfg = ro.MobaConfig(p_max=0.5, n_max=0.5, popsize=8, gensize=12)
    counts = ro.cost_comparison_experiment(
        valid, test, ro.builtin_cost_models()["cm1"], 1000, cfg, seed=31
    )
    ok = (
        counts.lower + counts.higher + counts.identical == 1000
        and counts.not_activated <= counts.identical
    )
    report(
        ok,
        f"criterion 9 (harness conservation): {counts.lower}+{counts.higher}+{counts.identical}"
        f"=1000, not_activated {counts.not_activated} <= identical {counts.identical}",
    )


def test_c10_desk_scale_tradeoff():
    """Criterion 10: MOBA mean test AUC >= BA's at >= 70% of sweep grid points."""
    full = ro.synth_two_gaussian(300, 700, 1.0, -1.0, 1.3, seed=2024)
    _, valid, test = ro.stratified_split(full, ro.SplitSpec(0.6, 0.2, 0.2, seed=99))

    # overlap sanity: best no-reject threshold on valid scores ~0.8 accuracy on test
    cands = midpoint_candidates(valid.scores)
    best_t = max(
        (float(c) for c in cands),
        key=lambda c: ro.essential_metrics(
            ro.classify_with_rejection(valid, ro.ThresholdPair(c, c))
        ).acc,
    )
    no_reject_acc = ro.essential_metrics(
        ro.classify_with_rejection(test, ro.ThresholdPair(best_t, best_t))
    ).acc
    assert 0.75 <= no_reject_acc <= 0.86, f"fixture drifted: no-reject acc {no_reject_acc}"

    grid = ro.default_sweep_grid()
    n_seeds = 20
    moba = np.full((n_seeds, len(grid)), np.nan)
    ba = np.full((n_seeds, len(grid)), np.nan)
    cfg = ro.MobaConfig(p_max=0.5, n_max=0.5, popsize=20, gensize=100)
    for s in range(n_seeds):
        for p in ro.curve_sweep(valid, test, cfg, seed=s):
            gi = grid.index(p.reject_param)
            v = p.auc if p.auc is not None else np.nan
            (moba if p.model == "moba" else ba)[s, gi] = v
    wins = int((np.nanmean(moba, axis=0) >= np.nanmean(ba, axis=0)).sum())
    report(
        wins >= math.ceil(0.7 * len(grid)),
        f"criterion 10 (trade-off property): MOBA mean AUC >= BA at {wins}/{len(grid)} "
        f"grid points (need >= {math.ceil(0.7 * len(grid))}); no-reject acc {no_reject_acc:.3f}",
    )


def test_c11_cli_determinism(tmp_path):
    """Criterion 11: byte-identical outputs for the three commands, fixed seed."""
    scores = tmp_path / "scores.csv"
    ro.write_scored_csv(ro.synth_two_gaussian(120, 180, 0.9, -0.9, 1.1, seed=512), scores)

    def run_twice(name, argv_fn, files):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            assert cli_main(argv_fn(str(out))) == 0
            outs.append(out)
        return all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files)

    opt_ok = run_twice(
        "opt",
        lambda out: [
            "optimize", "--scores", str(scores), "--pmax", "0.1", "--nmax", "0.1",
            "--seed", "42", "--out", out, "--popsize", "12", "--gensize", "25",
        ],
        ["pareto.json", "pareto.txt"],
    )
    cc_ok = run_twice(
        "cc",
        lambda out: [
            "compare-costs", "--scores", str(scores), "--cost-model", "cm1",
            "--trials", "25", "--seed", "9", "--out", out, "--popsize", "8", "--gensize", "10",
        ],
        ["comparison.csv"],
    )
    cur_ok = run_twice(
        "cur",
        lambda out: [
            "curves", "--scores", str(scores), "--seed", "5", "--out", out,
            "--popsize", "20", "--gensize", "40",
        ],
        ["curves.csv", "acc_rej.svg", "auc_rej.svg", "g_rej.svg"],
    )
    report(
        opt_ok and cc_ok and cur_ok,
        f"criterion 11 (CLI determinism): optimize {opt_ok}, compare-costs {cc_ok}, curves {cur_ok}",
    )


def test_c12_cost_homogeneity():
    """Criterion 12: expected_cost is exactly linear in the cost matrix."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(500):
        counts = [int(x) for x in rng.integers(0, 50, 6)]
        if counts[0] + counts[1] + counts[2] == 0 or counts[3] + counts[4] + counts[5] == 0:
            continue
        m = ro.essential_metrics(RejectionConfusion(*counts))
        p = float(rng.uniform(0.05, 0.95))
        priors = ClassPriors(p, 1 - p)
        values = [float(x) for x in rng.uniform(-10, 50, 6)]
        costs = ro.CostMatrix(*values)
        lam = float(rng.uniform(0.1, 4.0))
        scaled = ro.CostMatrix(*(v * lam for v in values))
        diff = abs(
            ro.expected_cost(m, priors, scaled)
            - lam * ro.expected_cost(m, priors, costs)
        )
        worst = max(worst, diff)
    report(worst <= 1e-12, f"criterion 12 (cost homogeneity): max |diff| {worst:.2e} <= 1e-12")
