"""Cost-model comparison protocol: count where the Pareto search beats the
hull baseline.

For each sampled cost matrix the hull baseline runs first; when its reject
option activates, its per-class reject rates become the abstention caps of
the Pareto search, the min-expected-cost solution is selected, and both
models are scored on a held-out test set. The result is three stacked
counts per cost model: lower / higher / identical.
"""

import rejectopt as ro

# One synthetic dataset split 60/20/20: the train part is left out (a real
# run would have used it to fit the scorer), thresholds are tuned on the
# validation part and judged on the test part.
full = ro.synth_two_gaussian(n_pos=150, n_neg=350, mu_pos=1.0, mu_neg=-1.0,
                             sigma=1.2, seed=11)
valid, test = ro.stratified_split(full, seed=5)
print(f"validation {len(valid)} examples, test {len(test)} examples")

models = ro.builtin_cost_models()
print("cost models:", ", ".join(models))

# 60 matrices per model keeps this demo quick; the experiment command runs
# the full 1000 by default. The config's seed is the master seed; it fans
# out one child per trial, so trial order never matters.
cfg = ro.MobaConfig(p_max=0.5, n_max=0.5, popsize=20, gensize=60, seed=2718)
for cm_id in ("cm1", "cm4"):
    counts = ro.cost_comparison_experiment(valid, test, models[cm_id], trials=60, cfg=cfg)
    print(f"\n{cm_id}")
    print(f"  lower     {counts.lower}")
    print(f"  higher    {counts.higher}")
    print(f"  identical {counts.identical}   (not activated: {counts.not_activated})")

# cm4 samples the rejection costs from U[0,30] instead of pinning them to
# 1, so the activation inequality fails more often and the identical
# bucket swells: with expensive rejection the single-threshold classifier
# is already optimal and no Pareto model is built.
