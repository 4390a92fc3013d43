"""Performance-rejection curves: how much does abstention buy each model?

Both models sweep the abstention budget from 0.01 to 0.29 in steps of
0.02. The Pareto model gets per-class caps (p_max = n_max = k) and keeps
its best-AUC solution; the bounded-abstention model gets the overall cap
k. Each selected classifier is then scored on the test set.
"""

import rejectopt as ro
from rejectopt.cli import write_curves

full = ro.synth_two_gaussian(n_pos=300, n_neg=700, mu_pos=1.0, mu_neg=-1.0,
                             sigma=1.3, seed=2024)
_, valid, test = ro.stratified_split(full, ro.SplitSpec(0.6, 0.2, 0.2, seed=99))
print(f"class imbalance p(+) = {ro.empirical_priors(valid).p_pos:.2f}; "
      f"budget grid {ro.default_sweep_grid()}")

cfg = ro.MobaConfig(p_max=0.5, n_max=0.5, popsize=20, gensize=100)
points = ro.curve_sweep(valid, test, cfg, seed=1, metric="auc")

print(f"\n{'k':>5} {'model':>6} {'acc':>7} {'auc':>7} {'gmean':>7} {'rej':>6}")
for p in points:
    print(f"{p.reject_param:>5.2f} {p.model:>6} {p.acc:>7.4f} {p.auc:>7.4f} "
          f"{p.gmean:>7.4f} {p.observed_rej:>6.3f}")

# On imbalanced data the bounded-abstention model spends its budget where
# the errors are cheapest to remove, which starves the minority class; the
# per-class caps keep both classes covered, so AUC and G-mean climb with k
# instead of stalling.

out_dir = "demo-output"
write_curves(out_dir, points)
print(f"\nwrote curves.csv and three SVG charts to {out_dir}/")
