"""The two published baselines: hull-based cost minimization and bounded
abstention.

The first baseline needs a full cost matrix: it builds the ROC convex hull
of the scores, checks whether the cost structure can activate the reject
option at all, and picks the hull-vertex threshold pair with the smallest
expected cost. The second needs only the two misclassification costs and
an overall abstention budget.
"""

import rejectopt as ro

valid = ro.synth_two_gaussian(n_pos=80, n_neg=120, mu_pos=0.8, mu_neg=-0.8,
                              sigma=1.1, seed=3)
priors = ro.empirical_priors(valid)
print(f"tuning set priors: p(+) = {priors.p_pos:.3f}, p(-) = {priors.p_neg:.3f}")

# The ROC convex hull keeps only the operating points worth using. The
# points come as false- and true-positive counts with their cuts, and the
# hull as indices of its vertices, found exactly on those counts.
fp, tp, cuts = ro.roc_points(valid)
hull = ro.rocch(fp, tp)
print(f"\nROC: {fp.size} raw operating points, {hull.size} hull vertices")
fpr, tpr = fp[hull] / valid.n_neg, tp[hull] / valid.n_pos
print("hull (fpr, tpr):", ", ".join(f"({x:.2f},{y:.2f})" for x, y in zip(fpr, tpr)))

# A cost matrix where mistakes are expensive relative to rejection: the
# activation inequality holds, so abstention can lower the expected cost.
costs = ro.CostMatrix(ctp=-2.0, ctn=-2.0, cfp=20.0, cfn=20.0, crp=4.0, crn=4.0)
print(f"\nreject option activated: {ro.check_reject_activation(costs).activated}")

tort = ro.tortorella_optimize(valid, costs, priors)
# Each baseline returns its chosen pair as a solution scored on the tuning
# set: thresholds, confusion counts and every rate.
t, m = tort.solution.thresholds, tort.solution.metrics
print(f"hull baseline: thresholds ({t.t1:.4f}, {t.t2:.4f}), "
      f"expected cost {tort.cost:.4f}")
print(f"  per-class reject rates rpr={m.rpr:.3f}, rnr={m.rnr:.3f} "
      f"(these transfer to the Pareto search as caps)")

# Flip the cost structure so correct negatives are a huge gain: rejection
# can no longer pay off and the baseline degenerates to a single threshold.
dull = ro.CostMatrix(ctp=-1.0, ctn=-50.0, cfp=1.0, cfn=1.0, crp=0.0, crn=0.0)
tort2 = ro.tortorella_optimize(valid, dull, priors)
print(f"\nnot-activated example: activated={tort2.activated}, "
      f"t1 == t2 == {tort2.solution.thresholds.t1:.4f}")

# Bounded abstention: minimize the error rate among classified examples
# (cost ratio 1) while rejecting at most 15% of all examples.
ba = ro.ba_optimize(valid, k_max=0.15, cfn=1.0, cfp=1.0)
print(f"\nbounded abstention at k_max=0.15: thresholds "
      f"({ba.solution.thresholds.t1:.4f}, {ba.solution.thresholds.t2:.4f})")
print(f"  classified error rate {ba.objective:.4f} at overall reject rate "
      f"{ba.solution.metrics.rej:.3f}")

# With a near-zero budget the same model falls back to the best single
# threshold, because every candidate band would reject at least one example.
single = ro.ba_optimize(valid, k_max=1e-6)
m, m0 = ba.solution.metrics, single.solution.metrics
print(f"  accuracy among classified: {m.acc:.4f} "
      f"(best single threshold without abstention: {m0.acc:.4f})")
