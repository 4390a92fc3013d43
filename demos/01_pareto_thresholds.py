"""Find Pareto-optimal rejection thresholds for a synthetic scorer.

An abstaining classifier is a pair of thresholds (t1, t2): scores above t2
are called positive, scores at or below t1 negative, and anything in
between is rejected. This walkthrough tunes the pair on synthetic
confidence scores so that the two per-class error rates are jointly
minimal while neither class loses more than 10% of its examples to
rejection.
"""

import json

import rejectopt as ro
from rejectopt.cli import pareto_document

# Scores from a pretend classifier: positives centered at +1, negatives at
# -1, enough overlap that some examples are genuinely ambiguous.
valid = ro.synth_two_gaussian(n_pos=100, n_neg=100, mu_pos=1.0, mu_neg=-1.0,
                              sigma=1.0, seed=42)
print(f"tuning set: {valid.n_pos} positives, {valid.n_neg} negatives, "
      f"scores spanning [{valid.score_range()[0]:.2f}, {valid.score_range()[1]:.2f}]")

# Cap the rejected fraction of each class at 10% and run the search with
# the published default configuration (population 20, 100 generations).
cfg = ro.MobaConfig(p_max=0.10, n_max=0.10, seed=7)
result = ro.evolve(valid, cfg)

print(f"\n{len(result.pareto)} Pareto-optimal threshold pairs "
      f"(fpr = errors among classified negatives, fnr = among classified positives):")
print(f"{'t1':>9} {'t2':>9} {'fpr':>7} {'fnr':>7}")
for ind in sorted(result.pareto, key=lambda i: i.objectives):
    t = ind.thresholds
    print(f"{t.t1:>9.4f} {t.t2:>9.4f} {ind.objectives[0]:>7.4f} {ind.objectives[1]:>7.4f}")

# The whole front in one number: area it dominates below the (1,1) corner.
hv = ro.hypervolume_2d([ind.objectives for ind in result.pareto])
print(f"\nfront hypervolume vs reference (1,1): {hv:.4f}")

# Search progress: the best value of each objective never worsens because
# elite preservation keeps the per-objective extremes.
gens = result.generations
print("generation history (best fpr, best fnr, feasible count):")
for g in gens[:: max(1, len(gens) // 5)]:
    print(f"  gen {g.generation:>3}: {g.min_f1:.4f}  {g.min_f2:.4f}  {g.feasible_count}")

# The exportable document mirrors what the `rejectopt optimize` command writes.
doc = pareto_document(result, valid)
print(f"\nexport preview: metadata {doc['metadata']}")
print(f"first solution record: {json.dumps(doc['solutions'][0], sort_keys=True)}")
