"""Pareto-optimal rejection thresholds for abstaining binary classifiers.

Given confidence scores and labels from any external scorer, this package
finds threshold pairs (t1, t2) — scores in (t1, t2] abstain — that are
Pareto-optimal for the two per-class error rates under per-class
abstention caps, via an elitist constrained genetic engine. Two published
baselines (ROC-convex-hull expected-cost minimization and bounded
abstention), cost-model comparison counting, and performance-rejection
curve sweeps are included.
"""

from .baselines import (
    ba_optimize,
    check_reject_activation,
    roc_points,
    rocch,
    tortorella_optimize,
)
from .data import (
    ScoredDataset,
    ScoresCsvError,
    SplitSpec,
    load_scored_csv,
    stratified_split,
    synth_two_gaussian,
    write_scored_csv,
)
from .harness import (
    NoEligibleSolutionError,
    builtin_cost_models,
    cost_comparison_experiment,
    curve_sweep,
    default_sweep_grid,
    sample_cost_matrix,
    select_best_under_cap,
    select_min_cost,
)
from .metrics import (
    CostMatrix,
    SolutionEval,
    ThresholdPair,
    classify_with_rejection,
    empirical_priors,
    essential_metrics,
    expected_cost,
)
from .moba import (
    EvolveResult,
    MobaConfig,
    evolve,
    hypervolume_2d,
)

__version__ = "0.1.0"
