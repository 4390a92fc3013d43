"""The benchmark's workloads: generated input files and the CLI operations run on them.

An operation is one call to ``rejectopt.cli.main(argv)``. A workload runs its
operation list as a cycle, in order, one operation at a time: a closed loop
with one client, as a CLI user waits for each command. A pass repeats whole
cycles until its time is up.

Argument strings are templates: ``{inputs}`` is the directory of generated
input files and ``{cycle}`` the output directory of the current cycle.

This module imports nothing from ``rejectopt``; only :func:`write_inputs`
does, when it is called, so the output checks stay independent of it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InputFile:
    """Two-Gaussian scores, positives at +1 and negatives at -1, unit sigma."""

    name: str
    n_pos: int
    n_neg: int


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    # For select: the scores file its pareto.json was optimized on.
    scores: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: tuple[InputFile, ...]
    ops: tuple[Op, ...]
    # What hv_ratio measures: "front" (optimize fronts against the exact front)
    # or "ba" (the brute-force bounded-abstention optimum against the reported one).
    quality: str = "front"


# Seed 14 gives exactly 5 activated trials out of 6 for each of cm1-cm4, so the
# four compare-costs operations do equal GA work whatever the data seed.
COMPARE_SEED = "14"
COMPARE_TRIALS = "6"
# Two curves runs per cycle: the tail latency (10 samples beyond) then falls
# inside the curves runs however many cycles a run completes. With one, it
# would jump between the curves and the compare-costs runs as the cycle count
# crosses 11.
CURVES_SEEDS = ("14", "15")
# Nine optimize runs outnumber the two faster select runs and the six slower
# protocol runs of protocol_desk together, so its median latency falls inside
# one kind of operation, not on the boundary between two kinds, however many
# cycles a run completes.
DESK_OPTIMIZE_SEEDS = tuple(str(s) for s in range(1, 10))
MIN_COST = ("--ctp", "-1", "--ctn", "-1", "--cfp", "30", "--cfn", "30", "--crp", "1", "--crn", "1")
# Tortorella cost matrices: the first three satisfy the reject-activation
# condition, the last three (reject dearer than it can save) do not.
TORTORELLA_COSTS = (
    ("-2", "-2", "40", "40", "1", "1"),
    ("-5", "0", "20", "60", "2", "2"),
    ("0", "-3", "80", "25", "1", "3"),
    ("-2", "-2", "40", "40", "30", "30"),
    ("0", "0", "10", "10", "9", "9"),
    ("-1", "-1", "5", "50", "40", "40"),
)
# Five BA runs and six Tortorella runs: the Tortorella runs are just over half
# of each cycle, so the median latency is a high percentile of theirs, well
# clear of the BA runs. On a shared host whose speed jumps between a fast and a
# slow state, a median in the middle of one tight kind of operation flips
# between the two states from run to run; a high percentile of it moves only
# when a run spends nearly all its time in the fast state.
BA_KMAX = ("0.05", "0.1", "0.15", "0.2", "0.25")


def _protocol_desk() -> Workload:
    desk = "{inputs}/desk1000.csv"
    ops = [
        Op(
            f"compare_{cm}",
            ("compare-costs", "--scores", desk, "--cost-model", cm, "--trials", COMPARE_TRIALS,
             "--seed", COMPARE_SEED, "--out", f"{{cycle}}/compare_{cm}"),
        )
        for cm in ("cm1", "cm2", "cm3", "cm4")
    ]
    ops += [
        Op(f"curves_s{s}", ("curves", "--scores", desk, "--seed", s, "--out", f"{{cycle}}/curves_s{s}"))
        for s in CURVES_SEEDS
    ]
    ops += [
        Op(
            f"optimize_s{s}",
            ("optimize", "--scores", "{inputs}/desk200.csv", "--pmax", "0.1", "--nmax", "0.1",
             "--seed", s, "--out", f"{{cycle}}/optimize_s{s}"),
        )
        for s in DESK_OPTIMIZE_SEEDS
    ]
    front = "{cycle}/optimize_s1/pareto.json"
    ops.append(Op(
        "select_min_cost",
        ("select", "--pareto", front, "--mode", "min-cost", *MIN_COST, "--out", "{cycle}/select_min_cost"),
        scores="{inputs}/desk200.csv",
    ))
    ops.append(Op(
        "select_best_auc",
        ("select", "--pareto", front, "--mode", "best-metric", "--metric", "auc",
         "--p-cap", "0.1", "--n-cap", "0.1", "--out", "{cycle}/select_best_auc"),
        scores="{inputs}/desk200.csv",
    ))
    return Workload(
        name="protocol_desk",
        why="the paper's two protocols plus desk-scale optimize and select with the default GA; "
        "most time is per-individual evaluation and the O(N^2) sort at population 20",
        inputs=(InputFile("desk1000", 500, 500), InputFile("desk200", 100, 100)),
        ops=tuple(ops),
    )


def _exact_large() -> Workload:
    large = "{inputs}/large5k.csv"
    ops = [
        Op(f"ba_k{k}", ("baseline", "--scores", large, "--model", "ba", "--kmax", k, "--out", f"{{cycle}}/ba_k{k}"))
        for k in BA_KMAX
    ]
    for i, (ctp, ctn, cfp, cfn, crp, crn) in enumerate(TORTORELLA_COSTS):
        ops.append(Op(
            f"tortorella_{i}",
            ("baseline", "--scores", large, "--model", "tortorella", "--ctp", ctp, "--ctn", ctn,
             "--cfp", cfp, "--cfn", cfn, "--crp", crp, "--crn", crn, "--out", f"{{cycle}}/tortorella_{i}"),
        ))
    return Workload(
        name="exact_large",
        why="the exact baselines on 5 000 continuous scores and no GA: dense k x k bounded "
        "abstention and the ROC-hull pair search; a GA change should not move it",
        inputs=(InputFile("large5k", 2_500, 2_500),),
        ops=tuple(ops),
        quality="ba",
    )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (_protocol_desk(), _exact_large())}


def write_inputs(workload: Workload, seed: int, directory: str) -> None:
    """Generate every input file of ``workload`` from ``seed`` into ``directory``."""
    import os

    from rejectopt import synth_two_gaussian, write_scored_csv

    os.makedirs(directory, exist_ok=True)
    for index, spec in enumerate(workload.inputs):
        data = synth_two_gaussian(spec.n_pos, spec.n_neg, 1.0, -1.0, 1.0, seed=seed * 16 + index)
        write_scored_csv(data, os.path.join(directory, f"{spec.name}.csv"))
