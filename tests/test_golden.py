"""Golden fixture: seeded CLI outputs pinned byte for byte.

The inputs and flags are those of acceptance criterion 11. Any change to
the RNG stream, tie order or output format shows up here as a deliberate
fixture update, not as silent drift. After an intended change, rewrite the
fixture with::

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from rejectopt.cli import main as cli_main
from rejectopt.data import synth_two_gaussian, write_scored_csv

GOLDEN = Path(__file__).parent / "golden"
PARETO = str(GOLDEN / "pareto.json")

# fixture file -> (command argv without --scores/--out, output file name);
# the select cases read the committed pareto.json fixture
CASES = {
    "pareto.json": (
        ["optimize", "--pmax", "0.1", "--nmax", "0.1", "--seed", "42",
         "--popsize", "12", "--gensize", "25"],
        "pareto.json",
    ),
    "comparison.csv": (
        ["compare-costs", "--cost-model", "cm1", "--trials", "25", "--seed", "9",
         "--popsize", "8", "--gensize", "10"],
        "comparison.csv",
    ),
    "curves.csv": (
        ["curves", "--seed", "5", "--popsize", "20", "--gensize", "40"],
        "curves.csv",
    ),
    "baseline_ba.json": (
        ["baseline", "--model", "ba", "--kmax", "0.05"],
        "baseline.json",
    ),
    "baseline_ba_costs.json": (  # non-dyadic cost: float ties, not exact ones, decide
        ["baseline", "--model", "ba", "--kmax", "0.25", "--cfn", "0.1", "--cfp", "3"],
        "baseline.json",
    ),
    "baseline_tortorella.json": (  # the reject option is activated
        ["baseline", "--model", "tortorella", "--ctp", "-2", "--ctn", "-2", "--cfp", "40",
         "--cfn", "40", "--crp", "1", "--crn", "1"],
        "baseline.json",
    ),
    "baseline_tortorella_single.json": (  # not activated: one threshold, t1 = t2
        ["baseline", "--model", "tortorella", "--ctp", "0", "--ctn", "0", "--cfp", "10",
         "--cfn", "10", "--crp", "9", "--crn", "9"],
        "baseline.json",
    ),
    "selection_min_cost.json": (
        ["select", "--pareto", PARETO, "--mode", "min-cost", "--ctp", "-2", "--ctn", "-2",
         "--cfp", "30", "--cfn", "40", "--crp", "2", "--crn", "2"],
        "selection.json",
    ),
    "selection_best_auc.json": (
        ["select", "--pareto", PARETO, "--mode", "best-metric", "--metric", "auc",
         "--p-cap", "0.1", "--n-cap", "0.1"],
        "selection.json",
    ),
}


def produce(name: str, workdir: Path) -> bytes:
    scores = workdir / "scores.csv"
    if not scores.exists():
        write_scored_csv(synth_two_gaussian(120, 180, 0.9, -0.9, 1.1, seed=512), scores)
    argv, filename = CASES[name]
    out = workdir / name.replace(".", "_")
    inputs = [] if argv[0] == "select" else ["--scores", str(scores)]
    assert cli_main(argv + inputs + ["--out", str(out)]) == 0
    return (out / filename).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert produce(name, tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            (GOLDEN / name).write_bytes(produce(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
