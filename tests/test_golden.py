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

# fixture file -> (command argv without --scores/--out, output file name)
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
}


def produce(name: str, workdir: Path) -> bytes:
    scores = workdir / "scores.csv"
    if not scores.exists():
        write_scored_csv(synth_two_gaussian(120, 180, 0.9, -0.9, 1.1, seed=512), scores)
    argv, filename = CASES[name]
    out = workdir / name.replace(".", "_")
    assert cli_main(argv + ["--scores", str(scores), "--out", str(out)]) == 0
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
