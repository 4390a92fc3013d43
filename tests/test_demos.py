"""Smoke test: the demos run in-process and the curves demo reproduces the
committed ``demo-output/curves.csv`` byte for byte."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name",
    ["01_pareto_thresholds.py", "02_baseline_models.py", "04_performance_rejection_curves.py"],
)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
    assert capsys.readouterr().out
    if name.startswith("04"):
        written = (tmp_path / "demo-output" / "curves.csv").read_bytes()
        assert written == (ROOT / "demo-output" / "curves.csv").read_bytes()
