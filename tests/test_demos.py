"""Smoke test: the demos and the README quickstart run in-process, and the
curves demo reproduces the committed ``demo-output/curves.csv`` byte for byte."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name",
    [
        "01_pareto_thresholds.py",
        "02_baseline_models.py",
        "03_cost_model_comparison.py",
        "04_performance_rejection_curves.py",
    ],
)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
    assert capsys.readouterr().out
    if name.startswith("04"):
        written = (tmp_path / "demo-output" / "curves.csv").read_bytes()
        assert written == (ROOT / "demo-output" / "curves.csv").read_bytes()


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {"__name__": "__main__"}
    exec(compile(code, "README.md quickstart", "exec"), namespace)
    assert capsys.readouterr().out
    assert namespace["best"] in namespace["result"].pareto
