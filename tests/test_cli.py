import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import rejectopt
from rejectopt.cli import (
    _invoked_command,
    _num,
    _read_record,
    build_parser,
    main,
    solution_record,
)
from rejectopt.data import ScoredDataset, load_scored_csv, synth_two_gaussian, write_scored_csv
from rejectopt.metrics import (
    ClassPriors,
    CostMatrix,
    RejectionConfusion,
    SolutionEval,
    ThresholdPair,
    classify_with_rejection,
    essential_metrics,
    expected_cost,
)


@pytest.fixture(scope="module")
def scores_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("scores") / "scores.csv"
    write_scored_csv(synth_two_gaussian(120, 180, 0.9, -0.9, 1.1, seed=50), path)
    return str(path)


def run(*argv):
    return main(list(argv))


_COSTS = ["--ctp", "0", "--ctn", "0", "--cfp", "5", "--cfn", "4", "--crp", "1", "--crn", "1"]


def test_huge_thresholds_print_in_exponent_form(tmp_path, capsys):
    # fixed point would print a cut near the float limit with ~309 digits
    assert (_num(-2.5), _num(999_999.0), _num(-math.inf)) == ("-2.500000", "999999.000000", "-inf")
    assert (_num(1e15), _num(-3e300)) == ("1.000000e+15", "-3.000000e+300")
    top = sys.float_info.max
    path, out = tmp_path / "huge.csv", tmp_path / "run"
    write_scored_csv(ScoredDataset([top, top / 2, 1, -1, 0, 2], [1, 1, 1, -1, -1, -1]), path)
    assert run(
        "optimize", "--scores", str(path), "--pmax", "0", "--nmax", "0",
        "--popsize", "4", "--gensize", "3", "--out", str(out),
    ) == 0
    lines = (out / "pareto.txt").read_text().splitlines()
    assert len(lines) > 2 and "e+307" in lines[2]
    assert max(map(len, lines)) <= 80
    assert run(
        "select", "--pareto", str(out / "pareto.json"), "--mode", "best-metric",
        "--metric", "auc", "--out", str(tmp_path / "sel"),
    ) == 0
    assert run(
        "baseline", "--model", "tortorella", "--scores", str(path), "--out", str(tmp_path / "b"),
        "--ctp", "0", "--ctn", "0", "--cfp", "5", "--cfn", "5", "--crp", "1", "--crn", "1",
    ) == 0
    printed = capsys.readouterr().out
    assert "e+307" in printed.splitlines()[-1] and not re.search(r"\d{20}", printed)


@pytest.mark.parametrize(
    "flags",
    [
        ["--model", "ba", "--kmax", "0.5", "--cfp", "1e300", "--cfn", "1e300"],
        [
            "--model", "tortorella", "--cfp=1e300", "--cfn=1e300", "--crp=1e299", "--crn=1e299",
            "--ctp", "0", "--ctn", "0",
        ],
    ],
)
def test_huge_costs_print_in_exponent_form(tmp_path, capsys, flags):
    # fixed point printed these summaries' cost or objective with ~300 digits
    path = tmp_path / "overlap.csv"
    write_scored_csv(ScoredDataset([0.9, 0.4, -0.2, 0.5, -0.6, 0.1], [1, 1, 1, -1, -1, -1]), path)
    assert run("baseline", "--scores", str(path), "--out", str(tmp_path / "b"), *flags) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert len(line) <= 100 and "e+" in line and not re.search(r"\d{20}", line)


class TestOptimize:
    def test_writes_outputs_with_defaults(self, scores_csv, tmp_path):
        out = tmp_path / "run"
        code = run(
            "optimize", "--scores", scores_csv, "--pmax", "0.1", "--nmax", "0.1",
            "--seed", "3", "--out", str(out), "--gensize", "30",
        )
        assert code == 0
        doc = json.loads((out / "pareto.json").read_text())
        meta = doc["metadata"]
        assert meta["popsize"] == 20 and meta["p_max"] == 0.1 and meta["seed"] == 3
        assert (out / "pareto.txt").exists()
        assert all(s["feasible"] for s in doc["solutions"])

    def test_default_hyperparameters_recorded(self, scores_csv, tmp_path, capsys):
        out = tmp_path / "defaults"
        code = run(
            "optimize", "--scores", scores_csv, "--pmax", "0.15", "--nmax", "0.15",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "pareto.json").read_text())
        assert doc["metadata"]["popsize"] == 20 and doc["metadata"]["gensize"] == 100

    def test_seed_reproducibility(self, scores_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                "optimize", "--scores", scores_csv, "--pmax", "0.1", "--nmax", "0.1",
                "--seed", "42", "--out", str(out), "--popsize", "8", "--gensize", "15",
            ) == 0
        assert (a / "pareto.json").read_bytes() == (b / "pareto.json").read_bytes()

    def test_overflowing_score_range_is_data_error(self, tmp_path, capsys):
        from rejectopt.data import ScoredDataset

        path = tmp_path / "huge.csv"
        write_scored_csv(ScoredDataset([-1e308, -1.0, 1.0, 1e308], [1, -1, 1, -1]), path)
        code = run(
            "optimize", "--scores", str(path), "--pmax", "0.5", "--nmax", "0.5",
            "--out", str(tmp_path / "o"), "--popsize", "4", "--gensize", "2",
        )
        assert code == 2
        assert "overflows" in capsys.readouterr().err

    def test_overflow_error_prints_short_bounds(self, tmp_path, capsys):
        # both bounds printed with repr made this a 131-character line
        big = float(np.finfo(np.float64).max)
        path = tmp_path / "max.csv"
        write_scored_csv(ScoredDataset([-big, -1.0, 1.0, big], [1, -1, 1, -1]), path)
        code = run(
            "optimize", "--scores", str(path), "--pmax", "0.5", "--nmax", "0.5",
            "--out", str(tmp_path / "o"),
        )
        err = capsys.readouterr().err
        assert code == 2 and "overflows" in err
        assert all(len(line) <= 100 for line in err.splitlines())

    def test_no_feasible_exit_code(self, tmp_path):
        # dense evenly spaced scores plus near-zero caps: almost every random
        # pair rejects something, yet the search ends with a feasible front
        n = 400
        data = ScoredDataset(np.linspace(0, 1, n), np.where(np.arange(n) % 2 == 0, 1, -1))
        path = tmp_path / "dense.csv"
        write_scored_csv(data, path)
        code = run(
            "optimize", "--scores", str(path), "--pmax", "0.0001", "--nmax", "0.0001",
            "--out", str(tmp_path / "x"), "--popsize", "4", "--gensize", "2",
        )
        assert code == 0
        sols = json.loads((tmp_path / "x" / "pareto.json").read_text())["solutions"]
        assert sols
        for rec in sols:
            assert rec["t1"] < rec["t2"]
            assert rec["rpr"] <= 0.0001 and rec["rnr"] <= 0.0001

    def test_fully_rejected_class_exports_null(self, tmp_path):
        # caps of 1 admit pairs that reject every positive, whose undefined fnr
        # would export as null; the search counts such pairs infeasible instead
        path = tmp_path / "small.csv"
        write_scored_csv(synth_two_gaussian(15, 15, 0.3, -0.3, 1.0, seed=20), path)
        out = tmp_path / "opt"
        assert run(
            "optimize", "--scores", str(path), "--pmax", "1", "--nmax", "1", "--seed", "20",
            "--popsize", "12", "--gensize", "30", "--out", str(out),
        ) == 0
        sols = json.loads((out / "pareto.json").read_text())["solutions"]
        rows = (out / "pareto.txt").read_text().splitlines()[2:]
        assert sols and len(rows) == len(sols)
        for rec, row in zip(sols, rows):
            assert rec["rpr"] < 1.0 and rec["rnr"] < 1.0
            assert rec["fpr"] is not None and rec["fnr"] is not None
            assert "nan" not in row.split()
        assert run(
            "select", "--pareto", str(out / "pareto.json"), "--mode", "best-metric",
            "--metric", "g", "--out", str(tmp_path / "sel"),
        ) == 0

    def test_missing_file_is_data_error(self, tmp_path):
        code = run(
            "optimize", "--scores", str(tmp_path / "nope.csv"), "--pmax", "0.1",
            "--nmax", "0.1", "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_bad_flag_value_is_usage_error(self, scores_csv, tmp_path):
        out = tmp_path / "o"
        code = run(
            "optimize", "--scores", scores_csv, "--pmax", "1.7", "--nmax", "0.1",
            "--out", str(out),
        )
        assert code == 1
        assert not out.exists()  # flags are validated before any output is written

    @pytest.mark.parametrize("flag", ["--eta-c", "--eta-m", "--pc"])
    def test_nan_operator_setting_is_usage_error(self, scores_csv, tmp_path, flag):
        for value in ("nan", "inf"):
            out = tmp_path / value
            code = run(
                "optimize", "--scores", scores_csv, "--pmax", "0.1", "--nmax", "0.1",
                flag, value, "--out", str(out),
            )
            assert code == 1
            assert not out.exists()

    def test_parser_defaults_mirror_published_config(self):
        from rejectopt.cli import build_parser

        args = build_parser().parse_args(
            ["optimize", "--scores", "x.csv", "--pmax", "0.1", "--nmax", "0.1", "--out", "o"]
        )
        assert (args.popsize, args.gensize) == (20, 100)
        assert (args.pc, args.pm) == (0.9, 0.5)
        assert (args.eta_c, args.eta_m) == (20.0, 20.0)


class TestBaseline:
    def test_ba_defaults(self, scores_csv, tmp_path, capsys):
        out = tmp_path / "ba"
        code = run(
            "baseline", "--scores", scores_csv, "--model", "ba", "--kmax", "0.1",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "baseline.json").read_text())
        assert doc["metadata"]["model"] == "ba"
        assert doc["metadata"]["cfn"] == 1.0 and doc["metadata"]["cfp"] == 1.0
        assert len(doc["solutions"]) == 1

    @pytest.mark.parametrize("flag", ["--cfn", "--cfp"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_ba_bad_cost_is_usage_error(self, scores_csv, tmp_path, capsys, flag, value):
        out = tmp_path / "ba"
        code = run(
            "baseline", "--scores", scores_csv, "--model", "ba", "--kmax", "0.1",
            flag, value, "--out", str(out),
        )
        assert code == 1
        assert not out.exists()
        assert "finite and non-negative" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_ba_overflowing_costs_are_usage_error(self, scores_csv, tmp_path, capsys):
        # (cfn*n_pos + cfp*n_neg)*n overflows: this used to warn and then exit 2
        out = tmp_path / "ba"
        code = run(
            "baseline", "--scores", scores_csv, "--model", "ba", "--kmax", "0.2",
            "--cfn", "1e308", "--cfp", "1e308", "--out", str(out),
        )
        assert code == 1
        assert not out.exists()
        assert "too large" in capsys.readouterr().err

    def test_ba_needs_kmax(self, scores_csv, tmp_path):
        code = run("baseline", "--scores", scores_csv, "--model", "ba", "--out", str(tmp_path / "o"))
        assert code == 1

    def test_tortorella_not_activated_exit_zero(self, scores_csv, tmp_path):
        out = tmp_path / "tort"
        code = run(
            "baseline", "--scores", scores_csv, "--model", "tortorella",
            "--ctp", "-1", "--ctn", "-50", "--cfp", "1", "--cfn", "1",
            "--crp", "0", "--crn", "0", "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "baseline.json").read_text())
        assert doc["metadata"]["activated"] is False
        sol = doc["solutions"][0]
        assert sol["t1"] == sol["t2"]

    def test_negative_costs_in_exponent_form_need_the_equals_form(self, scores_csv, tmp_path):
        # argparse reads "-1e-3" after a flag as an option, not a negative number
        out = tmp_path / "tort"
        code = run(
            "baseline", "--scores", scores_csv, "--model", "tortorella",
            "--ctp=-1e-3", "--ctn=-2.5E1", "--cfp", "1", "--cfn", "1",
            "--crp", "0", "--crn", "0", "--out", str(out),
        )
        assert code == 0
        meta = json.loads((out / "baseline.json").read_text())["metadata"]
        assert (meta["ctp"], meta["ctn"]) == (-1e-3, -25.0)

    def test_tortorella_needs_costs(self, scores_csv, tmp_path):
        code = run(
            "baseline", "--scores", scores_csv, "--model", "tortorella",
            "--out", str(tmp_path / "o"),
        )
        assert code == 1

    @pytest.mark.parametrize("flag", _COSTS[::2])
    def test_tortorella_needs_every_cost_flag(self, scores_csv, tmp_path, capsys, flag):
        # only ba gives --cfn and --cfp a default (1); tortorella needs every entry
        out, i = tmp_path / "o", _COSTS.index(flag)
        costs = _COSTS[:i] + _COSTS[i + 2:]
        code = run(
            "baseline", "--scores", scores_csv, "--model", "tortorella", *costs,
            "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: all six cost flags are required: --ctp --ctn --cfp --cfn --crp --crn\n"
        )
        assert not out.exists()

    def test_deterministic_output(self, scores_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                "baseline", "--scores", scores_csv, "--model", "ba", "--kmax", "0.15",
                "--out", str(out),
            ) == 0
        assert (a / "baseline.json").read_bytes() == (b / "baseline.json").read_bytes()

    @pytest.mark.filterwarnings("error")
    def test_max_float_sentinel_cut_round_trips_through_select(self, tmp_path):
        path = tmp_path / "extreme.csv"
        scores = [-1.7976931348623157e308] * 2 + [5.0, 1.0]  # below-min cut is -inf
        write_scored_csv(ScoredDataset(scores, [1, 1, -1, -1]), path)
        costs = ["--ctp", "0", "--ctn", "0", "--cfp", "1", "--cfn", "1", "--crp", "0", "--crn", "0"]
        out = tmp_path / "tort"
        assert run("baseline", "--scores", str(path), "--model", "tortorella", *costs,
                   "--out", str(out)) == 0
        text = (out / "baseline.json").read_text()
        assert '"t1": -Infinity' in text and '"t2": -Infinity' in text
        assert run("select", "--pareto", str(out / "baseline.json"), "--mode", "min-cost",
                   *costs, "--out", str(tmp_path / "sel")) == 0
        chosen = json.loads((tmp_path / "sel" / "selection.json").read_text())["solution"]
        assert chosen["t1"] == chosen["t2"] == -np.inf


class TestCompareCosts:
    def test_counts_sum_to_trials(self, scores_csv, tmp_path):
        out = tmp_path / "cc"
        code = run(
            "compare-costs", "--scores", scores_csv, "--cost-model", "cm1",
            "--trials", "6", "--seed", "11", "--out", str(out),
            "--popsize", "8", "--gensize", "8",
        )
        assert code == 0
        header, row = (out / "comparison.csv").read_text().strip().split("\n")
        assert header == "cost_model,lower,higher,identical,not_activated"
        model, lower, higher, identical, not_activated = row.split(",")
        assert model == "cm1"
        assert int(lower) + int(higher) + int(identical) == 6
        assert int(not_activated) <= int(identical)

    def test_unknown_cost_model_is_usage_error(self, scores_csv, tmp_path, capsys):
        out = tmp_path / "cc"
        with pytest.raises(SystemExit) as e:
            run("compare-costs", "--scores", scores_csv, "--cost-model", "cm5", "--out", str(out))
        assert e.value.code == 1
        assert "invalid choice: 'cm5'" in capsys.readouterr().err
        assert not out.exists()


class TestCurves:
    def test_outputs(self, scores_csv, tmp_path):
        out = tmp_path / "curves"
        code = run(
            "curves", "--scores", scores_csv, "--seed", "2", "--out", str(out),
            "--popsize", "8", "--gensize", "10",
        )
        assert code == 0
        lines = (out / "curves.csv").read_text().strip().split("\n")
        assert lines[0] == "reject_param,model,acc,auc,gmean,observed_rej"
        assert len(lines) == 1 + 30  # 15 grid values x 2 models
        for name in ("acc_rej.svg", "auc_rej.svg", "g_rej.svg"):
            svg = (out / name).read_text()
            assert svg.startswith("<svg") and 'viewBox="0 0 800 600"' in svg
            assert svg.count("<polyline") >= 2  # both model series present



def fully_rejected_doc():
    """Two hand-written records; the first rejects every negative."""
    return {
        "metadata": {"n_pos": 4, "n_neg": 6},
        "solutions": [
            {"t1": 0.0, "t2": 1.0, "fpr": None, "fnr": 0.25,
             "rpr": 0.0, "rnr": 1.0, "feasible": True,
             "counts": {"tp": 3, "fn": 1, "rp": 0, "fp": 0, "tn": 0, "rn": 6}},
            {"t1": 0.2, "t2": 0.4, "fpr": 0.5, "fnr": 0.25,
             "rpr": 0.0, "rnr": 0.0, "feasible": True,
             "counts": {"tp": 3, "fn": 1, "rp": 0, "fp": 3, "tn": 3, "rn": 0}},
        ],
    }


_DELETE = object()


def _edit(doc, path, value):
    """Set the entry at ``path`` of ``doc`` to ``value`` (remove it for ``_DELETE``)."""
    *keys, last = path
    for key in keys:
        doc = doc[key]
    if value is _DELETE:
        del doc[last]
    else:
        doc[last] = value


class TestSelect:
    @pytest.fixture()
    def pareto_json(self, scores_csv, tmp_path):
        out = tmp_path / "opt"
        assert run(
            "optimize", "--scores", scores_csv, "--pmax", "0.2", "--nmax", "0.2",
            "--seed", "1", "--out", str(out), "--popsize", "12", "--gensize", "20",
        ) == 0
        return str(out / "pareto.json")

    def test_min_cost_matches_exhaustive(self, pareto_json, tmp_path):
        out = tmp_path / "sel"
        code = run(
            "select", "--pareto", pareto_json, "--mode", "min-cost",
            "--ctp", "-2", "--ctn", "-2", "--cfp", "30", "--cfn", "40",
            "--crp", "2", "--crn", "2", "--out", str(out),
        )
        assert code == 0
        chosen = json.loads((out / "selection.json").read_text())
        doc = json.loads(Path(pareto_json).read_text())
        meta = doc["metadata"]
        priors = ClassPriors(
            meta["n_pos"] / (meta["n_pos"] + meta["n_neg"]),
            meta["n_neg"] / (meta["n_pos"] + meta["n_neg"]),
        )
        costs = CostMatrix(-2, -2, 30, 40, 2, 2)
        all_costs = [
            expected_cost(essential_metrics(RejectionConfusion(**rec["counts"])), priors, costs)
            for rec in doc["solutions"]
        ]
        assert chosen["selection"]["expected_cost"] == pytest.approx(min(all_costs))

    def test_best_metric_vacuous_caps(self, pareto_json, tmp_path):
        out = tmp_path / "sel2"
        code = run(
            "select", "--pareto", pareto_json, "--mode", "best-metric",
            "--metric", "auc", "--p-cap", "1.0", "--n-cap", "1.0", "--out", str(out),
        )
        assert code == 0
        chosen = json.loads((out / "selection.json").read_text())
        doc = json.loads(Path(pareto_json).read_text())
        best_auc = max(
            (1.0 - rec["fnr"] + 1.0 - rec["fpr"]) / 2.0 for rec in doc["solutions"]
        )
        assert chosen["selection"]["value"] == pytest.approx(best_auc)

    def test_reselection_without_reoptimization(self, pareto_json, tmp_path):
        outs = []
        for i, cfn in enumerate(("5", "500")):
            out = tmp_path / f"sel{i}"
            assert run(
                "select", "--pareto", pareto_json, "--mode", "min-cost",
                "--ctp", "-2", "--ctn", "-2", "--cfp", "30", "--cfn", cfn,
                "--crp", "2", "--crn", "2", "--out", str(out),
            ) == 0
            outs.append(json.loads((out / "selection.json").read_text()))
        # both selections come from the same frozen Pareto file
        assert outs[0]["solution"] != outs[1]["solution"] or outs[0] != outs[1]

    def test_empty_eligible_exit_code(self, tmp_path):
        doc = fully_rejected_doc()
        del doc["solutions"][1]  # the record left rejects 6 of 10 examples
        path = tmp_path / "pareto.json"
        path.write_text(json.dumps(doc))
        code = run(
            "select", "--pareto", str(path), "--mode", "best-metric",
            "--metric", "acc", "--cap", "0.5", "--out", str(tmp_path / "x"),
        )
        assert code == 3

    @pytest.mark.parametrize("flag", ["--cap", "--p-cap", "--n-cap"])
    @pytest.mark.parametrize("value", ["nan", "-0.5", "1.5", "inf"])
    def test_cap_outside_unit_interval_is_usage_error(self, flag, value, tmp_path, capsys):
        # checked before the Pareto file is read: a missing file would exit 2
        out = tmp_path / "x"
        code = run(
            "select", "--pareto", str(tmp_path / "missing.json"), "--mode", "best-metric",
            "--metric", "acc", flag, value, "--out", str(out),
        )
        assert code == 1
        assert not out.exists()
        assert f"{flag} must lie in [0,1]" in capsys.readouterr().err

    def test_fully_rejected_class_record(self, tmp_path):
        # baseline writes fpr = null when every negative is rejected
        doc = fully_rejected_doc()
        path = tmp_path / "pareto.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "cost"
        code = run(
            "select", "--pareto", str(path), "--mode", "min-cost",
            "--ctp", "0", "--ctn", "0", "--cfp", "10", "--cfn", "1",
            "--crp", "1", "--crn", "1", "--out", str(out),
        )
        assert code == 0
        chosen = json.loads((out / "selection.json").read_text())
        # costs: 0.4*0.25 + 0.6*1 = 0.7 for the first, 0.4*0.25 + 0.6*5 = 3.1 for the second
        assert chosen["solution"]["t1"] == 0.0 and chosen["solution"]["fpr"] is None
        assert chosen["selection"]["expected_cost"] == pytest.approx(0.7)
        assert chosen["solution"]["auc"] is None and chosen["solution"]["gmean"] is None
        assert chosen["solution"]["acc"] == pytest.approx(0.75)

        out = tmp_path / "auc"
        code = run(
            "select", "--pareto", str(path), "--mode", "best-metric",
            "--metric", "auc", "--out", str(out),
        )
        assert code == 0
        chosen = json.loads((out / "selection.json").read_text())
        assert chosen["solution"]["t1"] == 0.2  # an undefined AUC never wins
        assert chosen["selection"]["value"] == pytest.approx(0.625)

    @pytest.mark.parametrize(
        "path, value, where",
        [
            pytest.param(("solutions", 1, "counts"), _DELETE, "solution 1", id="no-counts"),
            pytest.param(("solutions", 1, "counts", "tn"), _DELETE, "solution 1", id="no-tn"),
            pytest.param(("solutions", 1, "counts", "tp"), -1, "solution 1", id="negative"),
            pytest.param(("solutions", 1, "counts", "fn"), 1.5, "solution 1", id="fraction"),
            pytest.param(("solutions", 1, "counts", "fn"), 1.0, "solution 1", id="float"),
            pytest.param(("solutions", 1, "counts", "rp"), False, "solution 1", id="bool"),
            pytest.param(("solutions", 1, "counts", "fp"), "3", "solution 1", id="string"),
            pytest.param(("solutions", 1, "counts", "tn"), None, "solution 1", id="null"),
            pytest.param(("solutions", 1, "counts", "tp"), 4, "solution 1", id="totals-differ"),
            pytest.param(("metadata", "n_neg"), 7, "solution 0", id="metadata-differs"),
            pytest.param(("solutions", 1, "counts"), {"tp": 0, "fn": 0, "rp": 0, "fp": 3, "tn": 3,
                                                       "rn": 0}, "solution 1", id="no-positives"),
        ],
    )
    def test_invalid_counts_are_data_errors(self, path, value, where, tmp_path, capsys):
        doc = fully_rejected_doc()
        _edit(doc, path, value)
        path = tmp_path / "pareto.json"
        path.write_text(json.dumps(doc))
        code = run(
            "select", "--pareto", str(path), "--mode", "best-metric", "--metric", "acc",
            "--out", str(tmp_path / "sel"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err
        assert not (tmp_path / "sel").exists()

    @pytest.mark.parametrize(
        "n_pos, covered",
        [
            pytest.param("4", 4, id="string"),
            pytest.param(4.0, 4, id="float"),
            pytest.param(True, 1, id="bool"),
        ],
    )
    def test_non_integer_class_totals_are_data_errors(self, n_pos, covered, tmp_path, capsys):
        doc = fully_rejected_doc()
        doc["metadata"]["n_pos"] = n_pos
        for rec in doc["solutions"]:  # the counts cover ``covered`` positives
            rec["counts"].update(tp=covered - 1, fn=1, rp=0)
        path = tmp_path / "pareto.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sel"
        code = run(
            "select", "--pareto", str(path), "--mode", "best-metric", "--metric", "acc",
            "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "metadata n_pos must be a positive integer" in err and "Traceback" not in err
        assert not (out / "selection.json").exists()

    @pytest.mark.parametrize(
        "bad, edited",
        [
            pytest.param(("a", "b"), slice(None), id="strings"),
            pytest.param((10**399, 10**400), slice(None), id="400-digit-integers"),
            pytest.param((False, True), slice(None), id="bools"),
            pytest.param(("a", "b"), slice(-1, None), id="one-string-record"),
        ],
    )
    def test_non_numeric_thresholds_are_data_errors(
        self, bad, edited, pareto_json, tmp_path, capsys
    ):
        doc = json.loads(Path(pareto_json).read_text())
        assert len(doc["solutions"]) > 1
        for rec in doc["solutions"][edited]:
            rec["t1"], rec["t2"] = bad
        path = tmp_path / "pareto.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sel"
        code = run(
            "select", "--pareto", str(path), "--mode", "best-metric", "--metric", "acc",
            "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "bad thresholds" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("inside", [False, True], ids=["document", "solutions"])
    @pytest.mark.parametrize(
        "mode",
        [["--mode", "min-cost", *_COSTS], ["--mode", "best-metric", "--metric", "auc"]],
        ids=["min-cost", "best-metric"],
    )
    def test_deeply_nested_json_is_data_error(self, inside, mode, tmp_path, capsys):
        # the JSON decoder recurses once per level and gives up with a RecursionError
        nested = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "pareto.json"
        path.write_text('{"solutions": %s}' % nested if inside else nested)
        out = tmp_path / "sel"
        assert run("select", "--pareto", str(path), *mode, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: invalid Pareto JSON {path}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_infinite_thresholds_are_valid(self, tmp_path):
        # baseline writes an infinite sentinel cut at the extreme float scores
        doc = fully_rejected_doc()
        doc["solutions"][0]["t1"] = -math.inf
        doc["solutions"][1]["t2"] = math.inf
        path = tmp_path / "pareto.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sel"
        code = run(
            "select", "--pareto", str(path), "--mode", "best-metric", "--metric", "auc",
            "--out", str(out),
        )
        assert code == 0
        chosen = json.loads((out / "selection.json").read_text())["solution"]
        assert (chosen["t1"], chosen["t2"]) == (0.2, math.inf)

    def test_p_pos_weights_acc_rej_and_cost(self, pareto_json, scores_csv, tmp_path):
        p, q = 0.3, 0.7
        costs = {"ctp": -2.0, "ctn": -1.0, "cfp": 30.0, "cfn": 40.0, "crp": 2.0, "crn": 3.0}
        data = load_scored_csv(scores_csv)
        pos, neg = data.scores[data.labels == 1], data.scores[data.labels == -1]

        def recount(t1, t2):
            """Prior-weighted acc, rej and expected cost, counted from the scores."""
            tp, fn = np.sum(pos > t2), np.sum(pos <= t1)
            fp, tn = np.sum(neg > t2), np.sum(neg <= t1)
            rp, rn = pos.size - tp - fn, neg.size - fp - tn
            rpr, rnr = rp / pos.size, rn / neg.size
            acc = (p * tp / pos.size + q * tn / neg.size) / (p * (1 - rpr) + q * (1 - rnr))
            cost = p * (costs["ctp"] * tp + costs["cfn"] * fn + costs["crp"] * rp) / pos.size
            cost += q * (costs["ctn"] * tn + costs["cfp"] * fp + costs["crn"] * rn) / neg.size
            return acc, p * rpr + q * rnr, cost

        front = [recount(r["t1"], r["t2"]) for r in json.loads(Path(pareto_json).read_text())["solutions"]]
        flags = [x for key, value in costs.items() for x in (f"--{key}", str(value))]
        out = tmp_path / "cost"
        assert run("select", "--pareto", pareto_json, "--mode", "min-cost", "--p-pos", "0.3",
                   *flags, "--out", str(out)) == 0
        chosen = json.loads((out / "selection.json").read_text())
        acc, rej, cost = recount(chosen["solution"]["t1"], chosen["solution"]["t2"])
        assert chosen["selection"]["p_pos"] == 0.3
        assert chosen["selection"]["expected_cost"] == pytest.approx(cost, rel=1e-12)
        assert cost == pytest.approx(min(c for _, _, c in front), rel=1e-12)
        assert chosen["solution"]["acc"] == pytest.approx(acc, rel=1e-12)
        assert chosen["solution"]["rej"] == pytest.approx(rej, rel=1e-12)

        out = tmp_path / "acc"
        assert run("select", "--pareto", pareto_json, "--mode", "best-metric", "--metric", "acc",
                   "--p-pos", "0.3", "--out", str(out)) == 0
        chosen = json.loads((out / "selection.json").read_text())
        acc, rej, _ = recount(chosen["solution"]["t1"], chosen["solution"]["t2"])
        assert chosen["selection"]["value"] == pytest.approx(acc, rel=1e-12)
        assert acc == pytest.approx(max(a for a, _, _ in front), rel=1e-12)
        assert chosen["solution"]["rej"] == pytest.approx(rej, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=2, max_size=30),
        st.tuples(st.integers(-2, 12), st.integers(-2, 12)),
    )
    def test_counts_rebuild_metrics_exactly(self, examples, cuts):
        # tied scores on levels k/3; cuts k/6 fall on and between the levels
        labels = [1 if is_pos else -1 for _, is_pos in examples]
        labels[0], labels[-1] = 1, -1
        data = ScoredDataset([level / 3 for level, _ in examples], labels)
        t = ThresholdPair(*sorted(c / 6 for c in cuts))
        c = classify_with_rejection(data, t)
        rec = json.loads(json.dumps(solution_record(SolutionEval.from_counts(t, c))))
        read = _read_record(rec, "solution 0")
        expected = essential_metrics(classify_with_rejection(data, t))
        assert read.thresholds == t
        assert read.counts == c
        assert read.metrics == expected
        assert (rec["fpr"], rec["fnr"]) == (expected.fpr_cls, expected.fnr_cls)

    def test_requires_metric_in_best_metric_mode(self, pareto_json, tmp_path):
        code = run(
            "select", "--pareto", pareto_json, "--mode", "best-metric",
            "--out", str(tmp_path / "x"),
        )
        assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--pmax", "0.2", "--nmax", "0.2"],
        ["baseline", "--model", "tortorella", *_COSTS],
        ["baseline", "--model", "ba", "--kmax", "0.2"],
        ["compare-costs", "--cost-model", "cm4", "--trials", "1"],
        ["curves"],
    ],
    ids=["optimize", "tortorella", "ba", "compare-costs", "curves"],
)
def test_one_class_scores_file_is_data_error(argv, tmp_path, capsys):
    path, out = tmp_path / "one_class.csv", tmp_path / "out"
    path.write_text("id,label,score\n1,+1,0.5\n2,+1,0.25\n3,+1,0.75\n")
    assert run(*argv, "--scores", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "data error: dataset must contain both classes (n_pos=3, n_neg=0)\n"
    )
    assert not out.exists()


def test_import_leaves_the_process_pool_unloaded():
    # only compare-costs and curves use worker processes; every other command
    # should not pay for importing them
    code = (
        "import sys, rejectopt.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    src = str(Path(rejectopt.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


_PROTOCOLS_ON_TWO_CPUS_AND_BASELINES = """
import sys
import rejectopt.cli as cli
import rejectopt.harness as harness

harness._usable_cpus = lambda: 2
common = ["--scores", sys.argv[1], "--out", sys.argv[2], "--popsize", "4", "--gensize", "2"]
assert cli.main(["compare-costs", *common, "--cost-model", "cm4", "--trials", "4"]) == 0
assert cli.main(["curves", *common]) == 0
costs = ["--ctp", "0", "--ctn", "0", "--cfp", "5", "--cfn", "4", "--crp", "1", "--crn", "1"]
assert cli.main(["baseline", *common[:4], "--model", "tortorella", *costs]) == 0
assert cli.main(["baseline", *common[:4], "--model", "ba", "--kmax", "0.2"]) == 0
# np.unique would import numpy.ma on its first call in the process
print(sorted({"multiprocessing", "concurrent.futures", "numpy.ma"} & set(sys.modules)))
"""


def test_protocols_fork_their_workers_without_a_process_pool(scores_csv, tmp_path):
    src = str(Path(rejectopt.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _PROTOCOLS_ON_TWO_CPUS_AND_BASELINES, scores_csv, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"
    for name in ("comparison.csv", "curves.csv", "baseline.json"):
        assert (tmp_path / name).exists()


COMMANDS = ["optimize", "baseline", "compare-costs", "curves", "select"]
FLAGS = [
    "--scores", "--seed", "--out", "--pmax", "--nmax", "--popsize", "--gensize", "--pc", "--pm",
    "--eta-c", "--eta-m", "--model", "--kmax", "--cfn", "--cfp", "--ctp", "--ctn", "--crp",
    "--crn", "--cost-model", "--trials", "--joint-correct-costs", "--metric", "--pareto",
    "--mode", "--cap", "--p-cap", "--n-cap", "--p-pos",
]
VALUES = [
    "0.1", "3", "-1", "-1e-3", "nan", "abc", "s.csv", "ba", "tortorella", "cm1", "cm5", "auc",
    "min-cost", "best-metric",
]
JUNK = ["-h", "--help", "--bogus", "-x", "--x", "junk", "--", "-", "", "--pmax=0.2", "--ctp=-1e-3"]


def parse_outcome(parse):
    """``parse()``'s Namespace, or its exit code and printed text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse()
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue()


class TestParserPerCommand:
    """main builds only the invoked command's flags; it must parse exactly as
    the parser with every command's flags does."""

    @seed(1303)
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(COMMANDS + JUNK), max_size=2),
        st.lists(st.sampled_from(COMMANDS + FLAGS + VALUES + JUNK), max_size=10),
    )
    def test_lazy_parser_parses_like_the_full_one(self, head, rest):
        argv = head + rest
        lazy = parse_outcome(lambda: build_parser(_invoked_command(argv)).parse_args(argv))
        assert lazy == parse_outcome(lambda: build_parser().parse_args(argv))

    @pytest.mark.parametrize("columns", ["100", "57"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["-h"],
            *([c, "-h"] for c in COMMANDS),
            [],
            ["nope"],
            ["--x", "optimize"],
            ["baseline", "--scores", "optimize"],
            ["select", "--pareto", "p.json", "--out", "o", "--mode", "baseline"],
        ],
    )
    def test_help_and_usage_errors_match_the_full_parser(self, argv, columns, monkeypatch):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = parse_outcome(lambda: main(argv))
        assert (code, out, err) == parse_outcome(lambda: build_parser().parse_args(argv))
        assert code == (0 if "-h" in argv else 1)

    def test_main_reads_sys_argv_by_default(self, scores_csv, tmp_path, monkeypatch, capsys):
        out = tmp_path / "ba"
        monkeypatch.setattr(sys, "argv", [
            "rejectopt", "baseline", "--scores", scores_csv, "--model", "ba", "--kmax", "0.1",
            "--out", str(out),
        ])
        assert main() == 0
        assert (out / "baseline.json").exists()

    def test_main_calls_the_handler_bound_at_call_time(self, scores_csv, tmp_path, monkeypatch):
        # the benchmark's tracer times each command by rebinding cmd_* after import
        calls = []
        handler = rejectopt.cli.cmd_baseline
        monkeypatch.setattr(
            rejectopt.cli, "cmd_baseline", lambda args: calls.append(args) or handler(args)
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(
                "baseline", "--scores", scores_csv, "--model", "ba", "--kmax", "0.1",
                "--out", str(tmp_path / "ba"),
            ) == 0
        assert len(calls) == 1

    def test_parser_for_one_command_rejects_the_others_flags(self):
        parser = build_parser("baseline")
        code, _, err = parse_outcome(lambda: parser.parse_args(["optimize", "--pmax", "0.1"]))
        assert code == 1 and "unrecognized arguments: --pmax 0.1" in err
        code, out, _ = parse_outcome(lambda: parser.parse_args(["--help"]))
        assert code == 0 and "{optimize,baseline,compare-costs,curves,select}" in out

    def test_a_command_leaves_less_cyclic_garbage_than_the_full_parser(self, scores_csv, tmp_path):
        # each add_argument builds a HelpFormatter, which forms a reference cycle
        argv = [
            "baseline", "--scores", scores_csv, "--model", "ba", "--kmax", "0.1",
            "--out", str(tmp_path / "ba"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # first call: imports and caches settle
            gc.collect()
            gc.disable()
            try:
                assert main(argv) == 0
                command_garbage = gc.collect()
                build_parser()
                parser_garbage = gc.collect()
            finally:
                gc.enable()
        assert command_garbage < parser_garbage
