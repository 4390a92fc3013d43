"""Independent checks of the CLI's output files, run outside the measured process.

Every rate is recounted example by example (``scores <= t`` summed), never
through the library's sorted-array ``searchsorted`` path, and nothing here
imports ``rejectopt``. The checks test invariants, not bytes or random
streams, so an intended change to seeded output does not count as a failure.

Each check returns a list of problems (empty when the output is correct) and,
for the quality guard, a number: the hypervolume ratio of an optimize front
to the exact constrained front, or the bounded-abstention optimum divided by
the reported objective.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

RATE_TOL = 1e-12
COST_TOL = 1e-9
CHUNK_CELLS = 1_000_000  # elements per temporary array; bounds memory


@dataclass
class Scores:
    pos: np.ndarray
    neg: np.ndarray

    @property
    def n_pos(self) -> int:
        return self.pos.size

    @property
    def n_neg(self) -> int:
        return self.neg.size

    @cached_property
    def cuts(self) -> np.ndarray:
        """One threshold per class of equivalent thresholds: -inf and every distinct score.

        Any real threshold t counts the same examples as ``<= t`` as the
        largest cut not above it.
        """
        return np.concatenate(([-np.inf], np.unique(np.concatenate((self.pos, self.neg)))))

    @cached_property
    def cut_counts(self) -> tuple[np.ndarray, np.ndarray]:
        return count_le(self.pos, self.cuts), count_le(self.neg, self.cuts)


def read_scores(path: str) -> Scores:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["id", "label", "score"]:
        raise ValueError(f"{path}: bad header {rows[0]}")
    scores = np.array([float(r[2]) for r in rows[1:]])
    labels = np.array([r[1] for r in rows[1:]])
    return Scores(scores[labels == "+1"], scores[labels == "-1"])


def count_le(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """For each cut, how many values are <= it, by direct comparison in bounded chunks."""
    out = np.empty(cuts.size, dtype=np.int64)
    step = max(1, CHUNK_CELLS // max(1, values.size))
    for a in range(0, cuts.size, step):
        out[a : a + step] = (values[None, :] <= cuts[a : a + step, None]).sum(axis=1)
    return out


def confusion(sc: Scores, t1, t2) -> dict[str, np.ndarray]:
    """Counts for threshold pairs: positive iff score > t2, negative iff score <= t1."""
    t1 = np.atleast_1d(np.asarray(t1, dtype=np.float64))
    t2 = np.atleast_1d(np.asarray(t2, dtype=np.float64))
    fn, tn = count_le(sc.pos, t1), count_le(sc.neg, t1)
    tp, fp = sc.n_pos - count_le(sc.pos, t2), sc.n_neg - count_le(sc.neg, t2)
    return {"tp": tp, "fn": fn, "rp": sc.n_pos - tp - fn, "fp": fp, "tn": tn, "rn": sc.n_neg - fp - tn}


def rates(c: dict[str, np.ndarray], n_pos: int, n_neg: int) -> dict[str, np.ndarray]:
    """Among-classified error rates (NaN for a fully rejected class) and reject rates."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return {
            "fpr": c["fp"] / (c["fp"] + c["tn"]),
            "fnr": c["fn"] / (c["fn"] + c["tp"]),
            "rpr": c["rp"] / n_pos,
            "rnr": c["rn"] / n_neg,
        }


def hypervolume(f1: np.ndarray, f2: np.ndarray) -> float:
    """Area dominated by minimization points within the reference point (1, 1)."""
    keep = (f1 <= 1.0) & (f2 <= 1.0)
    f1, f2 = f1[keep], f2[keep]
    if f1.size == 0:
        return 0.0
    order = np.lexsort((f2, f1))
    f1, f2 = f1[order], f2[order]
    best_before = np.concatenate(([1.0], np.minimum.accumulate(f2)[:-1]))
    gain = np.where(f2 < best_before, (1.0 - f1) * (best_before - f2), 0.0)
    return float(gain.sum())


def _pairs(k: int):
    """Ordered index pairs i <= j over k cuts, in row blocks of bounded size."""
    step = max(1, CHUNK_CELLS // max(1, k))
    cols = np.arange(k)
    for a in range(0, k, step):
        rows = np.arange(a, min(k, a + step))
        i, j = np.nonzero(rows[:, None] <= cols[None, :])
        yield rows[i], j


def exact_front_hv(sc: Scores, p_max: float, n_max: float) -> float:
    """Hypervolume of the exact constrained Pareto front of (fpr, fnr).

    Exhaustive over ordered pairs of cuts: every achievable confusion matrix
    of a pair t1 < t2 is reached by some pair of cuts i <= j. A class with no
    classified example scores 1, as in the optimizer's objective.
    """
    le_pos, le_neg = sc.cut_counts
    f1s, f2s = [], []
    for i, j in _pairs(sc.cuts.size):
        c = {"fn": le_pos[i], "tn": le_neg[i], "tp": sc.n_pos - le_pos[j], "fp": sc.n_neg - le_neg[j]}
        c["rp"] = sc.n_pos - c["fn"] - c["tp"]
        c["rn"] = sc.n_neg - c["fp"] - c["tn"]
        r = rates(c, sc.n_pos, sc.n_neg)
        ok = (r["rpr"] <= p_max) & (r["rnr"] <= n_max)
        f1s.append(np.nan_to_num(r["fpr"][ok], nan=1.0))
        f2s.append(np.nan_to_num(r["fnr"][ok], nan=1.0))
    return hypervolume(np.concatenate(f1s), np.concatenate(f2s))


def ba_optimum(sc: Scores, k_max: float, cfn: float, cfp: float) -> float:
    """Brute-force bounded-abstention optimum: least (cfn*FN + cfp*FP) / classified
    over ordered cut pairs whose overall reject rate is at most k_max."""
    le_pos, le_neg = sc.cut_counts
    total = sc.n_pos + sc.n_neg
    best = math.inf
    for i, j in _pairs(sc.cuts.size):
        fn, tn = le_pos[i].astype(np.float64), le_neg[i].astype(np.float64)
        tp, fp = (sc.n_pos - le_pos[j]).astype(np.float64), (sc.n_neg - le_neg[j]).astype(np.float64)
        classified = fn + tn + tp + fp
        ok = ((total - classified) / total <= k_max) & (classified >= 1)
        if ok.any():
            best = min(best, float(np.min((cfn * fn[ok] + cfp * fp[ok]) / classified[ok])))
    return best


def _close(a: float | None, b: float, tol: float) -> bool:
    """Reported value ``a`` (None when undefined) against recount ``b`` (NaN when undefined)."""
    if a is None or math.isnan(b):
        return a is None and math.isnan(b)
    return abs(a - b) <= tol * max(1.0, abs(b))


def _record_problems(rec: dict, r: dict, k: int, where: str) -> list[str]:
    return [
        f"{where}: {key} {rec[key]!r} != recount {float(r[key][k])!r}"
        for key in ("fpr", "fnr", "rpr", "rnr")
        if not _close(rec[key], float(r[key][k]), RATE_TOL)
    ]


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def flags(argv) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def check_pareto(out: str, sc: Scores, argv) -> tuple[list[str], float]:
    f = flags(argv)
    p_max, n_max = float(f["--pmax"]), float(f["--nmax"])
    doc = _load_json(os.path.join(out, "pareto.json"))
    sols = doc["solutions"]
    problems = []
    if not sols:
        return ["empty front"], 0.0
    meta = doc["metadata"]
    if (meta["n_pos"], meta["n_neg"]) != (sc.n_pos, sc.n_neg):
        problems.append("metadata class counts differ from the input")
    t1 = np.array([s["t1"] for s in sols])
    t2 = np.array([s["t2"] for s in sols])
    r = rates(confusion(sc, t1, t2), sc.n_pos, sc.n_neg)
    for k, s in enumerate(sols):
        where = f"solution {k}"
        if not s["t1"] < s["t2"]:
            problems.append(f"{where}: t1 {s['t1']} !< t2 {s['t2']}")
        if not (r["rpr"][k] <= p_max and r["rnr"][k] <= n_max):
            problems.append(f"{where}: reject rates exceed the caps")
        problems += _record_problems(s, r, k, where)
    f1 = np.array([s["fpr"] for s in sols], dtype=np.float64)
    f2 = np.array([s["fnr"] for s in sols], dtype=np.float64)
    dominated = (f1[:, None] <= f1[None, :]) & (f2[:, None] <= f2[None, :]) & (
        (f1[:, None] < f1[None, :]) | (f2[:, None] < f2[None, :])
    )
    if dominated.any():
        problems.append(f"{int(dominated.any(axis=0).sum())} solutions dominated by another on the front")
    exact = exact_front_hv(sc, p_max, n_max)
    ratio = hypervolume(f1, f2) / exact
    if ratio > 1.0 + RATE_TOL:
        problems.append(f"front hypervolume exceeds the exact front's ({ratio})")
    return problems, ratio


def check_comparison(out: str, argv) -> list[str]:
    f = flags(argv)
    with open(os.path.join(out, "comparison.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1 or rows[0]["cost_model"] != f["--cost-model"]:
        return [f"expected one row for {f['--cost-model']}, got {rows}"]
    row = {k: int(v) for k, v in rows[0].items() if k != "cost_model"}
    problems = []
    if row["lower"] + row["higher"] + row["identical"] != int(f["--trials"]):
        problems.append(f"lower + higher + identical != trials: {row}")
    if not 0 <= row["not_activated"] <= row["identical"]:
        problems.append(f"not_activated outside [0, identical]: {row}")
    return problems


def check_curves(out: str) -> list[str]:
    with open(os.path.join(out, "curves.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    models: dict[str, list[str]] = {}
    problems = []
    for row in rows:
        models.setdefault(row["reject_param"], []).append(row["model"])
        for key in ("acc", "auc", "gmean", "observed_rej"):
            v = float(row[key])
            if not (math.isnan(v) or 0.0 <= v <= 1.0):
                problems.append(f"{key} {v} outside [0, 1]")
    if not models:
        problems.append("no curve points")
    problems += [f"grid point {k}: models {v}" for k, v in models.items() if sorted(v) != ["ba", "moba"]]
    for svg in ("acc_rej.svg", "auc_rej.svg", "g_rej.svg"):
        with open(os.path.join(out, svg), encoding="utf-8") as fh:
            if not fh.read(4) == "<svg":
                problems.append(f"{svg} is not an SVG document")
    return problems


def expected_cost(c: dict, sc: Scores, costs: dict[str, float]) -> np.ndarray:
    p_pos = sc.n_pos / (sc.n_pos + sc.n_neg)
    return p_pos * (costs["cfn"] * c["fn"] + costs["ctp"] * c["tp"] + costs["crp"] * c["rp"]) / sc.n_pos + (
        1.0 - p_pos
    ) * (costs["ctn"] * c["tn"] + costs["cfp"] * c["fp"] + costs["crn"] * c["rn"]) / sc.n_neg


def reject_activated(costs: dict[str, float]) -> bool:
    d1 = costs["cfn"] - costs["crp"]
    d2 = costs["ctp"] - costs["crp"]
    if d1 == 0.0 or d2 == 0.0:
        return False
    return (costs["ctn"] - costs["crn"]) / d1 > (costs["cfp"] - costs["crn"]) / d2


def check_baseline(out: str, sc: Scores, argv) -> tuple[list[str], float | None]:
    f = flags(argv)
    doc = _load_json(os.path.join(out, "baseline.json"))
    meta, sol = doc["metadata"], doc["solutions"][0]
    problems = []
    if not sol["t1"] <= sol["t2"]:
        problems.append(f"t1 {sol['t1']} > t2 {sol['t2']}")
    c = confusion(sc, sol["t1"], sol["t2"])
    problems += _record_problems(sol, rates(c, sc.n_pos, sc.n_neg), 0, "solution")
    if f["--model"] == "tortorella":
        costs = {k: float(f[f"--{k}"]) for k in ("ctp", "ctn", "cfp", "cfn", "crp", "crn")}
        cost = float(expected_cost(c, sc, costs)[0])
        if not _close(meta["cost"], cost, COST_TOL):
            problems.append(f"cost {meta['cost']!r} != recount {cost!r}")
        if meta["activated"] != reject_activated(costs):
            problems.append(f"activated flag {meta['activated']} contradicts the cost condition")
        if not meta["activated"] and sol["t1"] != sol["t2"]:
            problems.append("not activated but t1 != t2")
        return problems, None
    k_max = float(f["--kmax"])
    cfn, cfp = float(f.get("--cfn", 1.0)), float(f.get("--cfp", 1.0))
    classified = c["tp"][0] + c["fn"][0] + c["fp"][0] + c["tn"][0]
    total = sc.n_pos + sc.n_neg
    if (total - classified) / total > k_max:
        problems.append("reject rate exceeds k_max")
    recount = (cfn * c["fn"][0] + cfp * c["fp"][0]) / classified
    if not _close(meta["objective"], recount, COST_TOL):
        problems.append(f"objective {meta['objective']!r} != recount {recount!r}")
    optimum = ba_optimum(sc, k_max, cfn, cfp)
    if not _close(meta["objective"], optimum, COST_TOL):
        problems.append(f"objective {meta['objective']!r} != brute-force optimum {optimum!r}")
    return problems, (optimum / meta["objective"] if meta["objective"] else 1.0)


def check_select(out: str, sc: Scores, pareto_path: str, argv) -> list[str]:
    f = flags(argv)
    front = _load_json(pareto_path)["solutions"]
    sel = _load_json(os.path.join(out, "selection.json"))
    s, why = sel["solution"], sel["selection"]
    if (s["t1"], s["t2"]) not in {(p["t1"], p["t2"]) for p in front}:
        return [f"selected ({s['t1']}, {s['t2']}) is not on the front"]
    t1 = np.array([p["t1"] for p in front])
    t2 = np.array([p["t2"] for p in front])
    c = confusion(sc, t1, t2)
    r = rates(c, sc.n_pos, sc.n_neg)
    classified = c["tp"] + c["fn"] + c["fp"] + c["tn"]
    tpr, tnr = 1.0 - r["fnr"], 1.0 - r["fpr"]
    r["acc"] = (c["tp"] + c["tn"]) / classified
    r["auc"] = (tpr + tnr) / 2.0
    r["gmean"] = np.sqrt(tpr * tnr)
    r["rej"] = (c["rp"] + c["rn"]) / (sc.n_pos + sc.n_neg)
    k = next(i for i, p in enumerate(front) if (p["t1"], p["t2"]) == (s["t1"], s["t2"]))
    problems = [
        f"{key} {s[key]!r} != recount {float(r[key][k])!r}"
        for key in ("fpr", "fnr", "rpr", "rnr", "acc", "auc", "gmean", "rej")
        if not _close(s[key], float(r[key][k]), COST_TOL)
    ]
    if f["--mode"] == "min-cost":
        costs = {key: float(f[f"--{key}"]) for key in ("ctp", "ctn", "cfp", "cfn", "crp", "crn")}
        cost = expected_cost(c, sc, costs)
        if not _close(why["expected_cost"], float(cost[k]), COST_TOL):
            problems.append(f"expected cost {why['expected_cost']!r} != recount {float(cost[k])!r}")
        if cost[k] > cost.min() + COST_TOL:
            problems.append("a solution on the front has a lower expected cost")
    else:
        key = {"acc": "acc", "auc": "auc", "g": "gmean"}[f["--metric"]]
        eligible = (r["rpr"] <= float(f["--p-cap"])) & (r["rnr"] <= float(f["--n-cap"]))
        if not eligible[k]:
            problems.append("selected solution exceeds the caps")
        elif r[key][k] < np.nanmax(np.where(eligible, r[key], np.nan)) - COST_TOL:
            problems.append(f"an eligible solution on the front has a higher {key}")
        if not _close(why["value"], float(r[key][k]), COST_TOL):
            problems.append(f"value {why['value']!r} != recount {float(r[key][k])!r}")
    return problems
