"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the standard output of untraced runs, one file per
run (`python3 perfbench/run.py ... > DIR/<anything>.log`). For every
workload and end-to-end metric it prints both medians, the change in the
metric's worse direction, the larger relative interquartile spread of the
two sets, and a verdict:

    ok          no worse than the bound
    worse       median worse by more than the bound
    unresolved  spread wider than the bound, unless every head run beats
                every base run
    margin-rise worst_margin rose, or a seed's seeded worst margin rose

Exits 1 when any row reads worse or margin-rise, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

from stats import median, relative_spread

HERE = os.path.dirname(os.path.abspath(__file__))
MARGIN = "worst_margin"


def load_runs(directory: str) -> dict:
    """workload -> list of (record, result) for the untraced runs in directory."""
    runs = defaultdict(list)
    for entry in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
        records = [json.loads(line[len("record "):]) for line in lines if line.startswith("record ")]
        if not records or not lines[-1].startswith("{"):
            continue
        record, result = records[-1], json.loads(lines[-1])
        if record.get("trace") == 0:
            runs[record["workload"]].append((record, result))
    return runs


def _spread(values) -> float:
    return relative_spread(values) if len(values) >= 2 else 0.0


def compare_metric(spec: dict, base: list, head: list) -> dict:
    lower_better = spec["better"] == "lower"
    b_med, h_med = median(base), median(head)
    change = (h_med - b_med) / abs(b_med)
    worse_by = change if lower_better else -change
    spread = max(_spread(base), _spread(head))
    if lower_better:
        head_beats_all = max(head) < min(base)
    else:
        head_beats_all = min(head) > max(base)
    if spread > spec["bound"] and not head_beats_all:
        verdict = "unresolved"
    elif worse_by > spec["bound"]:
        verdict = "worse"
    else:
        verdict = "ok"
    return {"base": b_med, "head": h_med, "worse_by": worse_by, "spread": spread,
            "bound": spec["bound"], "verdict": verdict}


def margin_rises(base_runs: list, head_runs: list) -> list:
    """Seeds whose seeded worst margin rose; the margin is a function of the seed."""
    base = {r["seed"]: r.get("seeded_worst_margin") for r, _ in base_runs}
    return sorted(r["seed"] for r, _ in head_runs
                  if r["seed"] in base and base[r["seed"]] is not None
                  and r.get("seeded_worst_margin", 0.0) > base[r["seed"]])


def compare(base_dir: str, head_dir: str, benchmark: dict) -> list:
    base_runs, head_runs = load_runs(base_dir), load_runs(head_dir)
    rows = []
    for workload in sorted(set(base_runs) | set(head_runs)):
        if not base_runs[workload] or not head_runs[workload]:
            rows.append({"workload": workload, "metric": "*", "verdict": "missing"})
            continue
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            row = compare_metric(spec,
                                 [res["metrics"][name]["value"] for _, res in base_runs[workload]],
                                 [res["metrics"][name]["value"] for _, res in head_runs[workload]])
            if name == MARGIN and row["head"] > row["base"]:
                row["verdict"] = "margin-rise"
            rows.append({"workload": workload, "metric": name, **row})
        seeds = margin_rises(base_runs[workload], head_runs[workload])
        if seeds:
            rows.append({"workload": workload, "metric": "seeded_worst_margin",
                         "verdict": "margin-rise", "seeds": seeds})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_dir")
    parser.add_argument("head_dir")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    rows = compare(args.base_dir, args.head_dir, benchmark)
    print(f"{'workload':<20} {'metric':<20} {'base':>12} {'head':>12} {'worse by':>9} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        if "base" in row:
            print(f"{row['workload']:<20} {row['metric']:<20} {row['base']:>12.6g} "
                  f"{row['head']:>12.6g} {row['worse_by']:>+9.3f} {row['spread']:>7.3f} "
                  f"{row['bound']:>6.3f}  {row['verdict']}")
        else:
            print(f"{row['workload']:<20} {row['metric']:<20} {'':>49}  {row['verdict']} "
                  f"{row.get('seeds', '')}")
    return 1 if any(r["verdict"] in ("worse", "margin-rise", "missing") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
