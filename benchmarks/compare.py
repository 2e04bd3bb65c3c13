"""Compare two sets of benchmark runs, a parent's and a change's.

Each input file holds captured run outputs, concatenated: every `# run {...}`
line is paired with the next JSON result line.  For each workload and metric
the report gives both medians with their quartiles and run counts, the ratio
change/parent, and a verdict: an end-to-end metric is REGRESSED when the
change's median is worse than the parent's by more than the metric's bound,
unresolved when the parent's own quartile spread exceeds the bound, and
improved when the change wins at least 9 of 10 same-seed pairs and the
medians differ by more than the parent's quartile spread.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def read_runs(path: str) -> list[tuple[dict, dict]]:
    runs, info = [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# run "):
                info = json.loads(line[len("# run "):])
            elif line.startswith("{") and info is not None:
                runs.append((info, json.loads(line)))
                info = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, parent: list[float], change: list[float],
            pairs: list[tuple[float, float]]) -> str:
    if "bound" not in metric:
        return "-"
    q1, med, q3 = quartiles(parent)
    if med == 0:
        return "unresolved (parent median 0)"
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    gain = sign * (med - quartiles(change)[1])  # > 0: the change is better
    if (q3 - q1) / abs(med) > bound:
        if all(sign * c < sign * p for c in change for p in parent):
            return "improved (every run better)"
        return "unresolved (parent spread > bound)"
    if -gain / abs(med) > bound:
        return "REGRESSED"
    wins = sum(sign * c < sign * p for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return f"improved ({wins}/{len(pairs)} pairs)"
    return "within bound"


def _cell(q: tuple[float, float, float], runs: int) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}] ({runs})"


def _by_run(runs):
    """{(workload, trace): {metric: [(seed, value)]}}"""
    out = defaultdict(lambda: defaultdict(list))
    for info, result in runs:
        for name, m in result["metrics"].items():
            out[(info["workload"], info["trace"])][name].append((info["seed"], m["value"]))
    return out


def main(parent_path: str, change_path: str, spec: dict) -> int:
    parent_runs, change_runs = read_runs(parent_path), read_runs(change_path)
    if not parent_runs or not change_runs:
        print("error: no runs found in one of the inputs")
        return 2
    for label, runs in (("parent", parent_runs), ("change", change_runs)):
        machine = runs[0][0]["machine"]
        seeds = sorted({info["seed"] for info, _ in runs})
        print(f"{label}: {len(runs)} runs, seeds {seeds}, machine {json.dumps(machine, sort_keys=True)}")
    keys = ("nproc", "python", "numpy")
    if any(parent_runs[0][0]["machine"][k] != change_runs[0][0]["machine"][k] for k in keys):
        print("warning: the two sides ran on different machines or software")
    if any(not r["correct"] for _, r in parent_runs + change_runs):
        print("warning: some runs failed their correctness checks")

    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = _by_run(parent_runs), _by_run(change_runs)
    regressed = False
    print("ratio = change median / parent median")
    for key in sorted(set(parent) & set(change)):
        print(f"\n== {key[0]} (trace {key[1]})")
        print(f"{'metric':<44} {'unit':<9} {'parent median [q1, q3] (runs)':<42} "
              f"{'change median [q1, q3] (runs)':<42} {'ratio':>8}  verdict")
        for name in parent[key]:
            if name not in change[key] or name not in metrics:
                continue
            p_vals = [v for _, v in parent[key][name]]
            c_vals = [v for _, v in change[key][name]]
            c_by_seed = dict(change[key][name])
            pairs = [(v, c_by_seed[s]) for s, v in parent[key][name] if s in c_by_seed]
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            ratio = f"{cq[1] / pq[1]:.4f}" if pq[1] else "n/a"
            result = verdict(metrics[name], p_vals, c_vals, pairs)
            regressed = regressed or result == "REGRESSED"
            print(f"{name:<44} {metrics[name]['unit']:<9} {_cell(pq, len(p_vals)):<42} "
                  f"{_cell(cq, len(c_vals)):<42} {ratio:>8}  {result}")
    return 1 if regressed else 0
