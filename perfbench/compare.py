"""Summarise or compare benchmark result sets.

    python3 perfbench/compare.py RESULTS.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the JSON-lines file written by ``perfbench/sweep.py``: one
record per run with its workload, seed, trace flag, the run's info line and
its result line.

With one file, prints for each workload and end-to-end metric the median,
the quartiles and the spread (interquartile distance over the median)
against the metric's bound, and checks that traced runs of the same code and
seed report identical per-layer counts.

With two files, also prints for each pairing of workload and end-to-end
metric: the pairs won by each side (runs paired by seed; ties count for
neither), and a verdict:

* improved:     the change wins at least 9/10 of the pairs and the medians
                differ, in its favour, by more than the parent's
                interquartile distance;
* regressed:    the change's median is worse than the parent's by more than
                the bound, and either both spreads are within the bound or
                every change run is worse than every parent run;
* unresolved:   a spread is wider than the bound and neither of the above;
* within bound: otherwise.

Then the per-layer self-time deltas from the traced runs (medians), largest
first, to locate a claimed saving.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

from run import layer_counts, load_benchmark


def load(path: str) -> List[Dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def by_workload(records: List[Dict], trace: int) -> Dict[str, Dict[int, Dict]]:
    """workload -> seed -> metric values (last record wins)."""
    out: Dict[str, Dict[int, Dict]] = defaultdict(dict)
    for r in records:
        if r["trace"] == trace:
            out[r["workload"]][r["seed"]] = {
                k: v["value"] for k, v in r["result"]["metrics"].items()
            }
    return out


def count_drift(records: List[Dict]) -> List[str]:
    """Traced runs of the same code, workload and seed must agree on every
    per-layer count; any difference is a benchmark defect."""
    first: Dict = {}
    problems = []
    for r in records:
        if r["trace"] != 1:
            continue
        key = (r["workload"], r["seed"], r["info"]["env"]["source"])
        counts = layer_counts(r["result"]["metrics"])
        if key not in first:
            first[key] = counts
            continue
        drift = sorted(k for k in counts if counts[k] != first[key].get(k))
        if drift:
            problems.append(f"{key[0]} seed {key[1]}: {drift}")
    return problems


def summarize(records: List[Dict]) -> bool:
    """Print the per-metric spreads; True when every spread but setup_s is
    within its bound."""
    bench = load_benchmark()
    ok = True
    runs = by_workload(records, 0)
    print(f"{'workload':16} {'metric':15} {'n':>3} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for workload, seeds in runs.items():
        for m in bench["end_to_end"]:
            values = [v[m["name"]] for v in seeds.values()]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            if m["name"] != "setup_s" and s > m["bound"]:
                flag, ok = " OVER", False
            elif s > m["bound"] / 3:
                flag = " >1/3"
            print(f"{workload:16} {m['name']:15} {len(values):3} {q1:11.5g} {med:11.5g} "
                  f"{q3:11.5g} {s:7.3f} {m['bound']:6.3f}{flag}")
    for problem in count_drift(records):
        print(f"benchmark defect, counts drifted: {problem}")
        ok = False
    return ok


def verdict(parent: List[float], change: List[float], wins: int, pairs: int,
            bound: float, lower_better: bool) -> str:
    sign = 1 if lower_better else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (p_med - c_med)
    if pairs and wins >= 0.9 * pairs and gain > p_q3 - p_q1:
        return "improved"
    worse = -gain / abs(p_med)
    wide = max(spread(parent), spread(change)) > bound
    all_worse = min(sign * (c - p) for c in change for p in parent) > 0
    if worse > bound and (not wide or all_worse):
        return "regressed"
    return "unresolved" if wide else "within bound"


def compare(parent_records: List[Dict], change_records: List[Dict]) -> None:
    bench = load_benchmark()
    parent, change = by_workload(parent_records, 0), by_workload(change_records, 0)
    print(f"\n{'workload':16} {'metric':15} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'won p:c':>8}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        for m in bench["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            p_vals = [v[name] for v in p_runs.values()]
            c_vals = [v[name] for v in c_runs.values()]
            c_wins = p_wins = 0
            for s in seeds:
                d = p_runs[s][name] - c_runs[s][name]
                if d and (d > 0) == lower:
                    c_wins += 1
                elif d:
                    p_wins += 1
            fmt = "{:9.4g} {:9.4g} {:9.4g}"
            print(f"{workload:16} {name:15} {fmt.format(*quartiles(p_vals)):>30} "
                  f"{fmt.format(*quartiles(c_vals)):>30} {p_wins:>3}:{c_wins:<3}  "
                  f"{verdict(p_vals, c_vals, c_wins, len(seeds), m['bound'], lower)}")

    p_tr, c_tr = by_workload(parent_records, 1), by_workload(change_records, 1)
    for workload in sorted(set(p_tr) & set(c_tr)):
        print(f"\nper-layer self_s, {workload} (traced medians, change - parent):")
        names = [m["name"] for m in bench["per_layer"] if m["name"].endswith(".self_s")]
        rows = []
        for name in names:
            p = statistics.median(v[name] for v in p_tr[workload].values())
            c = statistics.median(v[name] for v in c_tr[workload].values())
            rows.append((c - p, name, p, c))
        for delta, name, p, c in sorted(rows, key=lambda r: -abs(r[0])):
            print(f"  {name:40} {p:10.4f} -> {c:10.4f}  {delta:+10.4f} s")


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sets = [load(path) for path in argv]
    ok = True
    for path, records in zip(argv, sets):
        print(f"== {path}")
        ok = summarize(records) and ok
    if len(sets) == 2:
        compare(*sets)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
