"""Run the benchmark over several seeds and write a result set.

    python3 perfbench/sweep.py --out RESULTS.jsonl [--runs 10] [--first-seed 1]
        [--workloads k3_scan,...] [--trace 0|1]
        [--parent-root DIR --parent-out PARENT.jsonl]

Each run is ``python3 perfbench/run.py`` in a fresh process from the root of
a checkout, with the run length from BENCHMARK.json.  With --parent-root the
same runs are made in a second checkout (which must hold the same
``perfbench/`` and BENCHMARK.json), alternating which side runs first, as the
pairs for ``perfbench/compare.py PARENT.jsonl RESULTS.jsonl``.  Workloads
are interleaved seed by seed so that slow drift of the machine spreads over
all of them.  A summary of the spreads is printed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import compare
from run import ROOT, WORKLOADS, load_benchmark


def run_once(root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"workload": workload, "seed": seed, "trace": trace, "root": root,
            "elapsed_s": elapsed, "info": info, "result": result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent-root")
    parser.add_argument("--parent-out")
    args = parser.parse_args()
    if bool(args.parent_root) != bool(args.parent_out):
        parser.error("--parent-root and --parent-out go together")
    seconds = load_benchmark()["run_seconds"]
    workloads = args.workloads.split(",")
    sides = [(ROOT, args.out)]
    if args.parent_root:
        sides.append((os.path.abspath(args.parent_root), args.parent_out))
    records = {out: [] for _, out in sides}
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            order = sides if i % 2 == 0 else sides[::-1]
            for root, out in order:
                record = run_once(root, workload, seed, seconds, args.trace)
                records[out].append(record)
                with open(out, "a") as f:
                    f.write(json.dumps(record) + "\n")
                result = record["result"]
                print(f"{workload} seed {seed} ({os.path.basename(root)}): "
                      f"{record['elapsed_s']:.1f} s, correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                                 if not args.trace or k.startswith("trace.")),
                      flush=True)
    ok = True
    for _, out in sides:
        print(f"== {out}")
        ok = compare.summarize(records[out]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
