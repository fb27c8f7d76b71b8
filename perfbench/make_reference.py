"""Record the output reference the benchmark checks against.

    python3 perfbench/make_reference.py

Run once, at the commit whose outputs are the reference (the benchmark's
seed commit), from the root of that checkout.  It runs the single-invocation
workloads and the two scans whose IP vectors are vector_requests' inputs in
fresh processes, then every possible vector_requests request (448 vectors x
4 commands x 3 formats) in one worker, and writes
``perfbench/reference.json``: the full sha256 of each single-invocation
workload's stdout, the short digest of each request's stdout, and the
request vectors.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import run


# the scans whose IP vectors are vector_requests' inputs
VECTOR_SCANS = (["scan", "--dim", "3", "--wmax", "66"], ["scan", "--dim", "4", "--wmax", "24"])


def cli_output(argv) -> bytes:
    worker = run.Worker("once", argv, trace=False)
    try:
        out = worker.proc.stdout.read()
        rc = worker.finish(run.Unit())
    finally:
        worker.kill()
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return out


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    scans = {name: hashlib.sha256(cli_output(argv)).hexdigest()
             for name, argv in run.SCANS.items()}
    vectors = []
    for argv in VECTOR_SCANS:
        rows = cli_output(argv).decode().splitlines()[1:]
        vectors += [row.split(",", 1)[0].replace(" ", ",") for row in rows]
    requests = [[*cmd, "--format", fmt, v]
                for v in vectors for cmd in run.COMMANDS for fmt in run.FORMATS]
    unit = run.serve(requests, trace=False)
    digests = {}
    for argv, reply in zip(requests, unit.outputs):
        if reply["rc"] != 0:
            raise SystemExit(f"{' '.join(argv)} exited {reply['rc']}")
        digests[" ".join(argv)] = reply["digest"]
    reference = {"commit": commit, "python": sys.version.split()[0],
                 "scans": scans, "vectors": vectors, "requests": digests}
    with open(os.path.join(run.HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"{len(digests)} requests, {len(vectors)} vectors, "
          f"serve wall {unit.wall_s:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
