"""stringymirror benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from that
checkout's ``src/`` (it need not be installed).  Every request goes through
the public CLI entry point ``stringymirror.cli.main``, one request at a time
(closed loop, one client), and its stdout is checked against a digest
recorded at the seed commit (``perfbench/reference.json``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced unit, timed from
outside the package by ``perfbench/tracer.py``, plus the tracing overhead
against one untraced unit.  The line before it is a JSON record of the run:
sample counts, tail percentiles, the request repeat share and the
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
STATE = os.path.join(HERE, ".state", "counts.json")

# ---------------------------------------------------------------------------
# workloads
#
# Which layer each workload should move, and where the prediction is no
# change (per-layer names are <module>.<function>):
#
#   weights.ip_property            k3_scan, vector_requests
#                                  (not high_degree: 0.18 s of ~24 s)
#   weights.transverse             vector_requests (small everywhere today)
#   weights.lattice_counts, stringy.bracket,
#   exact_arith.series_to_rational vector_requests (not k3_scan)
#   face_epoly.face_e, stringy.stringy_e
#                                  vector_requests (not k3_scan)
#   orbifold.vafa_euler, mirror_verify.verify
#                                  high_degree (not k3_scan)
#   orbifold.mirror_orbifold_e, stringy.stringy_e_per_l,
#   orbifold.vafa_poincare         vector_requests, high_degree
#   cli.render_efunction, cli.main vector_requests
#
# `scan --dim 4 --wmax 24` is not a workload of its own: one run of it takes
# 14-28 s on a 2-vCPU host, and four workloads did not fit the time budget
# of the benchmark's runs.  Its 353 vectors (non-transverse and
# non-polynomial ones included, so the rational reconstruction runs) are
# among vector_requests' inputs, which run the same face/bracket layers.

SCANS = {
    # 66 is the smallest bound that yields all 95 K3 weight systems (a count
    # from the literature); ~95% of the time is weights.ip_property, which
    # accepts 95 of 21,584 well-formed candidates.
    "k3_scan": ["scan", "--dim", "3", "--wmax", "66"],
    # w = 1806: the O(w^2) orbifold.vafa_euler, computed three times (row
    # payload and inside both verify calls); bypasses the IP filter's cost.
    "high_degree": ["mirror-check", "--per-l", "--format", "json", "1,42,258,602,903"],
}

# vector_requests: one long-lived worker serves REQUESTS_PER_UNIT requests
# drawn from the seed over the 448 IP vectors of `scan --dim 3 --wmax 66` and
# `scan --dim 4 --wmax 24`.  It is the only workload that runs vafa_poincare,
# psi, census/milnor_number and the per-l rendering for every l, and the only
# one where requests share work through the package's caches (about a
# quarter repeat an earlier request); its worker's memory grows with the
# vectors seen, as a scan's does with its rows.
COMMANDS = (["analyze"], ["stringy", "--per-l"], ["orbifold", "--per-l"],
            ["mirror-check", "--per-l"])
FORMATS = ("text", "json", "csv")
REPEAT_SHARE = 0.25
REQUESTS_PER_UNIT = 600
QUINTIC = ["mirror-check", "--per-l", "--format", "json", "1,1,1,1,1"]

WORKLOADS = (*SCANS, "vector_requests")


def make_requests(seed: int, vectors: List[str]) -> List[List[str]]:
    """The request sequence of one vector_requests unit.

    The quintic comes first, so its literature anchor is checked on every
    seed.  A seeded quarter of the later positions repeat an earlier request.
    The others request each vector once, in seeded order, with a command and
    format dealt so that every block of 12 vectors of similar size (weight
    count, then degree) gets each of the 12 command/format pairs once: every
    seed draws nearly the same mix of costs, and only the pairing within a
    block and the order vary.
    """
    rng = random.Random(seed)
    n = REQUESTS_PER_UNIT
    repeats = set(rng.sample(range(1, n), round(REPEAT_SHARE * n)))
    kinds = [[*cmd, "--format", fmt] for cmd in COMMANDS for fmt in FORMATS]
    by_size = sorted(vectors, key=lambda v: (v.count(","), sum(map(int, v.split(",")))))
    fresh = []
    for i in range(0, len(by_size), len(kinds)):
        block = by_size[i:i + len(kinds)]
        fresh += [[*kind, v] for kind, v in zip(rng.sample(kinds, len(kinds)), block)]
    rng.shuffle(fresh)
    seq = [QUINTIC]
    taken = 0
    for i in range(1, n):
        if i in repeats:
            seq.append(rng.choice(seq))
        else:
            seq.append(fresh[taken % len(fresh)])
            taken += 1
    return seq


def repeat_share(requests: List[List[str]]) -> float:
    keys = [" ".join(r) for r in requests]
    return 1 - len(set(keys)) / len(keys)


# ---------------------------------------------------------------------------
# output gate: seed-commit digests plus anchors from the literature


class GateFailure(Exception):
    pass


def check_scan(name: str, out: bytes, reference: Dict) -> None:
    if hashlib.sha256(out).hexdigest() != reference["scans"][name]:
        raise GateFailure(f"{name}: stdout differs from the seed reference")
    text = out.decode()
    if name == "k3_scan":
        rows = text.splitlines()[1:]
        if len(rows) != 95:
            raise GateFailure(f"k3_scan: {len(rows)} rows, the literature has 95")
        failing = [r for r in rows if not r.endswith(",pass")]
        if failing:
            raise GateFailure(f"k3_scan: mirror_check fails on {failing[:3]}")
    elif json.loads(text)["mirror_check"] != "pass":
        raise GateFailure(f"{name}: mirror_check does not pass")


def check_quintic(out: str) -> None:
    payload = json.loads(out)
    terms = re.split(r" [+-] ", payload["e_str"])
    if "101*u*v" not in terms or payload["euler_str"] != "200" or payload["euler_orb"] != "-200":
        raise GateFailure(
            "quintic: expected a 101*u*v term, euler_str 200 and euler_orb -200, got "
            f"{payload['e_str']!r}, {payload['euler_str']}, {payload['euler_orb']}"
        )


# ---------------------------------------------------------------------------
# child processes


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # the guard width changes the work done; -O drops the __debug__
    # round-trip check in stringy._bracket; PYTHONPATH could shadow the
    # checkout's package
    for name in ("MIRROR_STRINGY_GUARD", "PYTHONOPTIMIZE", "PYTHONPATH"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Unit:
    """One worker process: its wall time, peak RSS and per-request data."""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    latencies: List[float] = field(default_factory=list)
    failed: int = 0
    layers: Optional[Dict] = None
    outputs: List = field(default_factory=list)


class Worker:
    """A worker process with its report pipe; always reaped with wait4 so
    that its own rusage, not RUSAGE_CHILDREN, gives the peak RSS."""

    def __init__(self, mode: str, argv: List[str], trace: bool):
        read_fd, write_fd = os.pipe()
        self.start = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, WORKER, ROOT, str(write_fd), str(int(trace)), mode, *argv],
                stdin=subprocess.PIPE if mode == "serve" else subprocess.DEVNULL,
                stdout=subprocess.PIPE if mode == "once" else subprocess.DEVNULL,
                env=child_env(), cwd=ROOT, pass_fds=(write_fd,),
            )
        finally:
            os.close(write_fd)
        self.report = os.fdopen(read_fd)
        self.rusage = None

    def finish(self, unit: Unit) -> int:
        """Read the final report line, reap the process, fill unit."""
        line = self.report.readline()
        unit.layers = json.loads(line)["layers"] if line else None
        return self.close(unit)

    def close(self, unit: Optional[Unit] = None) -> int:
        self.report.close()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe:
                pipe.close()
        if self.proc.returncode is None:
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        if unit is not None:
            unit.wall_s = time.perf_counter() - self.start
            unit.peak_rss_mb = self.rusage.ru_maxrss / 1024
            unit.cpu_s = self.rusage.ru_utime + self.rusage.ru_stime
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.close()


def run_scan(name: str, trace: bool, reference: Dict) -> Unit:
    unit = Unit()
    worker = Worker("once", SCANS[name], trace)
    try:
        out = worker.proc.stdout.read()
        rc = worker.finish(unit)
    finally:
        worker.kill()
    unit.latencies.append(unit.wall_s)
    try:
        if rc != 0:
            raise GateFailure(f"{name}: exit code {rc}")
        check_scan(name, out, reference)
    except GateFailure as exc:
        print(f"FAILED {exc}", file=sys.stderr)
        unit.failed = 1
    return unit


def serve(requests: List[List[str]], trace: bool, keep=lambda i: False) -> Unit:
    """Run the requests in order in one fresh worker, which calls cli.main
    once per request; replies in order."""
    unit = Unit()
    worker = Worker("serve", [], trace)
    try:
        # the worker reads all of stdin before it writes a reply, so this
        # write cannot deadlock against the report pipe
        worker.proc.stdin.write("".join(
            json.dumps({"argv": argv, "keep": keep(i)}) + "\n"
            for i, argv in enumerate(requests)).encode())
        worker.proc.stdin.close()
        for argv in requests:
            line = worker.report.readline()
            if not line:
                raise RuntimeError(f"worker exited before answering {argv}")
            reply = json.loads(line)
            unit.outputs.append(reply)
            unit.latencies.append(reply["latency_s"])
        worker.finish(unit)
    finally:
        worker.kill()
    return unit


def run_requests(requests: List[List[str]], trace: bool, reference: Dict) -> Unit:
    unit = serve(requests, trace, keep=lambda i: i == 0)
    failed = set()
    for i, (argv, reply) in enumerate(zip(requests, unit.outputs)):
        key = " ".join(argv)
        if reply["rc"] != 0 or reply["digest"] != reference["requests"][key]:
            print(f"FAILED {key}: exit {reply['rc']}, digest {reply['digest']}", file=sys.stderr)
            failed.add(i)
    try:
        check_quintic(unit.outputs[0]["out"])
    except GateFailure as exc:
        print(f"FAILED {exc}", file=sys.stderr)
        failed.add(0)
    unit.failed = len(failed)
    unit.outputs = []
    return unit


def setup_times(samples: int, warm_up: bool = False) -> List[float]:
    """Times for a fresh interpreter to import stringymirror.cli, the fixed
    cost of every CLI invocation; the warm-up fills the bytecode cache."""
    cmd = [sys.executable, "-c",
           f"import sys; sys.path.insert(0, {SRC!r}); import stringymirror.cli"]
    times = []
    for i in range(samples + warm_up):
        start = time.perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
        if i >= warm_up:
            times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# environment and exact counts


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "stringymirror")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git (the
    benchmark's checkout need not be a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> Dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "source": source_digest(),
    }


COUNT_STATS = ("calls", "accepted", "accept_ratio", "pairs", "coeffs",
               "guard_coeffs", "repeat_ratio", "repeat_share")


def layer_counts(metrics: Dict) -> Dict[str, float]:
    """The per-layer metrics that must repeat exactly for one code and seed."""
    return {k: v["value"] for k, v in metrics.items() if k.rsplit(".", 1)[1] in COUNT_STATS}


def check_counts_repeat(workload: str, seed: int, metrics: Dict) -> Optional[str]:
    """Compare this traced run's counts with an earlier traced run of the same
    code, workload and seed in this checkout; they must be identical."""
    counts = layer_counts(metrics)
    key = f"{workload}/{seed}/{source_digest()}"
    try:
        with open(STATE) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    before = seen.get(key)
    if before is None:
        seen[key] = counts
        os.makedirs(os.path.dirname(STATE), exist_ok=True)
        with open(STATE, "w") as f:
            json.dump(seen, f, sort_keys=True)
        return None
    drift = sorted(k for k in counts if counts[k] != before.get(k))
    return f"per-layer counts drifted between runs: {drift}" if drift else None


# ---------------------------------------------------------------------------
# metrics


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(values: List[float]) -> Dict:
    """Median and the highest of p90/p99/p99.9 with at least ten samples
    beyond it (none below 100 samples)."""
    out = {"samples": len(values), "median": statistics.median(values)}
    for p in (0.999, 0.99, 0.9):
        if len(values) * (1 - p) >= 10:
            out[f"p{p * 100:g}"] = quantile(values, p)
            break
    return out


def load_benchmark() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def units_for(seconds: float, run_unit) -> List[Unit]:
    """Repeat the unit while another one is expected to fit in the run;
    at least one."""
    start = time.perf_counter()
    units = [run_unit()]
    while (time.perf_counter() - start) + statistics.median(u.wall_s for u in units) <= seconds:
        units.append(run_unit())
    return units


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    bench = load_benchmark()
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    requests = make_requests(seed, reference["vectors"])

    def run_unit(traced: bool = False) -> Unit:
        if workload in SCANS:
            return run_scan(workload, traced, reference)
        return run_requests(requests, traced, reference)

    info: Dict = {"workload": workload, "seed": seed, "trace": int(trace),
                  "env": environment()}
    if workload == "vector_requests":
        info["repeat_share"] = repeat_share(requests)
    setup_s = None
    if trace:
        units = [run_unit(False), run_unit(True)]
    else:
        # set-up samples on both sides of the units, so that one slow spell
        # of the machine does not decide the median
        before = setup_times(6, warm_up=True)
        units = units_for(seconds, run_unit)
        setup_s = statistics.median(before + setup_times(5))
    attempted = sum(len(u.latencies) for u in units)
    failed = sum(u.failed for u in units)
    problems = []

    if trace:
        plain, traced = units
        values: Dict[str, float] = {
            "trace.wall_s": traced.wall_s,
            "trace.overhead_s": traced.wall_s - plain.wall_s,
            "requests.repeat_share": info.get("repeat_share", 0.0),
        }
        for layer, stats in traced.layers.items():
            for stat, value in stats.items():
                values[f"{layer}.{stat}"] = value
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
        drift = check_counts_repeat(workload, seed, metrics)
        if drift:
            problems.append(f"benchmark defect: {drift}")
    else:
        walls = [u.wall_s for u in units]
        latencies = [x for u in units for x in u.latencies]
        info["wall_s"] = tail(walls)
        info["cpu_s"] = statistics.median(u.cpu_s for u in units)
        info["latency_s"] = tail(latencies)
        values = {
            "wall_s": statistics.median(walls),
            "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
            "latency_p90_ms": quantile(latencies, 0.9) * 1e3,
            "peak_rss_mb": max(u.peak_rss_mb for u in units),
            "setup_s": setup_s,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    info["units"] = len(units)
    info["fail_ratio"] = failed / attempted
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind through the finally blocks that kill and reap workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        print("refusing to run under -O / PYTHONOPTIMIZE: the package's "
              "__debug__ checks would be skipped", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "stringymirror", "cli.py")):
        print(f"no stringymirror source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
