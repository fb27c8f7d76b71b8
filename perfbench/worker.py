"""Child process of the benchmark: runs ``stringymirror.cli.main`` from the
checkout under test.

    python3 perfbench/worker.py ROOT REPORT_FD TRACE once ARGV...
        one CLI invocation; the CLI writes to this process's stdout
    python3 perfbench/worker.py ROOT REPORT_FD TRACE serve
        one request per stdin line ({"argv": [...], "keep": bool}), all read
        before the first runs; the replies go to REPORT_FD in order as JSON
        lines {"rc", "latency_s", "digest"[, "out" when keep]}

The last line on REPORT_FD is {"layers": ...}, the per-layer report when
TRACE is 1 and null otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time


def request_digest(out: bytes) -> str:
    """Short stdout digest stored in the reference (64 bits of sha256)."""
    return hashlib.sha256(out).hexdigest()[:16]


def _import_cli(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import stringymirror
    from stringymirror import cli

    pkg_dir = os.path.realpath(os.path.dirname(stringymirror.__file__))
    if os.path.commonpath([pkg_dir, os.path.realpath(root)]) != os.path.realpath(root):
        raise SystemExit(f"stringymirror imported from {pkg_dir}, outside {root}")
    return cli


def _serve(cli, report) -> None:
    # read every request first: the requests then run back to back, one at a
    # time, with no pipe round trip between them
    for request in [json.loads(line) for line in sys.stdin]:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(request["argv"])
            except Exception as exc:  # an escaped error is a failed request
                print(f"request {request['argv']} raised {exc!r}", file=sys.stderr)
                rc = 1
        latency = time.perf_counter() - start
        out = buf.getvalue().encode()
        reply = {"rc": rc, "latency_s": latency, "digest": request_digest(out)}
        if request["keep"]:
            reply["out"] = out.decode()
        report.write(json.dumps(reply) + "\n")
        report.flush()


def main(argv) -> int:
    root, report_fd, trace, mode, *cli_argv = argv
    if sys.flags.optimize:
        raise SystemExit("refusing to run under -O: it drops the package's __debug__ checks")
    cli = _import_cli(root)
    tracer = None
    if trace == "1":
        from tracer import Tracer  # perfbench/ is sys.path[0]

        tracer = Tracer()
        tracer.install()
    with open(int(report_fd), "w") as report:
        if mode == "once":
            rc = cli.main(cli_argv)
            sys.stdout.flush()
        else:
            rc = 0
            _serve(cli, report)
        layers = tracer.report() if tracer else None
        report.write(json.dumps({"layers": layers}) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
