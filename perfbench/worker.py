"""One benchmark child process: set up a workload, then run its iterations.

Run by run.py, never by hand. The working directory is where the inputs go
and where the CLI writes its outputs. Messages to run.py are JSON lines on
stdout; commands from run.py are lines on stdin.

Roles:
  reference  make the inputs, run one iteration, exit 0 if every CLI call
             returned 0 (run with the frozen oracle copy of wavekit)
  setup      make the inputs, report when they are ready, exit
  measure    make the inputs, report when ready, then run one iteration per
             command ("plain" or "traced") until "stop"; each reply carries
             the process's peak resident memory so far
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from workloads import WORKLOADS


def run_iteration(main, calls, tracer=None) -> dict:
    """Run the workload's CLI calls once, in order; time the whole of it."""
    rcs, call_walls, error = [], {}, None
    sink = io.StringIO()
    if tracer is not None:
        tracer.reset()
        tracer.active = True
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in calls:
                t = time.perf_counter()
                rcs.append(main(argv))
                call_walls[argv[0]] = (call_walls.get(argv[0], 0.0)
                                       + time.perf_counter() - t)
    except (Exception, SystemExit):
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - start
    msg = {"wall": wall, "rcs": rcs, "error": error,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if error or any(rcs):
        msg["output"] = sink.getvalue()[-2000:]
    if tracer is not None:
        tracer.active = False
        msg["spans"] = tracer.totals
        msg["cli"] = call_walls
    return msg


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=["reference", "setup", "measure"],
                    required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    proto, sys.stdout = sys.stdout, sys.stderr

    def send(msg):
        proto.write(json.dumps(msg) + "\n")
        proto.flush()

    wk = WORKLOADS[args.workload]
    import wavekit.cli as cli   # part of set-up, timed by run.py from spawn
    wk.make_inputs(args.seed)
    send({"ready": time.monotonic(), "inputs": sorted(os.listdir("."))})
    calls = wk.calls(args.seed)

    if args.role == "setup":
        return 0
    if args.role == "reference":
        msg = run_iteration(cli.main, calls)
        if msg["error"] or any(msg["rcs"]):
            print(msg.get("output", ""), msg["error"] or "", file=sys.stderr)
            return 1
        return 0

    tracer = None
    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if command == "traced" and tracer is None:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        msg = run_iteration(cli.main, calls,
                            tracer if command == "traced" else None)
        if tracer is not None and tracer.broken:
            msg["broken_counters"] = sorted(tracer.broken)
        send(msg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
