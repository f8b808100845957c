#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                               [--out summary.json]

Run from the root of a checkout. Runs go seed by seed, each seed through
every workload, with the run length from BENCHMARK.json. For each workload
and metric it prints the median, the quartiles (statistics.quantiles, n=4),
the spread (q3 - q1) / median against the metric's bound, and how long the
runs took. --out writes the same summary, with every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = {w: [] for w in names}
    env = None
    for seed in args.seeds:
        for w in names:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            took = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            env = env or next((json.loads(ln[4:]) for ln in lines
                               if ln.startswith("env ")), None)
            result.update(seed=seed, run_s=took)
            runs[w].append(result)
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"{took:.1f} s", flush=True)

    summary = {"env": env, "run_seconds": spec["run_seconds"],
               "trace": args.trace, "workloads": {}}
    for w, results in runs.items():
        summary["workloads"][w] = {"runs": results, "metrics": {}}
        print(f"\n{w}: {len(results)} runs, longest "
              f"{max(r['run_s'] for r in results):.1f} s")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else None
            summary["workloads"][w]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "unit": results[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            verdict = "" if bound is None or spread is None else \
                f"bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:44s} median {med:12.6g}  spread "
                  f"{'-' if spread is None else f'{spread:.4f}':>7}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
