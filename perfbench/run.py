#!/usr/bin/env python3
"""wavekit benchmark: one workload per run, through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/wavekit and
BENCHMARK.json). See perfbench/README.md for the workloads and metrics.

A run:
  1. sets up the workload in fresh processes with src/ on the path, one
     after another (five times with --trace 0, once with --trace 1): import
     wavekit, make the inputs from the seed, write them to files;
  2. in the last of those processes runs an untimed warm-up iteration; at
     the same time a child process with the frozen oracle copy of wavekit
     (perfbench/oracle) makes the same inputs and runs the workload once,
     which gives the reference files;
  3. in the measuring process runs timed iterations for about S seconds,
     one after another (closed loop, one client), checking every file after
     every iteration, the warm-up included, against the reference;
  4. prints the metrics as the last line of stdout: end-to-end metrics with
     --trace 0, per-layer metrics from a run that traces every other
     iteration with --trace 1.
Children run with BLAS/OpenMP thread counts capped at 1. Everything is
written under .bench/ in the checkout and removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import compare, digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_TIMED = 3
DEADLINE_S = 170.0
MIN_COVERAGE = 0.9
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1"}


class BenchError(Exception):
    """The run cannot produce a result."""


class Child:
    """A worker.py process spoken to by lines on its stdin and stdout."""

    def __init__(self, role, workload, seed, cwd, pythonpath, deadline):
        env = dict(os.environ, PYTHONPATH=str(pythonpath), **THREAD_CAPS)
        self.deadline = deadline
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--role", role,
             "--workload", workload, "--seed", str(seed)],
            cwd=cwd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def recv(self) -> dict:
        left = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise BenchError("worker " + ("timed out" if not ready else
                             f"exited with code {self.proc.wait()}"))
        return json.loads(line)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self) -> int:
        try:
            self.proc.stdin.close()
            return self.proc.wait(timeout=max(self.deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("worker did not exit") from None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            try:
                f.close()
            except OSError:
                pass


class Checker:
    """Checks a work directory against the reference directory."""

    def __init__(self, ref_dir: Path, inputs: set):
        self.ref_dir = ref_dir
        self.inputs = inputs
        self.digests = {p.name: digest(p) for p in ref_dir.iterdir()}

    def problems(self, work: Path) -> list:
        found = {p.name for p in work.iterdir()}
        out = [f"{n}: missing" for n in sorted(self.digests.keys() - found)]
        out += [f"{n}: unexpected" for n in sorted(found - self.digests.keys())]
        for name in sorted(found & self.digests.keys()):
            why = compare(self.ref_dir / name, work / name,
                          self.digests[name])
            if why:
                out.append(f"{name}: {why}")
        return out

    def clear_outputs(self, work: Path) -> None:
        for p in work.iterdir():
            if p.name not in self.inputs:
                p.unlink()


def bench(workload: str, seed: int, seconds: float, trace: bool,
          root: Path, tamper=None) -> dict:
    """One benchmark run; returns the samples the metrics are made from.

    tamper(work_dir, iteration) runs before each check; the self-test uses
    it to corrupt outputs.
    """
    wk = WORKLOADS[workload]
    deadline = time.monotonic() + DEADLINE_S
    run_dir = root / ".bench" / f"{workload}-s{seed}-{os.getpid()}"
    ref_dir, work = run_dir / "ref", run_dir / "work"
    ref_dir.mkdir(parents=True)
    work.mkdir()
    children = []
    try:
        setups = []
        repeats = 1 if trace else SETUP_REPEATS
        for k in range(repeats):
            role = "measure" if k == repeats - 1 else "setup"
            child = Child(role, workload, seed, work, root / "src", deadline)
            children.append(child)
            setups.append(child.recv()["ready"] - child.spawned)
            if role == "setup" and child.finish() != 0:
                raise BenchError("a set-up process failed")

        # the untimed warm-up iteration runs while the oracle makes the
        # reference; run_loop checks it once the reference is there
        child.send("plain")
        ref = Child("reference", workload, seed, ref_dir,
                    HERE / "oracle", deadline)
        children.append(ref)
        inputs = set(ref.recv()["inputs"])
        if ref.finish() != 0:
            raise BenchError("the oracle failed on this workload")
        checker = Checker(ref_dir, inputs)

        samples = {"setup": setups, "items": wk.items, "plain": [],
                   "traced": [], "attempted": 0, "failed": 0, "problems": [],
                   "broken_counters": set()}
        run_loop(child, checker, work, samples, seconds, trace, deadline,
                 tamper)
        child.send("stop")
        if child.finish() != 0:
            raise BenchError("the measuring process failed at exit")
        return samples
    finally:
        for child in children:
            child.kill()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()      # .bench/, unless another run uses it
        except OSError:
            pass


def run_loop(child, checker, work, samples, seconds, trace, deadline, tamper):
    """Warm-up, then timed iterations until about `seconds` have passed.

    With trace, iterations alternate traced and plain so that both see the
    same machine state; at least two traced ones, for the repeat gate.
    """
    def iterate(command: str) -> dict:
        child.send(command)
        return checked(child.recv())

    def checked(msg: dict) -> dict:
        if tamper is not None:
            tamper(work, samples["attempted"])
        samples["attempted"] += 1
        problems = checker.problems(work)
        if msg["error"]:
            problems.append(msg["error"].strip().splitlines()[-1])
        if any(msg["rcs"]):
            problems.append(f"exit codes {msg['rcs']}: {msg.get('output', '')}")
        if problems:
            samples["failed"] += 1
            samples["problems"].append(problems)
        samples["broken_counters"].update(msg.get("broken_counters", ()))
        checker.clear_outputs(work)
        return msg

    warmup = checked(child.recv())     # sent by bench()
    # peak memory of set-up plus one iteration, as one CLI call in a fresh
    # process has it; later iterations only add allocator drift, and how
    # many of them fit in the run depends on the machine's speed
    samples["peak_rss_kb"] = warmup["peak_rss_kb"]
    samples["warmup"] = warmup["wall"]
    start, last = time.monotonic(), warmup["wall"]
    while True:
        n_traced, n_plain = len(samples["traced"]), len(samples["plain"])
        if trace:
            wanted = n_traced < 2 or n_plain < 1
        else:
            wanted = n_plain < MIN_TIMED
        now = time.monotonic()
        if not wanted and now - start + 0.5 * last > seconds:
            break
        if now + 1.5 * last > deadline and n_plain >= 1 and \
                (n_traced >= 2 or not trace):
            break   # a much slower program still ends within the deadline
        traced = trace and n_traced <= n_plain
        msg = iterate("traced" if traced else "plain")
        last = msg["wall"]
        samples["traced" if traced else "plain"].append(msg)


# ------------------------------------------------------------- metrics

def end_to_end(s: dict) -> dict:
    wall = statistics.median(m["wall"] for m in s["plain"])
    return {"wall_s": wall,
            "items_per_s": s["items"] / wall,
            "peak_rss_mb": s["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(s["setup"])}


COUNT_KEYS = ("calls", "coeffs", "points", "lines", "lines_significant",
              "events", "bytes")


def per_layer(s: dict) -> tuple:
    """Per-layer metrics from the traced iterations, and gate failures."""
    traced = s["traced"]
    names = sorted({n for m in traced for n in m["spans"]})
    out, gate = {}, []

    def med(name, key):
        return statistics.median(m["spans"].get(name, {}).get(key, 0.0)
                                 for m in traced)

    for name in names:
        out[f"{name}.self_s"] = med(name, "self_s")
        for key in COUNT_KEYS:
            values = {m["spans"].get(name, {}).get(key) for m in traced}
            if values != {None}:
                if len(values) != 1:
                    gate.append(f"{name}.{key} differs between traced "
                                f"iterations: {sorted(values, key=str)}")
                out[f"{name}.{key}"] = max(v or 0 for v in values)
    for layer in ("series", "wavelets", "transform", "detect", "selfsim",
                  "generate", "io", "cli"):
        out[f"{layer}.self_s"] = sum(v for k, v in out.items()
                                     if k.startswith(layer + ".")
                                     and k.endswith(".self_s")
                                     and k.count(".") == 2)

    def ratio(num, den, factor=1.0):
        d = out.get(den, 0)
        return factor * out.get(num, 0.0) / d if d else 0.0

    out["transform.cwt_fft.ns_per_coeff"] = ratio(
        "transform.cwt_fft.self_s", "transform.cwt_fft.coeffs", 1e9)
    out["transform.modulus_maxima.us_per_point"] = ratio(
        "transform.modulus_maxima.self_s", "transform.modulus_maxima.points",
        1e6)
    out["generate.chaos_game.ns_per_point"] = ratio(
        "generate.chaos_game.self_s", "generate.chaos_game.points", 1e9)
    for key in ("lines", "lines_significant", "events"):
        out[f"detect.{key}"] = out.get(f"detect.detect_singularities.{key}", 0)
    out["detect.significant_ratio"] = ratio("detect.lines_significant",
                                            "detect.lines")
    out["detect.us_per_line"] = ratio("detect.detect_singularities.self_s",
                                      "detect.lines", 1e6)
    for name in names:
        if name.startswith("io."):
            out[f"{name}.mb_per_s"] = ratio(f"{name}.bytes",
                                            f"{name}.self_s", 1e-6)
    for sub in ("gen", "analyze", "estimate", "rasterize"):
        out[f"cli.{sub}.wall_s"] = statistics.median(
            m["cli"].get(sub, 0.0) for m in traced)

    coverage = [sum(t["self_s"] for t in m["spans"].values()) / m["wall"]
                for m in traced]
    out["trace.coverage"] = statistics.median(coverage)
    if min(coverage) < MIN_COVERAGE:
        gate.append(f"spans cover {min(coverage):.3f} of the traced wall "
                    f"time, below {MIN_COVERAGE}")
    out["trace.overhead_s"] = (statistics.median(m["wall"] for m in traced)
                               - statistics.median(m["wall"] for m in s["plain"]))
    out["failed_ratio"] = s["failed"] / s["attempted"]
    out["warmup.wall_s"] = s["warmup"]
    return out, gate


# --------------------------------------------------------- the machine

def environment(root: Path, seed: int) -> dict:
    import numpy
    src = hashlib.sha256()
    for p in sorted((root / "src" / "wavekit").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": git_commit(root), "src_sha256": src.hexdigest(),
            "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "thread_caps": THREAD_CAPS}


def git_commit(root: Path) -> str:
    """HEAD of root's own .git, without running git; "unknown" without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------- main

def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (root / "src" / "wavekit" / "__init__.py").is_file():
        print("error: run from the root of a wavekit checkout "
              "(no src/wavekit here)", file=sys.stderr)
        return 2
    spec = load_spec(root)
    try:
        s = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problems in s["problems"][:5]:
        print("mismatch: " + "; ".join(problems[:5]), file=sys.stderr)
    if s["broken_counters"]:
        print("counters that no longer fit the program: "
              + ", ".join(sorted(s["broken_counters"])), file=sys.stderr)
    correct = s["failed"] == 0
    if args.trace:
        values, gate = per_layer(s)
        for why in gate:
            print(f"trace gate: {why}", file=sys.stderr)
        correct = correct and not gate
        wanted = spec["per_layer"]
    else:
        values = end_to_end(s)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}

    print("env " + json.dumps(environment(root, args.seed), sort_keys=True))
    print(f"{args.workload}: {s['attempted']} iterations checked "
          f"(1 warm-up, {len(s['plain'])} plain, {len(s['traced'])} traced), "
          f"{s['failed']} failed; failed_ratio "
          f"{s['failed'] / s['attempted']:.3f}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
