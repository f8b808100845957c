#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about 20 s. It checks that:
  - every workload pipeline passes its output check, traced and untraced;
  - the traced run counts what it should (analyze runs the CWT and the
    maxima once for detect and twice for dump, estimate-fern never runs the
    maxima) and every per-layer metric named
    in BENCHMARK.json is produced by some workload;
  - the checker is not blind: deliberately corrupted outputs count as failed
    iterations, and only those, while a change at FFT-roundoff level in a
    tolerance-checked file passes;
  - run.py exits non-zero, printing no result, where there is no src/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

ROOT = Path.cwd()


def flip_last_byte(name):
    def mutate(work: Path):
        data = bytearray((work / name).read_bytes())
        data[-2] ^= 1
        (work / name).write_bytes(bytes(data))
    return mutate


def scale_tsv_value(name, rel, column=-1):
    """Scale one number on the first data row by (1 + rel)."""
    def mutate(work: Path):
        lines = (work / name).read_text().split("\n")
        fields = lines[1].split("\t")
        new = "%.17g" % (float(fields[column]) * (1.0 + rel))
        if new == fields[column]:
            raise AssertionError(f"{name}: scaling by 1 + {rel} changed nothing")
        fields[column] = new
        lines[1] = "\t".join(fields)
        (work / name).write_text("\n".join(lines))
    return mutate


def edit_json(name, edit):
    def mutate(work: Path):
        data = json.loads((work / name).read_text())
        edit(data)
        with open(work / name, "w", newline="\n") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return mutate


def delete(name):
    return lambda work: (work / name).unlink()


def scaled(key, rel):
    def edit(d):
        d[key] *= 1.0 + rel
    return edit


def bumped(key):
    def edit(d):
        d[key] += 1
    return edit


def scale_csv_value(name, rel):
    """Scale the y of the first point by (1 + rel): must fail, CSVs are
    compared byte for byte."""
    def mutate(work: Path):
        lines = (work / name).read_text().split("\n")
        x, y = lines[1].split(",")
        lines[1] = x + "," + "%.17g" % (float(y) * (1.0 + rel))
        (work / name).write_text("\n".join(lines))
    return mutate


# workload -> {iteration: (mutations, files the failure must be blamed on;
# none when the mutations must pass)}; iteration 0 is the warm-up, and every
# plan fits in the warm-up and the three timed iterations of a zero-second run
PLANS = {
    "tiny-analyze": {
        0: ([scale_tsv_value("scalogram.tsv", 1e-15),
             edit_json("dump.json", scaled("sigma_hat", 1e-15))], []),
        1: ([scale_tsv_value("scalogram.tsv", 1e-9)], ["scalogram.tsv"]),
        2: ([edit_json("dump.json", scaled("sigma_hat", 1e-9))],
            ["dump.json"]),
        3: ([edit_json("detect.json", bumped("n_lines")),
             flip_last_byte("detect.json.manifest.json"),
             flip_last_byte("detect.csv")],
            ["detect.json", "detect.json.manifest.json", "detect.csv"]),
    },
    "tiny-estimate-fern": {
        1: ([flip_last_byte("fern.pgm"), delete("variance.tsv")],
            ["fern.pgm", "variance.tsv"]),
        2: ([scale_csv_value("fern.csv", 1e-15),
             scale_tsv_value("variance.tsv", 1e-9, column=1)],
            ["fern.csv", "variance.tsv"]),
    },
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print("ok   " + what)


def check_plain_and_traced() -> None:
    spec = run.load_spec(ROOT)
    produced = set()
    for name in PLANS:
        s = run.bench(name, 7, 0.5, False, ROOT)
        expect(s["failed"] == 0, f"{name}: {s['attempted']} iterations pass")
        e2e = run.end_to_end(s)
        expect(all(e2e[m["name"]] > 0 for m in spec["end_to_end"]),
               f"{name}: every end-to-end metric is positive")

        s = run.bench(name, 7, 0.5, True, ROOT)
        values, gate = run.per_layer(s)
        expect(s["failed"] == 0 and not gate,
               f"{name}: traced run passes, gate {gate or 'clean'}")
        produced |= {k for k, v in values.items() if v}
        calls = {k: values.get(f"transform.{k}.calls", 0)
                 for k in ("cwt_fft", "modulus_maxima")}
        # analyze: one pass for detect, two for dump (ROADMAP item 3)
        want = {"tiny-analyze": {"cwt_fft": 3, "modulus_maxima": 3},
                "tiny-estimate-fern": {"cwt_fft": 1,
                                       "modulus_maxima": 0}}[name]
        expect(calls == want, f"{name}: transform calls {calls}")
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in produced and m["name"] != "failed_ratio"]
    expect(not missing, f"every per-layer metric is produced ({missing})")


def check_corruption() -> None:
    for name, plan in PLANS.items():
        def tamper(work, iteration, plan=plan):
            for mutate in plan.get(iteration, ([], []))[0]:
                mutate(work)
        s = run.bench(name, 11, 0.0, False, ROOT, tamper=tamper)
        blamed = [files for _, (_, files) in sorted(plan.items()) if files]
        expect(s["failed"] == len(blamed),
               f"{name}: {s['failed']} of {s['attempted']} iterations failed, "
               f"{len(blamed)} corrupted")
        for problems, files in zip(s["problems"], blamed):
            expect(all(any(p.startswith(f + ":") for p in problems)
                       for f in files),
                   f"{name}: blamed {'; '.join(problems)}")


def check_without_program() -> None:
    bare = ROOT / ".bench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "analyze",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout,
               f"without src/: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    check_plain_and_traced()
    check_corruption()
    check_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
