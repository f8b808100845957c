"""Run the golden command lines and keep their outputs.

tests/golden/runs.txt lists wavekit command lines, one a line. They run in
order, in-process through wavekit.cli.main, in one directory with relative
names, so that each manifest's argv is the line as written. Every file they
write is kept in tests/golden/out, and tests/golden/stdout.txt holds each
line with what it printed and its exit code. tests/test_golden.py runs the
same lines and compares.

Usage: python scripts/golden.py --write
"""

import argparse
import contextlib
import io
import os
import shlex
import shutil

from wavekit.cli import main as wavekit

GOLDEN = os.path.normpath(os.path.join(os.path.dirname(
    os.path.abspath(__file__)), "..", "tests", "golden"))


def runs() -> list:
    """The command lines of runs.txt, '#' comments and blank lines left out."""
    with open(os.path.join(GOLDEN, "runs.txt")) as fh:
        return [line.strip() for line in fh
                if line.strip() and not line.startswith("#")]


def run_all() -> str:
    """Run every line in the current directory. Returns the transcript:
    each line, its stdout, its stderr with each line marked, and its exit
    code."""
    text = []
    for line in runs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = wavekit(shlex.split(line))
        marked = "".join("stderr: " + e
                         for e in err.getvalue().splitlines(True))
        text.append(f"$ wavekit {line}\n{out.getvalue()}{marked}exit {code}\n")
    return "".join(text)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", required=True,
                    help="regenerate tests/golden in place")
    ap.parse_args()

    out = os.path.join(GOLDEN, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.mkdir(out)
    os.chdir(out)
    text = run_all()
    with open(os.path.join(GOLDEN, "stdout.txt"), "w") as fh:
        fh.write(text)
    print(f"wrote {len(os.listdir(out))} files to {out}")


if __name__ == "__main__":
    main()
