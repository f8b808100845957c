"""The outputs of a fixed list of command lines, against tests/golden.

scripts/golden.py holds the runner and regenerates the set with --write.
Manifests, PGM images and the transcript of stdout, stderr and exit codes
must match byte for byte. In the other files every token but a float must
match exactly, and a float may move by at most 1e-12 relative, which FFT
roundoff on another platform can take."""

import importlib.util
import os
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location(
    "golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
_INTEGER = re.compile(r"[-+]?\d+")


def _same_up_to_roundoff(got: str, want: str) -> bool:
    """Equal text and integers, and floats within 1e-12 relative. Two
    texts of one float differ only when the writer changed, so they do not
    count as roundoff."""
    got, want = _NUMBER.split(got), _NUMBER.split(want)
    if len(got) != len(want) or got[::2] != want[::2]:
        return False
    for g, w in zip(got[1::2], want[1::2]):
        if g == w:
            continue
        if _INTEGER.fullmatch(g) and _INTEGER.fullmatch(w):
            return False
        x, y = float(g), float(w)
        if x == y or abs(x - y) > 1e-12 * max(abs(x), abs(y)):
            return False
    return True


def test_golden_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = golden.run_all()
    assert got == (GOLDEN / "stdout.txt").read_text()
    want_dir = GOLDEN / "out"
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(want_dir))
    for name in sorted(os.listdir(want_dir)):
        have, want = (tmp_path / name).read_bytes(), \
            (want_dir / name).read_bytes()
        if have == want:
            continue
        assert not name.endswith((".manifest.json", ".pgm")), name
        assert _same_up_to_roundoff(have.decode(), want.decode()), name


@pytest.mark.parametrize("got, want, same", [
    ("a\t1.5\t3\n", "a\t1.5\t3\n", True),
    ("a\t1.0000000000000002\n", "a\t1\n", True),
    # the same float in other text: the writer changed
    ("a\t0.1\n", "a\t0.10000000000000001\n", False),
    ("a\t1.00000000001\n", "a\t1\n", False),
    ("n\t4\n", "n\t5\n", False),
    ("b\t1.5\n", "a\t1.5\n", False),
    ("a\t1.5\t2\n", "a\t1.5\n", False),
])
def test_golden_float_tolerance(got, want, same):
    assert _same_up_to_roundoff(got, want) is same
