"""Compare the writers' float formatting kernel with Python's '%.17g'.

Draws --values random 64-bit patterns (normal and subnormal doubles,
infinities and NaNs alike) and as many standard-normal values from --seed,
formats each with wavekit.io's kernel and with '%.17g' % x, and counts the
values whose bytes differ. It also prints the share of values the kernel
leaves to '%.17g'. Exits 1 on any mismatch, or when that share exceeds 1%
on the normal sample.

Usage: python scripts/format_fuzz.py [--values 5000000] [--seed 1]
"""

import argparse
import sys

import numpy as np

from wavekit.io import _fast_fields, _fields

_CHUNK = 1 << 16


def _compare(values):
    """(mismatches as (value, kernel, '%.17g'), values left to '%.17g')."""
    fields = _fields(values)
    ends = np.full((len(fields), 1), ord("\n"), np.uint8)
    got = np.hstack([fields, ends]).tobytes().translate(None, b"\0")
    got = got.split(b"\n")[:-1]
    want = [b"%.17g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    return bad, _fast_fields(values)[1].size


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--values", type=int, default=5_000_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    draws = {
        "bit patterns": lambda k: rng.integers(
            0, 2 ** 64, k, dtype=np.uint64).view(np.float64),
        "normal": lambda k: rng.standard_normal(k),
    }
    failed = False
    for name, draw in draws.items():
        bad, slow = [], 0
        for lo in range(0, args.values, _CHUNK):
            b, s = _compare(draw(min(_CHUNK, args.values - lo)))
            bad += b
            slow += s
        share = slow / max(args.values, 1)
        print(f"{name}: {args.values} values, {len(bad)} mismatches, "
              f"{slow} left to '%.17g' ({share:.2e})")
        for v, got, want in bad[:10]:
            print(f"  {v!r}: kernel {got!r}, '%.17g' {want!r}")
        failed |= bool(bad) or (name == "normal" and share > 0.01)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
