"""Compare a workload's files with the reference made by the oracle copy.

Rules, by file name:
  *.manifest.json, *.csv, *.pgm   byte for byte (nothing in them depends on
                                  FFT roundoff)
  *.json, *.tsv                   same structure, same strings and integers
                                  (event kinds and counts, row counts), and
                                  floats agree normwise:
                                  max |got - ref| <= 1e-12 * max |ref|, per
                                  TSV column and scale (rows with one value
                                  of the `a` column), and per JSON field
                                  across list entries
Files that are byte-identical pass without being parsed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

RTOL = 1e-12


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def rule(name: str) -> str:
    if name.endswith(".manifest.json") or name.endswith((".csv", ".pgm")):
        return "bytes"
    if name.endswith(".json"):
        return "json"
    if name.endswith(".tsv"):
        return "tsv"
    raise ValueError(f"no comparison rule for {name}")


def close(ref, got) -> bool:
    """Normwise agreement of two float arrays within RTOL."""
    ref = np.asarray(ref, dtype=np.float64)
    got = np.asarray(got, dtype=np.float64)
    if ref.shape != got.shape:
        return False
    if np.array_equal(ref, got, equal_nan=True):
        return True
    if not (np.all(np.isfinite(ref)) and np.all(np.isfinite(got))):
        return False
    return float(np.max(np.abs(got - ref))) <= RTOL * float(np.max(np.abs(ref)))


def _walk(ref, got, path, floats, problems):
    if isinstance(ref, dict):
        if not isinstance(got, dict) or ref.keys() != got.keys():
            problems.append(f"{path or '.'}: keys differ")
            return
        for key in ref:
            _walk(ref[key], got[key], f"{path}.{key}", floats, problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            problems.append(f"{path}: length differs")
            return
        for r, g in zip(ref, got):
            _walk(r, g, path + "[*]", floats, problems)
    elif type(ref) is float and type(got) is float:
        pair = floats.setdefault(path, ([], []))
        pair[0].append(ref)
        pair[1].append(got)
    elif type(ref) is not type(got) or ref != got:
        problems.append(f"{path}: {ref!r} != {got!r}")


def _compare_json(ref: Path, got: Path) -> str | None:
    try:
        got_data = json.loads(got.read_text())
    except ValueError as exc:
        return f"not JSON: {exc}"
    floats, problems = {}, []
    _walk(json.loads(ref.read_text()), got_data, "", floats, problems)
    for path, (r, g) in floats.items():
        if not close(r, g):
            problems.append(f"{path}: floats differ beyond {RTOL:g}")
    return "; ".join(problems[:3]) or None


def _compare_tsv(ref: Path, got: Path) -> str | None:
    with open(ref) as a, open(got) as b:
        header = a.readline()
        if header != b.readline():
            return "header differs"
    try:
        g = np.loadtxt(got, delimiter="\t", comments="#", ndmin=2)
    except ValueError as exc:
        return f"not numeric TSV: {exc}"
    r = np.loadtxt(ref, delimiter="\t", comments="#", ndmin=2)
    if r.shape != g.shape:
        return f"shape {g.shape} != {r.shape}"
    if r.size == 0:
        return None
    # rows of one scale form one group: a transform's roundoff scales with
    # the magnitude of its own row, and values span decades across scales
    names = header.lstrip("#").split()
    key = r[:, names.index("a")] if "a" in names else np.zeros(len(r))
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(key[order]) != 0])
    bad = []
    for k in range(r.shape[1]):
        x, y = r[order, k], g[order, k]
        if np.array_equal(x, y, equal_nan=True):
            continue
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))) or np.any(
                np.maximum.reduceat(np.abs(y - x), starts)
                > RTOL * np.maximum.reduceat(np.abs(x), starts)):
            bad.append(names[k] if k < len(names) else k)
    return f"columns {bad} differ beyond {RTOL:g}" if bad else None


def compare(ref: Path, got: Path, ref_digest: str) -> str | None:
    """None when got matches ref under its rule, else what differs."""
    if digest(got) == ref_digest:
        return None
    kind = rule(ref.name)
    if kind == "bytes":
        return "bytes differ"
    return _compare_json(ref, got) if kind == "json" else _compare_tsv(ref, got)
