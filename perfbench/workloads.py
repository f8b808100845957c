"""The benchmark's workloads: how each one makes its inputs and which CLI
calls make up one iteration.

A workload chains two parts, each the CLI run of one use of wavekit:

  detect    analyze <signal> --report           local readout
  dump      analyze <signal> --wavelet morlet   the same, with every dump
            --report --scalogram --maxima
  estimate  estimate <signal> --json            global readout
            --covariance
  fern      gen ifs, then rasterize             point clouds

Each part has its own file names, so two parts share a work directory
without clashing. Every workload runs in the directory that holds its
inputs, with relative file names, so that the manifests the CLI writes
(which record argv) are the same bytes in the reference run and in the
measured run.

The ``tiny-*`` workloads are the same pipelines on small inputs; the
self-test uses them, BENCHMARK.json does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    items: int                                  # signal samples plus points
    make_inputs: Callable[[int], None]          # seed -> input files in cwd
    calls: Callable[[int], list]                # seed -> list of CLI argv


def _signal(maker: str, name: str, **kwargs) -> Callable[[int], None]:
    def make(seed: int) -> None:
        import wavekit
        from wavekit.io import write_signal_csv
        write_signal_csv(name, getattr(wavekit, maker)(seed=seed, **kwargs))
    return make


def _nothing(seed: int) -> None:
    """The fern part's only input is its seed, on the command line."""


def detect(n: int) -> Workload:
    return Workload(
        f"detect-{n}", n,
        _signal("gen_chirp_jump", "detect.csv", n=n, sigma=0.3),
        lambda seed: [["analyze", "detect.csv", "--report", "detect.json"]])


def dump(n: int) -> Workload:
    return Workload(
        f"dump-{n}", n, _signal("gen_chirp_jump", "dump.csv", n=n, sigma=0.3),
        lambda seed: [["analyze", "dump.csv", "--wavelet", "morlet",
                       "--report", "dump.json",
                       "--scalogram", "scalogram.tsv",
                       "--maxima", "maxima.tsv"]])


def estimate(n: int) -> Workload:
    return Workload(
        f"estimate-{n}", n, _signal("gen_fbm", "fbm.csv", hurst=0.7, n=n),
        lambda seed: [["estimate", "fbm.csv", "--json", "estimate.json",
                       "--covariance", "variance.tsv"]])


def fern(n: int) -> Workload:
    return Workload(
        f"fern-{n}", n, _nothing,
        lambda seed: [["gen", "ifs", "--n", str(n), "--seed", str(seed),
                       "--out", "fern.csv"],
                      ["rasterize", "fern.csv", "--width", "512",
                       "--height", "768", "--out", "fern.pgm"]])


def chain(name: str, *parts: Workload) -> Workload:
    """One workload that runs the parts' calls one after another."""
    def make_inputs(seed: int) -> None:
        for part in parts:
            part.make_inputs(seed)
    return Workload(name, sum(p.items for p in parts), make_inputs,
                    lambda seed: [c for p in parts for c in p.calls(seed)])


WORKLOADS = {w.name: w for w in (
    chain("analyze", detect(65536), dump(8192)),
    chain("estimate-fern", estimate(262144), fern(200000)),
    chain("tiny-analyze", detect(1024), dump(512)),
    chain("tiny-estimate-fern", estimate(4096), fern(2000)),
)}
