"""Spans around wavekit's public functions, installed from outside the package.

Every public function of every ``wavekit.<layer>`` module is wrapped, and the
wrapper is bound in every ``wavekit.*`` namespace that binds the original
(``detect`` imports ``cwt_fft`` from ``transform``, ``cli`` imports nearly
everything), so calls are seen whichever module makes them. The kernel
sampler ``psi`` of the wavelets the CLI uses and ``TimeSeries`` validation
are wrapped at class level.

A span's self time is its duration minus the time covered by its child
spans. Totals are kept per span name for the current iteration only.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

_METHODS = (
    ("wavekit.wavelets", "MexicanHat", "psi", "wavelets.psi"),
    ("wavekit.wavelets", "Morlet", "psi", "wavelets.psi"),
    ("wavekit.series", "TimeSeries", "__post_init__", "series.TimeSeries"),
    ("wavekit.series", "TimeSeries", "time_axis", "series.TimeSeries"),
)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _coeffs(args, kwargs, result):
    return {"coeffs": result.coefficients.size}


# work counts recorded at the span boundary, by span name
_COUNTERS = {
    "wavelets.psi": lambda a, k, r: {"points": np.size(r)},
    "transform.cwt_fft": _coeffs,
    "transform.cwt_direct": _coeffs,
    "transform.modulus_maxima": lambda a, k, r: {"points": r.n_points,
                                                 "lines": len(r.lines)},
    "detect.detect_singularities": lambda a, k, r: {
        "lines": r.n_lines, "lines_significant": r.n_significant,
        "events": len(r.events)},
    "generate.chaos_game": lambda a, k, r: {"points": len(r.points)},
    "io.points_to_image": lambda a, k, r: {
        "bytes": np.asarray(a[0] if a else k["points"]).nbytes},
}


def _counter(name):
    if name in _COUNTERS:
        return _COUNTERS[name]
    fn = name.rpartition(".")[2]
    if name.startswith("io.") and fn.startswith(("read_", "write_")):
        return _file_bytes
    return None


class Tracer:
    """Collects per-name span totals while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.totals = {}        # name -> {"calls", "self_s", counts}
        self.broken = set()     # counters that no longer fit the program
        self._stack = []        # open spans: [start, time covered by children]

    def reset(self):
        self.totals = {}

    def wrap(self, name, fn):
        counter = _counter(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                t = self.totals.setdefault(name, {"calls": 0, "self_s": 0.0})
                t["calls"] += 1
                t["self_s"] += duration - frame[1]
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, KeyError, TypeError, OSError):
                    self.broken.add(name)   # reported; the count is left out
                else:
                    for key, value in counts.items():
                        t[key] = t.get(key, 0) + int(value)
            return result

        return traced

    def install(self):
        """Wrap wavekit's public functions; wavekit must be imported."""
        mods = {n: m for n, m in list(sys.modules.items())
                if n.startswith("wavekit.")}
        for modname, mod in mods.items():
            layer = modname.split(".")[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != modname:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for other in [sys.modules["wavekit"], *mods.values()]:
                    for key, val in list(vars(other).items()):
                        if val is obj:
                            setattr(other, key, wrapper)
        for modname, cls_name, meth, name in _METHODS:
            cls = getattr(mods[modname], cls_name)
            setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
