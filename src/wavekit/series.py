"""Uniformly sampled real-valued time series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSignalError


@dataclass(frozen=True)
class TimeSeries:
    """Samples f(t0 + k*dt), k = 0..n-1, of a real signal.

    The signal is taken to be zero outside the sampled support; every
    transform in this package uses that zero extension explicitly.
    """

    samples: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 2:
            raise InvalidSignalError("signal must be 1-D with at least 2 samples")
        if not np.all(np.isfinite(samples)):
            raise InvalidSignalError("signal contains non-finite samples")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise InvalidSignalError(f"sample spacing must be positive, got {self.dt}")
        if not np.isfinite(self.t0):
            raise InvalidSignalError("start time must be finite")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.n * self.dt

    def time_axis(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def with_samples(self, samples: np.ndarray) -> "TimeSeries":
        return TimeSeries(samples=samples, dt=self.dt, t0=self.t0)
