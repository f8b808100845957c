"""Synthetic signal and point-cloud generators.

Everything random is driven by numpy's PCG64 through Generator with an
explicit integer seed, so repeated calls reproduce bit-identical output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidHurstError, InvalidModelError, InvalidSignalError
from .series import TimeSeries


@dataclass(frozen=True)
class AffineMap:
    """Planar affine map (x, y) -> (a x + b y + e, c x + d y + f)."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def apply(self, x: float, y: float) -> tuple:
        return (self.a * x + self.b * y + self.e,
                self.c * x + self.d * y + self.f)


@dataclass(frozen=True)
class IfsModel:
    """Iterated function system with per-map selection probabilities."""

    maps: tuple
    probabilities: tuple
    name: str = ""

    def __post_init__(self):
        if len(self.maps) == 0:
            raise InvalidModelError("model needs at least one map")
        p = np.asarray(self.probabilities, dtype=np.float64)
        if p.size != len(self.maps):
            raise InvalidModelError("probabilities and maps must pair up")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise InvalidModelError("probabilities must be finite and nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise InvalidModelError(f"probabilities sum to {p.sum()!r}, expected 1")


@dataclass(frozen=True)
class PointCloud:
    """Chaos-game iterates plus the bookkeeping needed to reproduce them."""

    points: np.ndarray
    seed: int
    burn_in: int
    map_counts: np.ndarray


def barnsley_tree_model() -> IfsModel:
    """Four-map fern-like tree attractor."""
    maps = (
        AffineMap(0.00, 0.00, 0.00, 0.16, 0.0, -1.00),
        AffineMap(-0.85, -0.04, -0.04, 0.85, 0.0, 1.60),
        AffineMap(-0.20, 0.26, 0.23, 0.22, 0.0, 1.60),
        AffineMap(0.15, -0.28, 0.26, 0.24, 0.0, 0.22),
    )
    return IfsModel(maps=maps, probabilities=(0.01, 0.85, 0.07, 0.07), name="barnsley")


def chaos_game(m: IfsModel, n: int, seed: int, burn_in: int = 100,
               x0: tuple = (0.0, 0.0)) -> PointCloud:
    """Run the random-iteration algorithm and keep n points after burn_in.

    Map k is selected when the uniform draw falls in the k-th slot of the
    cumulative probability partition. map_counts tallies selections over the
    n retained steps only.
    """
    if n < 1 or burn_in < 0:
        raise InvalidModelError("need n >= 1 and burn_in >= 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    total = burn_in + n
    cum = np.cumsum(np.asarray(m.probabilities, dtype=np.float64))
    idx = np.searchsorted(cum, rng.random(total), side="right")
    idx = np.minimum(idx, len(m.maps) - 1)

    coeffs = [(mp.a, mp.b, mp.c, mp.d, mp.e, mp.f) for mp in m.maps]
    pts = np.empty((n, 2), dtype=np.float64)
    x, y = float(x0[0]), float(x0[1])
    for step in range(total):
        a, b, c, d, e, f = coeffs[idx[step]]
        x, y = a * x + b * y + e, c * x + d * y + f
        if step >= burn_in:
            pts[step - burn_in, 0] = x
            pts[step - burn_in, 1] = y

    counts = np.bincount(idx[burn_in:], minlength=len(m.maps))
    return PointCloud(points=pts, seed=seed, burn_in=burn_in, map_counts=counts)


def _fgn_covariance(hurst: float, n: int) -> np.ndarray:
    """Autocovariance of unit-variance fractional Gaussian noise at lags 0..n-1."""
    k = np.arange(n, dtype=np.float64)
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k ** h2 + np.abs(k - 1.0) ** h2)


def gen_fbm(hurst: float, n: int, seed: int, dt: float = 1.0) -> TimeSeries:
    """Fractional Brownian motion by circulant embedding of the fGn covariance.

    The length-2n circulant carrying the fGn autocovariance is diagonalized by
    the FFT; a Hermitian-symmetric complex Gaussian vector shaped by the
    square-rooted eigenvalues transforms back to exact-covariance fGn, and the
    cumulative sum (scaled by dt^H) gives the motion. Should the embedding
    ever fail to be nonnegative-definite, negative eigenvalues are clipped and
    the spectrum rescaled (approximate synthesis), with a warning.
    """
    if not (np.isfinite(hurst) and 0.0 < hurst < 1.0):
        raise InvalidHurstError(f"hurst must lie in (0, 1), got {hurst}")
    if n < 2:
        raise InvalidSignalError("need at least 2 samples")
    if dt <= 0:
        raise InvalidSignalError("dt must be positive")

    gamma = _fgn_covariance(hurst, n)
    c = np.concatenate([gamma, [0.0], gamma[-1:0:-1]])
    eigs = np.fft.fft(c).real
    if eigs.min() < -1e-12 * max(eigs.max(), 1.0):
        warnings.warn("circulant embedding not nonnegative-definite; "
                      "falling back to approximate spectral synthesis "
                      "(negative eigenvalues clipped)", RuntimeWarning)
        pos = np.clip(eigs, 0.0, None)
        eigs = pos * (eigs.sum() / pos.sum())
    else:
        eigs = np.clip(eigs, 0.0, None)

    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.standard_normal(2 * n)
    half = np.empty(n + 1, dtype=np.complex128)
    half[0] = u[0]
    half[n] = u[1]
    half[1:n] = (u[2:n + 1] + 1j * u[n + 1:]) / np.sqrt(2.0)
    z = np.concatenate([half, np.conj(half[n - 1:0:-1])])
    fgn = np.sqrt(2.0 * n) * np.fft.ifft(np.sqrt(eigs) * z).real[:n]

    samples = np.cumsum(fgn) * dt ** hurst
    return TimeSeries(samples=samples, dt=dt)


def gen_eq11(n: int, sigma: float = 0.0, seed: int | None = None) -> TimeSeries:
    """Sine plus cusp (x = 0.4) plus step (x = 0.7) test signal on [0, 1].

    f(x) = 2 sin(4 pi x) - 6 |x - 0.4|^0.3 - 0.5 sign(0.7 - x) + noise,
    sampled at x_i = i/(n-1).
    """
    x, dt = _unit_grid(n)
    f = (2.0 * np.sin(4.0 * np.pi * x)
         - 6.0 * np.abs(x - 0.4) ** 0.3
         - 0.5 * np.sign(0.7 - x))
    return TimeSeries(samples=_with_noise(f, sigma, seed), dt=dt)


def gen_chirp_jump(n: int, sigma: float = 0.0, seed: int | None = None) -> TimeSeries:
    """Chirp carrier with a step at x = 0.5 and a 0.4-exponent cusp at x = 0.6.

    g(x) = 2 sin(2 pi (x + 2 x^2)) + 3 H(x - 0.5) - 5 |x - 0.6|^0.4 + noise
    on x_i = i/(n-1), H the right-continuous unit step. The chirp sweeps 1 to
    5 cycles per unit, slow enough that its fine-scale response stays well
    under the cusp's while still exercising multi-frequency content.
    """
    x, dt = _unit_grid(n)
    g = (2.0 * np.sin(2.0 * np.pi * (x + 2.0 * x * x))
         + 3.0 * (x >= 0.5)
         - 5.0 * np.abs(x - 0.6) ** 0.4)
    return TimeSeries(samples=_with_noise(g, sigma, seed), dt=dt)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise: std sigma, PCG64 seed."""

    sigma: float
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise InvalidSignalError(f"sigma must be >= 0, got {self.sigma}")


def add_noise(f: TimeSeries, spec: NoiseSpec) -> TimeSeries:
    """Return a copy of f with N(0, sigma^2) added; f itself is untouched."""
    if spec.sigma == 0.0:
        return f.with_samples(f.samples.copy())
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    return f.with_samples(f.samples + spec.sigma * rng.standard_normal(f.n))


def _unit_grid(n: int):
    if n < 2:
        raise InvalidSignalError("need at least 2 samples")
    return np.linspace(0.0, 1.0, n), 1.0 / (n - 1)


def _with_noise(f: np.ndarray, sigma: float, seed: int | None) -> np.ndarray:
    if sigma < 0 or not np.isfinite(sigma):
        raise InvalidSignalError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return f
    if seed is None:
        raise InvalidSignalError("a seed is required when sigma > 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    return f + sigma * rng.standard_normal(f.size)
