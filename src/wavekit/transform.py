"""Continuous wavelet transform, scalogram, and modulus maxima.

W(b, a) = (1/sqrt(a)) * integral f(t) conj(psi((t - b)/a)) dt, discretized by
the rectangle rule on the signal's own grid with zero extension outside the
sampled support:

    W[j][i] = (dt / sqrt(a_j)) * sum_k f_k conj(psi((t_k - b_i)/a_j))

Translations b_i sit at every sample position. Two routes compute the same
sum: cwt_direct convolves in the time domain, cwt_fft multiplies in the
frequency domain with the transfer function of the sampled scaled wavelet.

Both routes sample the kernel at offsets m_lo <= m <= m_hi that cover the
wavelet's support, clipped to |m| <= n - 1: no sample lies further away, so
the clipped terms multiply nothing. cwt_fft convolves circularly over L
points, L the smallest 2^i 3^j 5^k >= n + max(m_hi, -m_lo). The n outputs
it keeps are the linear-convolution entries m_hi .. m_hi + n - 1, and at
that length no other entry wraps onto them, so the circular result is the
linear one. Its rows run on a thread pool with one worker per CPU the
process may use, fed in scale order; numpy's FFT releases the GIL, and
each row gets the same bits as in a one-thread loop.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ScaleTooFineError
from .series import TimeSeries
from .wavelets import Wavelet, support_radius


@dataclass(frozen=True)
class ScaleGrid:
    """Logarithmically spaced analysis scales."""

    scales: np.ndarray
    voices_per_octave: float

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=np.float64)
        object.__setattr__(self, "scales", scales)
        if scales.size < 1 or not np.all(np.isfinite(scales)) or np.any(scales <= 0):
            raise ValueError("scales must be positive and finite")
        if scales.size > 1 and np.any(np.diff(scales) <= 0):
            raise ValueError("scales must be strictly increasing")

    @classmethod
    def log_spaced(cls, a_min: float, a_max: float, voices_per_octave: float = 8.0) -> "ScaleGrid":
        """Geometric grid a_min * 2^(j / voices) covering [a_min, a_max]."""
        if not (0 < a_min <= a_max):
            raise ValueError(f"need 0 < a_min <= a_max, got {a_min}, {a_max}")
        octaves = np.log2(a_max / a_min)
        count = int(np.floor(octaves * voices_per_octave + 1e-9)) + 1
        scales = a_min * 2.0 ** (np.arange(count) / voices_per_octave)
        return cls(scales=scales, voices_per_octave=float(voices_per_octave))

    @classmethod
    def with_count(cls, a_min: float, a_max: float, count: int) -> "ScaleGrid":
        """Exactly `count` log-spaced scales from a_min to a_max inclusive."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if not (0 < a_min <= a_max):
            raise ValueError(f"need 0 < a_min <= a_max, got {a_min}, {a_max}")
        if count == 1:
            return cls(scales=np.array([a_min]), voices_per_octave=1.0)
        scales = np.geomspace(a_min, a_max, count)
        voices = (count - 1) / max(np.log2(a_max / a_min), 1e-300)
        return cls(scales=scales, voices_per_octave=float(voices))

    @classmethod
    def default_for(cls, f: TimeSeries, voices_per_octave: float = 8.0) -> "ScaleGrid":
        """Analysis default: from 2*dt up to a quarter of the record length."""
        return cls.log_spaced(2.0 * f.dt, f.n * f.dt / 4.0, voices_per_octave)

    @property
    def n_scales(self) -> int:
        return self.scales.size

    @property
    def a_min(self) -> float:
        return float(self.scales[0])

    @property
    def a_max(self) -> float:
        return float(self.scales[-1])


@dataclass(frozen=True)
class CwtMatrix:
    """CWT coefficients on a (scale, translation) grid plus cone-of-influence widths.

    cone_of_influence[j] is the number of boundary-affected samples at each
    end of row j: ceil(support_radius * a_j / dt) with the zero-extension
    convention. interior_mask(j) flags the trustworthy columns.
    """

    coefficients: np.ndarray
    scales: np.ndarray
    times: np.ndarray
    cone_of_influence: np.ndarray
    dt: float
    wavelet: Wavelet

    @property
    def n_scales(self) -> int:
        return self.scales.size

    @property
    def n_times(self) -> int:
        return self.times.size

    def interior_mask(self, j: int) -> np.ndarray:
        mask = np.zeros(self.n_times, dtype=bool)
        c = int(self.cone_of_influence[j])
        if c < self.n_times - c:
            mask[c:self.n_times - c] = True
        return mask


@dataclass(frozen=True)
class Scalogram:
    """Normalized energy density S(b, a) = |W(b, a)|^2 / a."""

    values: np.ndarray
    scales: np.ndarray
    times: np.ndarray


@dataclass(frozen=True)
class MaximaLine:
    """One chained ridge of modulus maxima, ordered fine to coarse."""

    scale_idx: np.ndarray
    time_idx: np.ndarray
    values: np.ndarray
    point_indices: np.ndarray

    def span_octaves(self, scales: np.ndarray) -> float:
        a = scales[self.scale_idx]
        return float(np.log2(a[-1] / a[0]))


@dataclass(frozen=True)
class MaximaSet:
    """Modulus maxima (i, j, |W|) as flat arrays, plus their chained lines.

    The points are in (scale, time) order. line_id[k] is the line point k
    belongs to; lines[line_id[k]] holds it.
    """

    time_idx: np.ndarray
    scale_idx: np.ndarray
    values: np.ndarray
    line_id: np.ndarray
    lines: tuple
    scales: np.ndarray
    times: np.ndarray

    @property
    def n_points(self) -> int:
        return self.time_idx.size


def _check_grid(f: TimeSeries, g: ScaleGrid) -> None:
    if g.a_min < 2.0 * f.dt * (1.0 - 1e-12):
        raise ScaleTooFineError(
            f"finest scale {g.a_min:g} is below 2*dt = {2 * f.dt:g}")


def _kernel(w: Wavelet, a: float, dt: float, n: int):
    """Sampled, conjugated wavelet at scale a: c_m = conj(psi(m dt / a)).

    Returns (c, m_lo, m_hi) with offsets m = m_lo .. m_hi covering the
    unit-scale support of the wavelet, clipped to |m| <= n - 1 because an
    n-sample record has no two samples further apart.
    """
    lo, hi = w.support
    m_lo = max(int(np.floor(lo * a / dt)), 1 - n)
    m_hi = min(int(np.ceil(hi * a / dt)), n - 1)
    m = np.arange(m_lo, m_hi + 1)
    c = np.conj(w.psi(m * dt / a))
    return c, m_lo, m_hi


def _smooth_length(m: int) -> int:
    """Smallest 2^i 3^j 5^k >= m, a length the FFT handles at full speed."""
    best = 1 << max(m - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < m:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def _cone(f: TimeSeries, w: Wavelet, g: ScaleGrid) -> np.ndarray:
    return np.ceil(support_radius(w) * g.scales / f.dt).astype(np.int64)


def cwt_direct(f: TimeSeries, w: Wavelet, g: ScaleGrid) -> CwtMatrix:
    """Time-domain rectangle-rule CWT; the oracle route."""
    _check_grid(f, g)
    x = f.samples
    n = f.n
    dtype = np.complex128 if w.is_complex else np.float64
    out = np.empty((g.n_scales, n), dtype=dtype)
    for j, a in enumerate(g.scales):
        c, m_lo, m_hi = _kernel(w, a, f.dt, n)
        # W[i] = sum_m x[i+m] c[m] = convolve(x, reversed(c))[i + m_hi]
        row = np.convolve(x, c[::-1])
        out[j] = row[m_hi:m_hi + n] * (f.dt / np.sqrt(a))
    return CwtMatrix(coefficients=out, scales=g.scales.copy(), times=f.time_axis(),
                     cone_of_influence=_cone(f, w, g), dt=f.dt, wavelet=w)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fft_rows(f: TimeSeries, w: Wavelet, g: ScaleGrid, emit) -> None:
    """Compute every cwt_fft row and hand it to emit(j, row), scale j.

    The calling thread samples each kernel and each new signal spectrum in
    scale order; a pool of one worker per usable CPU (at most one per
    scale) runs the kernel FFT, the product, the inverse FFT and the
    scaling, then calls emit from the worker with the row, which emit may
    keep. At most one row per worker is in flight, and an exception in a
    row is raised here once the pool has stopped. The row bits do not
    depend on the worker count: each row runs the same numpy calls on the
    same inputs as a serial loop would.
    """
    _check_grid(f, g)
    x = f.samples
    n = f.n
    fft, ifft = (np.fft.fft, np.fft.ifft) if w.is_complex else \
        (np.fft.rfft, np.fft.irfft)

    def row(j, c, m_hi, size, x_spec):
        # keep the product one expression over the fresh kernel spectrum:
        # numpy then multiplies in place into that temporary, operands
        # swapped, and the operand order sets the last bit of each product
        r = ifft(x_spec * fft(c[::-1], size), size)[m_hi:m_hi + n]
        emit(j, np.multiply(r, f.dt / np.sqrt(g.scales[j]), out=r))

    workers = min(_cpu_count(), g.n_scales)
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        size, x_spec = 0, None
        for j, a in enumerate(g.scales):
            c, m_lo, m_hi = _kernel(w, a, f.dt, n)
            length = _smooth_length(n + max(m_hi, -m_lo))
            if length != size:
                size = length
                x_spec = fft(x, size)
            if len(pending) == workers:
                pending.popleft().result()
            pending.append(pool.submit(row, j, c, m_hi, size, x_spec))
        for job in pending:
            job.result()


def cwt_fft(f: TimeSeries, w: Wavelet, g: ScaleGrid) -> CwtMatrix:
    """FFT-accelerated CWT, identical contract to cwt_direct.

    Per scale the zero-padded signal spectrum is multiplied by the transfer
    function of the scaled wavelet (the DFT of the sampled kernel), which is
    the frequency-domain image of the same rectangle-rule sum. The padded
    length is L = the smallest 2^i 3^j 5^k >= n + max(m_hi, -m_lo): the
    linear convolution of the signal with the reversed kernel runs over
    indices 0 .. n + m_hi - m_lo - 1, and at this L the entries that wrap
    around land outside the kept slice m_hi .. m_hi + n - 1. L never shrinks
    as the scales grow, so the signal spectrum is recomputed only when L
    changes. The rows run on a pool with one worker per usable CPU, fed in
    scale order; every coefficient has the same bits as in a serial loop.
    """
    dtype = np.complex128 if w.is_complex else np.float64
    out = np.empty((g.n_scales, f.n), dtype=dtype)
    _fft_rows(f, w, g, out.__setitem__)
    return CwtMatrix(coefficients=out, scales=g.scales.copy(), times=f.time_axis(),
                     cone_of_influence=_cone(f, w, g), dt=f.dt, wavelet=w)


def scalogram(c: CwtMatrix) -> Scalogram:
    """Energy density |W|^2 / a per Parseval-style normalization."""
    power = np.abs(c.coefficients) ** 2 / c.scales[:, None]
    return Scalogram(values=power, scales=c.scales, times=c.times)


def modulus_maxima(c: CwtMatrix, min_amplitude_fraction: float = 0.0) -> MaximaSet:
    """Local maxima of |W| along translation, chained across scales.

    A column i is a maximum when |W[j][i]| > |W[j][i-1]| and
    |W[j][i]| >= |W[j][i+1]| (leftmost point of a plateau wins) and clears
    min_amplitude_fraction of the row maximum. The points come out as flat
    arrays in (scale, time) order.

    Maxima at adjacent scales are linked nearest-neighbor when their time
    offset is at most a_{j+1}/dt samples. Each maximum at scale j is paired
    with the at most two maxima flanking it at scale j+1; the pairs are
    taken greedily by (offset, coarse time index, fine time index), and a
    pair is skipped when either end is already linked. Unmatched maxima
    start new lines, unmatched lines terminate. Ridges converge as scale
    grows, so each maximum extends at most one line; a line beaten to its
    nearest coarse maximum ends there. Lines are numbered in the order of
    their first point, and line_id gives each point's line.
    """
    if not 0.0 <= min_amplitude_fraction <= 1.0:
        raise ValueError("min_amplitude_fraction must be in [0, 1]")
    mag = np.abs(c.coefficients)
    n_scales, n = mag.shape

    is_max = np.zeros(mag.shape, dtype=bool)
    np.greater(mag[:, 1:-1], mag[:, :-2], out=is_max[:, 1:-1])
    is_max[:, 1:-1] &= mag[:, 1:-1] >= mag[:, 2:]
    if min_amplitude_fraction > 0.0:
        is_max &= mag >= min_amplitude_fraction * mag.max(axis=1, keepdims=True)
    scale_idx, time_idx = np.nonzero(is_max)
    values = mag[scale_idx, time_idx]
    # whole-matrix arrays: held through the chaining they set peak memory
    del mag, is_max

    # candidate links: every maximum not on the coarsest scale against the
    # two maxima one scale up that flank its time index, the right one
    # found by one search over the (scale, time)-ordered keys
    bounds = np.searchsorted(scale_idx, np.arange(n_scales + 1))
    key = scale_idx * (n + 1) + time_idx
    pos = np.searchsorted(key, key[:bounds[-2]] + (n + 1))
    head = np.tile(np.arange(pos.size), 2)
    new = np.concatenate((pos - 1, pos))
    keep = new < key.size
    head, new = head[keep], new[keep]
    dist = np.abs(time_idx[new] - time_idx[head])
    keep = (scale_idx[new] == scale_idx[head] + 1) & \
        (dist <= c.scales[scale_idx[new]] / c.dt)
    head, new, dist = head[keep], new[keep], dist[keep]
    order = np.lexsort((time_idx[head], time_idx[new], dist, scale_idx[new]))

    # greedy nearest-first matching; each point links at most once each way
    parent = np.full(scale_idx.size, -1, dtype=np.int64)
    new_taken = bytearray(scale_idx.size)
    head_taken = bytearray(scale_idx.size)
    for k, h in zip(new[order].tolist(), head[order].tolist()):
        if new_taken[k] or head_taken[h]:
            continue
        new_taken[k] = head_taken[h] = 1
        parent[k] = h

    # a point with no parent opens the next line; the rest inherit theirs
    line_id = np.cumsum(parent < 0) - 1
    for j in range(1, n_scales):
        seg = slice(bounds[j], bounds[j + 1])
        linked = parent[seg] >= 0
        line_id[seg][linked] = line_id[parent[seg][linked]]

    # lines are runs of the points sorted stably by line, fine to coarse
    members = np.argsort(line_id, kind="stable")
    ends = np.cumsum(np.bincount(line_id)).tolist()
    by_line = scale_idx[members], time_idx[members], values[members]
    lines = tuple(
        MaximaLine(scale_idx=by_line[0][lo:hi], time_idx=by_line[1][lo:hi],
                   values=by_line[2][lo:hi], point_indices=members[lo:hi])
        for lo, hi in zip([0] + ends[:-1], ends))
    return MaximaSet(time_idx=time_idx, scale_idx=scale_idx, values=values,
                     line_id=line_id, lines=lines, scales=c.scales,
                     times=c.times)
