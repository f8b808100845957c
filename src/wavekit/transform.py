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
the clipped terms multiply nothing. The FFT route convolves the signal
with the reversed kernel, K = m_hi - m_lo + 1 samples, whose linear
result has entries 0 .. n + K - 2 and holds W[i] at entry m_hi + i. Row j
keeps the columns [k, n - k), 2k < n (k = 0 for cwt_fft and cwt_maxima,
the cone width for the wavelet variance), the linear entries m_hi + k ..
m_hi + n - k - 1, by one rule. Let L be the smallest 2^i 3^j 5^k
>= n + max(0, max(m_hi, -m_lo) - k) and M the smallest power of two
>= 4K. If M >= L, the row is one block, the whole signal at L: circular
output t is the linear entry t plus those at t +- L, and for a kept t
these others lie outside 0 .. n + K - 2, as t < m_hi + n - k <= L and
t + L >= n + K - 1 (kernel samples s >= L, which the FFT at L drops, meet
no sample at t < L). Otherwise the row runs in blocks (overlap-save) at
the step S = 3M/4 + 1 <= M - K + 1 of the signal with P zeros on its
left: P = S when m_hi + k < K - 1 (k + m_lo < 0, a whole row of a wavelet
whose support starts below 0), else P = 0. Block b is the padded
signal's [b S, b S + M), zero past its end, for every b S < n + P, so the
rows of one M and P share its block spectra. A block's circular outputs
at t in [K - 1, M) are linear: the sum over the kernel's s <= K - 1 reads
the block at t - s >= 0, so no term wraps, and it is the padded signal's
linear entry b S + t. Block b gives the entries [b S + K - 1,
b S + K - 1 + S), and these tile. The kept entries, moved to
P + m_hi + k .. P + m_hi + n - k - 1, start at or above K - 1 (with
P = S as S >= M/4 >= K) and end before the last block's outputs do.
Either way a kept entry is the linear result, up to FFT roundoff.

The rows run on one thread per CPU the process may use (at most one per
scale): the calling thread computes every cpus-th row, and cpus - 1
helper threads (none on one CPU) compute the others. The calling thread
plans the rows in scale order and computes the signal spectra; each row
samples its own kernel on the thread that computes the row, so at most
cpus rows and their kernels are alive at once. numpy's FFT releases the
GIL, and each row gets the same bits as in a one-thread loop. The thread
that computed a row reduces it with a per-row function that writes
nothing shared across rows, and the calling thread gets the results back
in scale order.

Modulus maxima are found one row at a time by _row_maxima, which
modulus_maxima applies to the rows of a computed matrix and cwt_maxima
runs on each row's thread as the row is computed, so cwt_maxima never
holds the scale x time matrix: its memory is O(n) plus the maxima.
cwt_maxima can also hand each row, in scale order, to a consumer on the
calling thread, which is how analyze writes its scalogram: analyze holds
no CwtMatrix on any path. The maxima are chained into lines one pair of adjacent scales
at a time, by matching rounds over that pair's candidate links: a
maximum links down only within the pair below its row and up only within
the pair above, so the pairs' matchings do not interact. A MaximaSet
holds the lines as a line-sorted permutation of the points, line offsets
and the line each one merged into, next to what detection reads of the
transform (each row's largest |W| and the finest row): detection needs no
CwtMatrix.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import ScaleTooFineError
from .series import TimeSeries
from .wavelets import Wavelet, support_radius


@dataclass(frozen=True)
class ScaleGrid:
    """Logarithmically spaced analysis scales."""

    scales: np.ndarray

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
        # Python floats: a ratio past float64's range becomes inf unwarned
        ratio = float(a_max) / float(a_min)
        if not np.isfinite(ratio):
            raise ValueError(
                f"a_max / a_min must be finite, got {a_max} / {a_min}")
        if not voices_per_octave > 0:
            raise ValueError(
                f"voices per octave must be positive, got {voices_per_octave}")
        octaves = np.log2(ratio)
        count = int(np.floor(octaves * voices_per_octave + 1e-9)) + 1
        try:
            scales = a_min * 2.0 ** (np.arange(count) / voices_per_octave)
        except (MemoryError, ValueError):
            # numpy refuses a size past its index range with a ValueError
            raise ValueError(
                f"{voices_per_octave} voices per octave make {count} scales, "
                "more than can be allocated") from None
        return cls(scales=scales)

    @classmethod
    def with_count(cls, a_min: float, a_max: float, count: int) -> "ScaleGrid":
        """Exactly `count` log-spaced scales from a_min to a_max inclusive."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if not (0 < a_min <= a_max):
            raise ValueError(f"need 0 < a_min <= a_max, got {a_min}, {a_max}")
        if count == 1:
            return cls(scales=np.array([a_min]))
        return cls(scales=np.geomspace(a_min, a_max, count))

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
class MaximaSet:
    """Modulus maxima (i, j, |W|) as flat arrays, their chained lines, and
    what detection reads of the transform besides them.

    The points are in (scale, time) order. line_points lists the point
    indices line by line, each line fine to coarse, and line k is
    line_points[line_offsets[k]:line_offsets[k + 1]]. line_host[k], the
    ridge line k merged into, holds the nearest linkable maximum one scale
    above line k's last point, or is -1 when there is none. row_max[j] is
    the largest |W| on row j, and finest the real part of row 0.
    """

    time_idx: np.ndarray
    scale_idx: np.ndarray
    values: np.ndarray
    line_points: np.ndarray
    line_offsets: np.ndarray
    line_host: np.ndarray
    scales: np.ndarray
    times: np.ndarray
    cone_of_influence: np.ndarray
    dt: float
    wavelet: Wavelet
    row_max: np.ndarray
    finest: np.ndarray

    @property
    def n_points(self) -> int:
        return self.time_idx.size

    @property
    def n_lines(self) -> int:
        return self.line_offsets.size - 1


def _check_grid(f: TimeSeries, w: Wavelet, g: ScaleGrid) -> None:
    """Refuse a wavelet whose support does not contain 0 (ValueError), a
    grid finer than 2 dt (ScaleTooFineError), or one whose coarsest scale
    reaches further than float64 holds in samples (ValueError): every
    count of samples taken from a / dt is then finite."""
    lo, hi = w.support
    if not lo <= 0.0 <= hi:
        raise ValueError(f"wavelet support ({lo:g}, {hi:g}) must contain 0")
    if g.a_min < 2.0 * f.dt * (1.0 - 1e-12):
        raise ScaleTooFineError(
            f"finest scale {g.a_min:g} is below 2*dt = {2 * f.dt:g}")
    # Python floats: a reach past float64's range becomes inf unwarned
    if not math.isfinite(support_radius(w) * g.a_max / f.dt):
        raise ValueError(
            f"coarsest scale {g.a_max:g} spans {support_radius(w):g} * a / dt "
            f"samples at dt = {f.dt:g}, more than float64 holds")


def _offsets(w: Wavelet, a: float, dt: float, n: int):
    """(m_lo, m_hi), the kernel offsets at scale a: they cover the
    unit-scale support of the wavelet, clipped to |m| <= n - 1 because an
    n-sample record has no two samples further apart."""
    lo, hi = w.support
    return (max(int(np.floor(lo * a / dt)), 1 - n),
            min(int(np.ceil(hi * a / dt)), n - 1))


def _kernel(w: Wavelet, a: float, dt: float, n: int):
    """Sampled, conjugated wavelet at scale a: c_m = conj(psi(m dt / a)).

    Returns (c, m_lo, m_hi) with the offsets m = m_lo .. m_hi of _offsets.
    """
    m_lo, m_hi = _offsets(w, a, dt, n)
    c = w.psi(np.arange(m_lo, m_hi + 1) * dt / a)
    # conj copies even a real array
    return (np.conj(c) if w.is_complex else c), m_lo, m_hi


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


# outputs a block row's thread transforms at once: all of a variance row's
# blocks in one call raised a fresh estimate's peak RSS at n = 2^18 from
# about 66 to 77 MB
_CHUNK = 1 << 16


def _block_plan(size: int, whole: int):
    """Block length and step of a row whose kernel has size samples and
    whose one block would be whole samples long (L in the module docstring):
    (M, S) with M the smallest power of two >= 4 size and S = 3M/4 + 1, or
    (whole, None), one block, when M would reach whole. S depends on M
    alone, and is <= M - size + 1 for every kernel that gets M."""
    length = 1 << (4 * size - 1).bit_length()
    if length >= whole:
        return whole, None
    return length, 3 * length // 4 + 1


def _block_spectra(x: np.ndarray, size: int, step: int, fft,
                   pad: int) -> np.ndarray:
    """fft of the blocks y[b step : b step + size] of y = pad zeros then x,
    zero past its end, for every block start b step below y.size: one
    (count, bins) array, one block per row, transformed max(1, _CHUNK //
    step) blocks at a time. y is not made: only a chunk with the pad or
    past the end of x is copied."""
    count = (x.size + pad - 1) // step + 1
    per = max(1, _CHUNK // step)
    bins = size // 2 + 1 if fft is np.fft.rfft else size
    spectra = np.empty((count, bins), np.complex128)
    for b in range(0, count, per):
        e = min(b + per, count)
        # the chunk is y[b step : (e - 1) step + size], x from lo to hi
        lo, hi = b * step - pad, (e - 1) * step + size - pad
        seg = x[max(lo, 0):hi]
        if seg.size < hi - lo:  # the pad, or blocks past the end
            seg = np.pad(seg, (max(-lo, 0), hi - max(lo, 0) - seg.size))
        fft(np.lib.stride_tricks.as_strided(
            seg, (e - b, size), (step * seg.strides[0], seg.strides[0]),
            writeable=False), out=spectra[b:e])
    return spectra


def _cone(f: TimeSeries, w: Wavelet, g: ScaleGrid) -> np.ndarray:
    """ceil(support_radius * a / dt) per scale, clipped to n (a cone with
    no interior); _check_grid has bounded the widths to float64."""
    width = np.minimum(support_radius(w) * g.scales / f.dt, f.n)
    return np.ceil(width).astype(np.int64)


def cwt_direct(f: TimeSeries, w: Wavelet, g: ScaleGrid) -> CwtMatrix:
    """Time-domain rectangle-rule CWT; the oracle route."""
    _check_grid(f, w, g)
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


def _fft_rows(f: TimeSeries, w: Wavelet, g: ScaleGrid, reduce, cone=0):
    """Yield reduce(j, row) for every cwt_fft row j, in scale order, cut to
    its columns [k_j, n - k_j) by the widths cone (one width: every row's).

    The calling thread plans the rows in scale order: it takes each row's
    kernel offsets from _offsets and computes each new signal spectrum (or
    set of block spectra). The rows run on workers = min(usable CPUs,
    n_scales) threads: the calling thread computes every workers-th row
    itself, and a pool of workers - 1 helper threads computes the others
    (no pool on one CPU). A row's job samples its kernel, runs the kernel
    FFT, the product, the inverse FFT and the scaling, then reduce(j, row)
    on the row it computed, an array nothing else holds, which reduce may
    overwrite; the job keeps only reduce's result, which may be the row
    itself. The jobs are collected in the order they were made, so the
    results come in scale order with no reorder buffer. At most workers
    jobs are made and not yet collected, the calling thread's included, so
    at most workers rows and their kernels are alive at once. An exception
    in a job is raised here once the pool has stopped, and a caller that
    stops iterating (or closes the generator) stops the pool after at most
    workers - 1 more rows. The row bits do not depend on the worker count:
    each row runs the same numpy calls on the same inputs as a serial loop
    would.
    """
    _check_grid(f, w, g)
    x = f.samples
    n = f.n
    dtype = np.complex128 if w.is_complex else np.float64
    fft, ifft = (np.fft.fft, np.fft.ifft) if w.is_complex else \
        (np.fft.rfft, np.fft.irfft)

    def blocks(c, lo, hi, size, step, spectra, scale):
        # block b holds the padded signal's linear entries [b step + edge,
        # (b + 1) step + edge) at its outputs [edge, edge + step), and the
        # row reads the blocks from 0 on
        edge = c.size - 1
        count = (hi - 1 - edge) // step + 1
        spec = fft(c[::-1] * scale, size)
        per = max(1, _CHUNK // step)
        out = np.empty((count, step), dtype)
        for b in range(0, count, per):
            e = min(b + per, count)
            out[b:e] = ifft(spectra[b:e] * spec, size)[:, edge:edge + step]
        return out.reshape(-1)[lo - edge:hi - edge]

    def row(j, lo, hi, size, step, spectra):
        c = _kernel(w, g.scales[j], f.dt, n)[0]
        scale = f.dt / np.sqrt(g.scales[j])
        if step is not None:
            return reduce(j, blocks(c, lo, hi, size, step, spectra, scale))
        # keep the product one expression over the fresh kernel spectrum K:
        # the operand order sets the last bit of each product, and numpy
        # computes spectra * K in place into K, operands swapped, only when
        # K is at least 256 KiB (its temporary-elision threshold); below
        # that the product is spectra . K
        r = ifft(spectra * fft(c[::-1], size), size)[lo:hi]
        return reduce(j, np.multiply(r, scale, out=r))

    workers = min(_cpu_count(), g.n_scales)
    with (ThreadPoolExecutor(workers - 1) if workers > 1 else
          nullcontext()) as pool:
        pending = deque()
        plan, spectra = None, None
        widths = np.broadcast_to(cone, g.n_scales).tolist()
        for j, (a, k) in enumerate(zip(g.scales, widths)):
            m_lo, m_hi = _offsets(w, a, f.dt, n)
            # the bounds that make the rows exact
            assert m_lo <= 0 <= m_hi and 0 <= k < n - k
            size, step = _block_plan(
                m_hi - m_lo + 1,
                _smooth_length(n + max(0, max(m_hi, -m_lo) - k)))
            pad = step if step and k + m_lo < 0 else 0
            if (size, step, pad) != plan:
                plan = size, step, pad
                spectra = fft(x, size) if step is None else \
                    _block_spectra(x, size, step, fft, pad)
            if len(pending) == workers:
                yield pending.popleft().result()
            job = (j, pad + m_hi + k, pad + m_hi + n - k, size, step, spectra)
            if j % workers < workers - 1:
                pending.append(pool.submit(row, *job))
            else:
                done = Future()
                done.set_result(row(*job))
                pending.append(done)
        while pending:
            yield pending.popleft().result()


def cwt_fft(f: TimeSeries, w: Wavelet, g: ScaleGrid) -> CwtMatrix:
    """FFT-accelerated CWT, identical contract to cwt_direct.

    Per scale the spectrum of the signal, whole or in blocks, is multiplied
    by the transfer function of the scaled wavelet (the DFT of the sampled
    kernel), which is the frequency-domain image of the same rectangle-rule
    sum; the module docstring gives the lengths and why they are exact. The
    rows run on the calling thread and one helper thread per further usable
    CPU and come back in scale order; every coefficient has the same bits
    as in a serial loop.
    """
    dtype = np.complex128 if w.is_complex else np.float64
    out = np.empty((g.n_scales, f.n), dtype=dtype)
    for j, row in enumerate(_fft_rows(f, w, g, lambda j, row: row)):
        out[j] = row
    return CwtMatrix(coefficients=out, scales=g.scales.copy(), times=f.time_axis(),
                     cone_of_influence=_cone(f, w, g), dt=f.dt, wavelet=w)


def energy_density(coefficients: np.ndarray, scales) -> np.ndarray:
    """|W|^2 / a, the scalogram's values: a CWT row and its scale, or a
    matrix and its scales as a column."""
    return np.abs(coefficients) ** 2 / scales


def scalogram(c: CwtMatrix) -> Scalogram:
    """Energy density |W|^2 / a per Parseval-style normalization."""
    return Scalogram(values=energy_density(c.coefficients, c.scales[:, None]),
                     scales=c.scales, times=c.times)


def _row_maxima(j: int, row: np.ndarray) -> tuple:
    """Row j's modulus maxima as (time indices, their |W|, the row's
    largest |W|, and for j = 0 a copy of the row's real part, else None)."""
    mag = np.abs(row)
    is_max = np.zeros(mag.size, dtype=bool)
    np.greater(mag[1:-1], mag[:-2], out=is_max[1:-1])
    is_max[1:-1] &= mag[1:-1] >= mag[2:]
    idx = np.flatnonzero(is_max)
    return idx, mag[idx], mag.max(), row.real.copy() if j == 0 else None


def _links(fine: np.ndarray, coarse: np.ndarray, reach: float):
    """Candidate links (head, new) between the maxima of one row, at time
    indices fine, and those of the row one scale up, at coarse.

    Every fine maximum is paired with the at most two coarse maxima that
    flank its time index and lie within reach = a_{j+1}/dt samples of it.
    head indexes fine and new indexes coarse, and the pairs come sorted by
    (offset, coarse time index, fine time index), a strict total order.
    """
    # the right flank is the first coarse maximum at or after the fine one,
    # the left flank the one before it
    right = np.searchsorted(coarse, fine)
    has_left, has_right = right > 0, right < coarse.size
    head = np.concatenate((np.flatnonzero(has_left),
                           np.flatnonzero(has_right)))
    new = np.concatenate((right[has_left] - 1, right[has_right]))
    dist = np.abs(coarse[new] - fine[head])
    near = dist <= reach
    head, new, dist = head[near], new[near], dist[near]
    order = np.lexsort((fine[head], coarse[new], dist))
    return head[order], new[order]


def _match(head: np.ndarray, new: np.ndarray, n_fine: int,
           n_coarse: int) -> np.ndarray:
    """parent[k] = h for the links (h, k) the greedy pass over (head, new)
    takes, and -1 for a coarse point k it links to nothing.

    head indexes n_fine points and new n_coarse others. The greedy pass
    takes the links in array order and skips one whose head or new point
    is already linked. Here each round takes every link left that comes
    first among the links left sharing its head or its new point (it is
    locally dominant), then drops the links left with a linked end. Under
    a strict order this takes exactly the greedy pass's links (Preis
    1999): a locally dominant link meets no earlier link left, and the
    earliest link left is always locally dominant.
    """
    parent = np.full(n_coarse, -1, dtype=np.int64)
    head_used = np.zeros(n_fine, dtype=bool)
    new_used = np.zeros(n_coarse, dtype=bool)
    first_of_head = np.empty(n_fine, dtype=np.int64)
    first_of_new = np.empty(n_coarse, dtype=np.int64)
    # the links left: their ranks and ends
    rank, h, k = np.arange(head.size), head, new
    while rank.size:
        first_of_head[h] = head.size
        first_of_new[k] = head.size
        np.minimum.at(first_of_head, h, rank)
        np.minimum.at(first_of_new, k, rank)
        win = (first_of_head[h] == rank) & (first_of_new[k] == rank)
        parent[k[win]] = h[win]
        head_used[h[win]] = True
        new_used[k[win]] = True
        left = ~(head_used[h] | new_used[k])
        rank, h, k = rank[left], h[left], k[left]
    return parent


def _chain(peaks: list, scales: np.ndarray, times: np.ndarray,
           cone: np.ndarray, dt: float, wavelet: Wavelet) -> MaximaSet:
    """MaximaSet from every row's _row_maxima, in scale order.

    The maxima are chained one pair of adjacent scales at a time. A
    maximum links down only as the new point of the pair below its row and
    up only as the head of the pair above, and _match keeps the used heads
    apart from the used new points: so one greedy pass over every pair's
    links takes exactly the links of a pass over each pair alone.
    """
    time_idx = np.concatenate([p[0] for p in peaks])
    sizes = [p[0].size for p in peaks]
    scale_idx = np.repeat(np.arange(len(peaks)), sizes)
    values = np.concatenate([p[1] for p in peaks])
    row_max = np.array([p[2] for p in peaks])
    finest = peaks[0][3]
    bounds = np.cumsum([0] + sizes)

    # a linked point inherits its parent's line, and a point with no parent
    # opens the next line; a point's host is the line of the new point of
    # its first (nearest) link, or -1 with none
    line_id = np.empty(time_idx.size, dtype=np.int64)
    host = np.full(time_idx.size, -1, dtype=np.int64)
    line_id[:bounds[1]] = np.arange(bounds[1])
    n_lines = bounds[1]
    for j in range(scales.size - 1):
        lo, mid, hi = bounds[j:j + 3]
        head, new = _links(time_idx[lo:mid], time_idx[mid:hi],
                           scales[j + 1] / dt)
        parent = _match(head, new, mid - lo, hi - mid)
        ids, linked = line_id[mid:hi], parent >= 0
        ids[linked] = line_id[lo:mid][parent[linked]]
        opened = np.flatnonzero(~linked)
        ids[opened] = np.arange(n_lines, n_lines + opened.size)
        n_lines += opened.size
        heads, first = np.unique(head, return_index=True)
        host[lo + heads] = ids[new[first]]

    # lines are runs of the points sorted stably by line, fine to coarse
    line_points = np.argsort(line_id, kind="stable")
    line_offsets = np.concatenate(([0], np.cumsum(np.bincount(line_id))))
    line_host = host[line_points[line_offsets[1:] - 1]]
    return MaximaSet(time_idx=time_idx, scale_idx=scale_idx, values=values,
                     line_points=line_points, line_offsets=line_offsets,
                     line_host=line_host, scales=scales, times=times,
                     cone_of_influence=cone, dt=dt, wavelet=wavelet,
                     row_max=row_max, finest=finest)


def modulus_maxima(c: CwtMatrix) -> MaximaSet:
    """Local maxima of |W| along translation, chained across scales.

    A column i is a maximum when |W[j][i]| > |W[j][i-1]| and
    |W[j][i]| >= |W[j][i+1]| (leftmost point of a plateau wins). The points
    come out as flat arrays in (scale, time) order.

    Maxima at adjacent scales are linked nearest-neighbor when their time
    offset is at most a_{j+1}/dt samples. Each maximum at scale j is paired
    with the at most two maxima flanking it at scale j+1; the pairs are
    taken greedily by (offset, coarse time index, fine time index), and a
    pair is skipped when either end is already linked. A maximum's link
    down and its link up lie in different pairs of scales, so each pair of
    scales is matched on its own. Unmatched maxima start new lines,
    unmatched lines terminate. Ridges converge as scale grows, so each
    maximum extends at most one line; a line beaten to its nearest coarse
    maximum ends there, and that maximum's line is its line_host. Lines are
    numbered in the order of their first point. The matrix is read one row
    at a time, so no temporary of its size is made.
    """
    return _chain([_row_maxima(j, row) for j, row in enumerate(c.coefficients)],
                  c.scales, c.times, c.cone_of_influence, c.dt, c.wavelet)


def cwt_maxima(f: TimeSeries, w: Wavelet, g: ScaleGrid,
               consume=None) -> MaximaSet:
    """modulus_maxima(cwt_fft(f, w, g)), streamed.

    Each cwt_fft row is searched for its maxima on the thread that computed
    it, the calling thread or one of cpus - 1 helpers, and then dropped, so
    the scale x time matrix is never held: at most cpus rows and their
    kernels are alive at once, and memory is O(n) per CPU plus the maxima.
    The result is the same to the bit. With consume, each row's job also
    hands back the row, and the calling thread calls consume(j, row) with
    it in scale order while the transform runs; this is how a scalogram
    is written without the matrix.
    """
    peaks = []
    for j, (row, p) in enumerate(_fft_rows(
            f, w, g, lambda j, row: (row if consume else None,
                                     _row_maxima(j, row)))):
        if consume:
            consume(j, row)
        peaks.append(p)
    return _chain(peaks, g.scales.copy(), f.time_axis(), _cone(f, w, g),
                  f.dt, w)
