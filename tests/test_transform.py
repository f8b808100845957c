"""Transform-layer checks: the two CWT routes against each other and against
adaptive quadrature of the defining integral, plus grid, cone, scalogram and
modulus-maxima behaviour."""

import inspect
import itertools
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wavekit import (CwtMatrix, Haar, MexicanHat, Morlet, ScaleGrid,
                     ScaleTooFineError, TimeSeries, cwt_direct, cwt_fft,
                     cwt_maxima, gen_chirp_jump, modulus_maxima, scalogram,
                     support_radius, wavelet_variance)
from wavekit import transform
from wavekit.transform import (_check_grid, _fft_rows, _kernel, _links, _match,
                               _smooth_length)

WAVELETS = [MexicanHat(), Morlet(), Haar()]


def _noise(n, seed, dt=None):
    rng = np.random.default_rng(seed)
    return TimeSeries(samples=rng.standard_normal(n),
                      dt=dt if dt is not None else 1.0 / (n - 1))


# -------------------------------------------------------------- scale grids

def test_log_spaced_grid_geometry():
    g = ScaleGrid.log_spaced(0.01, 0.08, 4.0)
    assert g.n_scales == 13  # 3 octaves at 4 voices, endpoints inclusive
    assert g.a_min == 0.01
    assert g.a_max == pytest.approx(0.08)
    ratios = g.scales[1:] / g.scales[:-1]
    assert np.allclose(ratios, 2.0 ** 0.25, rtol=1e-12)


def test_with_count_grid():
    g = ScaleGrid.with_count(0.5, 2.0, 9)
    assert g.n_scales == 9
    assert g.scales[0] == 0.5 and g.scales[-1] == pytest.approx(2.0)
    assert ScaleGrid.with_count(0.5, 2.0, 1).scales.tolist() == [0.5]


def test_default_grid_spans_2dt_to_quarter_record():
    f = _noise(1024, 0)
    g = ScaleGrid.default_for(f)
    assert g.a_min == pytest.approx(2.0 * f.dt)
    assert g.a_max <= f.n * f.dt / 4.0 * (1 + 1e-12)
    assert g.a_max >= f.n * f.dt / 4.0 / 2.0 ** (1.0 / 8.0)


@pytest.mark.parametrize("args", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
def test_grid_rejects_bad_range(args):
    with pytest.raises(ValueError):
        ScaleGrid.log_spaced(*args)
    with pytest.raises(ValueError):
        ScaleGrid.with_count(*args, 8)


def test_grid_rejects_unsorted_scales():
    with pytest.raises(ValueError):
        ScaleGrid(scales=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        ScaleGrid(scales=np.array([1.0, np.nan]))


def test_transform_refuses_subsample_scales():
    f = _noise(64, 1)
    g = ScaleGrid(scales=np.array([f.dt]))
    with pytest.raises(ScaleTooFineError):
        cwt_fft(f, MexicanHat(), g)
    with pytest.raises(ScaleTooFineError):
        cwt_direct(f, MexicanHat(), g)


@pytest.mark.parametrize("w", WAVELETS)
def test_transform_refuses_a_reach_past_float64(w):
    """a_max * support / dt past float64 is refused on every CWT route
    before any sample count is taken from it."""
    f = _noise(64, 1, dt=0.5)
    reach = sys.float_info.max / support_radius(w)
    g = ScaleGrid(scales=np.array([2.0, reach]))
    for route in (cwt_fft, cwt_direct, cwt_maxima, wavelet_variance):
        with pytest.raises(ValueError, match="more than float64 holds"):
            route(f, w, g)
    fine = ScaleGrid(scales=np.array([2.0, reach / 4.0]))
    _check_grid(f, w, fine)


@dataclass(frozen=True)
class _ShiftedHaar:
    """The Haar wavelet moved to the support (shift, shift + 1)."""

    shift: float
    name = "shifted-haar"
    is_complex = False

    @property
    def support(self):
        return (self.shift, self.shift + 1.0)

    def psi(self, t):
        return Haar().psi(np.asarray(t) - self.shift)


@pytest.mark.parametrize("shift", [4.0, -5.0])
def test_transform_refuses_a_support_without_zero(monkeypatch, shift):
    """A support that does not contain 0 is refused on every CWT route
    before any kernel is sampled."""
    def no_kernel(*args):
        raise AssertionError("a kernel was sampled")

    monkeypatch.setattr(transform, "_kernel", no_kernel)
    f = _noise(5000, 1, dt=1.0)
    w = _ShiftedHaar(shift)
    g = ScaleGrid(scales=np.array([2.0, 4.0]))
    for route in (cwt_fft, cwt_direct, cwt_maxima, wavelet_variance):
        with pytest.raises(ValueError, match=re.escape(
                f"wavelet support ({shift:g}, {shift + 1:g}) must contain 0")):
            route(f, w, g)
    for edge in (-1.0, 0.0):
        _check_grid(f, _ShiftedHaar(edge), g)


# ------------------------------------------------------ rows on a pool

def _serial_cwt_fft(f, w, g):
    """The one-thread cwt_fft loop, kept as the bit reference for the pool.

    Row j runs as one block, the whole signal at L = smooth(n + reach),
    when M, the smallest power of two >= 4K, reaches L; otherwise it runs
    in blocks of M samples at the step S = 3M/4 + 1 of the signal with P
    zeros on its left, P = S if m_lo < 0 else 0, one FFT per block, over
    the blocks that hold its linear entries P + m_hi .. P + m_hi + n - 1.
    """
    _check_grid(f, w, g)
    x = f.samples
    n = f.n
    dtype = np.complex128 if w.is_complex else np.float64
    fft, ifft = (np.fft.fft, np.fft.ifft) if w.is_complex else \
        (np.fft.rfft, np.fft.irfft)
    out = np.empty((g.n_scales, n), dtype=dtype)
    for j, a in enumerate(g.scales):
        c, m_lo, m_hi = _kernel(w, a, f.dt, n)
        scale = f.dt / np.sqrt(a)
        length = _smooth_length(n + max(m_hi, -m_lo))
        size = 1 << (4 * c.size - 1).bit_length()
        if size >= length:
            # a named signal spectrum times the fresh kernel spectrum, as in
            # the pool: the operand order sets the last bit of a product
            x_spec = fft(x, length)
            row = ifft(x_spec * fft(c[::-1], length), length)
            out[j] = row[m_hi:m_hi + n] * scale
            continue
        step, edge = 3 * size // 4 + 1, c.size - 1
        pad = step if m_lo < 0 else 0
        y = np.concatenate((np.zeros(pad), x, np.zeros(size)))
        spec = fft(c[::-1] * scale, size)
        # block b gives the linear entries [b step + edge, (b + 1) step + edge)
        first = (pad + m_hi - edge) // step
        last = (pad + m_hi + n - 1 - edge) // step + 1
        row = np.concatenate([
            ifft(fft(y[b * step:b * step + size]) * spec,
                 size)[edge:edge + step] for b in range(first, last)])
        lo = pad + m_hi - edge - first * step
        out[j] = row[lo:lo + n]
    return out


def _row_plan(f, w, a):
    """_block_plan of the whole row at scale a: (M, S), or (L, None)."""
    c, m_lo, m_hi = _kernel(w, a, f.dt, f.n)
    return transform._block_plan(
        c.size, _smooth_length(f.n + max(m_hi, -m_lo)))


def _new_plan_at_every_scale(f, w):
    """A grid whose row plan, so its signal spectra, changes from each
    scale to the next."""
    scales, last = [], None
    for a in np.geomspace(2.0 * f.dt, f.n * f.dt, 2000):
        plan = _row_plan(f, w, a)
        if plan != last:
            scales.append(a)
            last = plan
    return ScaleGrid(scales=np.array(scales))


class _CountingPool(ThreadPoolExecutor):
    """Records its size and the most rows it ever ran at once."""

    made = []

    def __init__(self, workers):
        super().__init__(workers)
        self.workers, self.running, self.peak = workers, 0, 0
        self._lock = threading.Lock()
        _CountingPool.made.append(self)

    def submit(self, fn, *args):
        with self._lock:
            self.running += 1
            self.peak = max(self.peak, self.running)

        def run():
            try:
                return fn(*args)
            finally:
                with self._lock:
                    self.running -= 1

        return super().submit(run)


@pytest.fixture(params=[1, 2, 3, 7], ids=lambda k: f"cpus{k}")
def cpus(request, monkeypatch):
    monkeypatch.setattr(transform, "_cpu_count", lambda: request.param)
    monkeypatch.setattr(transform, "ThreadPoolExecutor", _CountingPool)
    _CountingPool.made.clear()
    return request.param


def _assert_pool_bounds(cpus, n_scales):
    (pool,) = _CountingPool.made
    assert pool.workers == min(cpus, n_scales)
    assert 1 <= pool.peak <= pool.workers


@pytest.mark.parametrize("n", [2, 3, 17, 300, 2000])
@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
def test_pooled_rows_are_the_serial_bits(w, n, cpus):
    f = _noise(n, n)
    g = ScaleGrid.log_spaced(2.0 * f.dt, n * f.dt, 8.0)
    got = cwt_fft(f, w, g).coefficients
    assert np.array_equal(got, _serial_cwt_fft(f, w, g))
    _assert_pool_bounds(cpus, g.n_scales)


@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
def test_pooled_rows_are_the_serial_bits_on_long_spectra(w, cpus):
    """Spectra of 256 KiB and more, which numpy multiplies in place: the
    coarse rows run as one block of more than 2^15 samples."""
    f = _noise(40000, 6)
    g = ScaleGrid.log_spaced(2.0 * f.dt, f.n * f.dt / 4.0, 1.0)
    plans = [_row_plan(f, w, a) for a in g.scales]
    assert any(step is None and size >= 1 << 15 for size, step in plans)
    assert any(step is not None for _, step in plans)
    assert np.array_equal(cwt_fft(f, w, g).coefficients,
                          _serial_cwt_fft(f, w, g))
    _assert_pool_bounds(cpus, g.n_scales)


@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
def test_pooled_rows_match_when_the_fft_length_changes_every_scale(w, cpus):
    f = _noise(300, 5)
    g = _new_plan_at_every_scale(f, w)
    plans = [_row_plan(f, w, a) for a in g.scales]
    assert g.n_scales >= 10 and len(set(plans)) == g.n_scales
    assert any(step is None for _, step in plans)
    assert any(step is not None for _, step in plans)
    assert np.array_equal(cwt_fft(f, w, g).coefficients,
                          _serial_cwt_fft(f, w, g))
    _assert_pool_bounds(cpus, g.n_scales)


@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
def test_consumed_rows_come_in_scale_order_on_the_calling_thread(w, cpus):
    f = _noise(2000, 7)
    g = ScaleGrid.log_spaced(2.0 * f.dt, f.n * f.dt / 4.0, 8.0)
    # each worker reduces its own row; the results reach the caller in
    # scale order, on the thread that iterates
    got = []
    for j, worker, row in _fft_rows(
            f, w, g, lambda j, row: (j, threading.get_ident(), row)):
        got.append((j, threading.get_ident(), worker, row))
    assert [j for j, _, _, _ in got] == list(range(g.n_scales))
    assert {t for _, t, _, _ in got} == {threading.get_ident()}
    assert threading.get_ident() not in {t for _, _, t, _ in got}
    assert np.array_equal(np.array([row for _, _, _, row in got]),
                          _serial_cwt_fft(f, w, g))
    _assert_pool_bounds(cpus, g.n_scales)


class _TracedHat(MexicanHat):
    """A Mexican hat that records which threads sample it."""

    def __init__(self, threads, fail_at=None):
        object.__setattr__(self, "threads", threads)
        object.__setattr__(self, "fail_at", fail_at)

    def psi(self, t):
        self.threads.add(threading.get_ident())
        if self.fail_at is not None and np.size(t) >= self.fail_at:
            raise RuntimeError("kernel failed")
        return super().psi(t)


def _pool_grid(f, cone):
    """The pool tests' grid up to a quarter of the record and width 0, or
    with cone the variance's grid up to a twentieth and its cone widths:
    every cone is then narrower than n / 2, and the rows run in blocks at
    the fine scales and as one block at the coarse ones."""
    if not cone:
        return ScaleGrid.log_spaced(2.0 * f.dt, f.n * f.dt / 4.0, 8.0), 0
    g = ScaleGrid.log_spaced(2.0 * f.dt, f.n * f.dt / 20.0, 8.0)
    steps = [step for _, step in _block_plans(f, MexicanHat(), g)]
    assert steps[0] is not None and steps[-1] is None
    return g, transform._cone(f, MexicanHat(), g)


def _block_plans(f, w, g):
    """_block_plan of every row of the variance of f on g."""
    whole = _smooth_length(f.n)
    return [transform._block_plan(_kernel(w, a, f.dt, f.n)[0].size, whole)
            for a in g.scales]


def _assert_kernels_sampled_in_the_calling_thread(cone):
    threads = set()
    f = _noise(2000, 3)
    g, widths = _pool_grid(f, cone)
    reduced = list(_fft_rows(f, _TracedHat(threads), g,
                             lambda j, row: threading.get_ident(), widths))
    assert threads == {threading.get_ident()}
    assert len(reduced) == g.n_scales


def test_kernels_are_sampled_in_the_calling_thread(cpus):
    _assert_kernels_sampled_in_the_calling_thread(cone=False)


def test_variance_kernels_are_sampled_in_the_calling_thread(cpus):
    _assert_kernels_sampled_in_the_calling_thread(cone=True)


def test_variance_rows_are_the_one_worker_bits(cpus, monkeypatch):
    f = _noise(2000, 8)
    g, widths = _pool_grid(f, cone=True)
    got = list(_fft_rows(f, MexicanHat(), g, lambda j, row: row, widths))
    _assert_pool_bounds(cpus, g.n_scales)
    monkeypatch.setattr(transform, "_cpu_count", lambda: 1)
    want = list(_fft_rows(f, MexicanHat(), g, lambda j, row: row, widths))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert [a.size for a in got] == [f.n - 2 * k for k in widths]


def _fail_in_row(bad):
    def reduce(j, row):
        if j == bad:
            raise RuntimeError(f"row {bad} failed")
    return reduce


@pytest.mark.parametrize("where", ["first row", "last row", "kernel",
                                   "consumer", "first row, cone",
                                   "last block row, cone", "last row, cone",
                                   "kernel, cone"])
def test_failures_reach_the_caller_and_stop_the_pool(cpus, where):
    before = set(threading.enumerate())
    f = _noise(2000, 4)
    g, widths = _pool_grid(f, cone=where.endswith(", cone"))
    bad = 0 if where.startswith("first row") else g.n_scales - 1
    if where.startswith("last block row"):
        steps = [step for _, step in _block_plans(f, MexicanHat(), g)]
        bad = steps.index(None) - 1
    w, reduce, message = MexicanHat(), _fail_in_row(bad), f"row {bad} failed"
    if where.startswith("kernel"):
        w, reduce, message = _TracedHat(set(), fail_at=100), \
            lambda j, row: None, "kernel failed"
    with pytest.raises(RuntimeError, match=message):
        if where == "consumer":
            cwt_maxima(f, w, g, _fail_in_row(bad))
        else:
            list(_fft_rows(f, w, g, reduce, widths))
    assert not [t for t in threading.enumerate()
                if t not in before and t.is_alive()]


class _CountedHat(MexicanHat):
    """A Mexican hat that counts its kernels, sampled one per row."""

    def __init__(self):
        object.__setattr__(self, "kernels", 0)

    def psi(self, t):
        object.__setattr__(self, "kernels", self.kernels + 1)
        return super().psi(t)


@pytest.mark.parametrize("stop", ["break", "consumer", "break, cone"])
def test_a_caller_that_stops_early_stops_the_pool(cpus, stop):
    before = set(threading.enumerate())
    f = _noise(2000, 4)
    g, widths = _pool_grid(f, cone=stop.endswith(", cone"))
    w, last = _CountedHat(), 5
    if stop.startswith("break"):
        for j, _ in enumerate(_fft_rows(f, w, g, lambda j, row: None,
                                        widths)):
            if j == last:
                break
    else:
        with pytest.raises(RuntimeError, match=f"row {last} failed"):
            cwt_maxima(f, w, g, _fail_in_row(last))
    assert not [t for t in threading.enumerate()
                if t not in before and t.is_alive()]
    # the calling thread sampled kernels for rows 0 .. last, which reached
    # it, and for at most one more row per worker
    assert g.n_scales > last + 1 + cpus
    assert last + 1 <= w.kernels <= last + 1 + cpus


# ------------------------------------------------- agreement and the oracle

@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
def test_fft_matches_direct(w):
    f = _noise(256, 7)
    g = ScaleGrid.with_count(2.0 * f.dt, f.n * f.dt / 4.0, 16)
    cf = cwt_fft(f, w, g)
    cd = cwt_direct(f, w, g)
    assert cf.coefficients.dtype == cd.coefficients.dtype
    for j in range(g.n_scales):
        m = cf.interior_mask(j)
        if not m.any():
            continue
        err = np.abs(cf.coefficients[j, m] - cd.coefficients[j, m]).max()
        assert err < 1e-9 * max(np.abs(cd.coefficients[j, m]).max(), 1e-30)


@pytest.mark.parametrize("n", [2, 3, 17, 257, 300, 1000])
@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
def test_fft_matches_direct_over_whole_rows(w, n):
    """Cone of influence included, on grids up to a = n dt, where the
    wavelet's support reaches past both ends of the record and the kernel
    offsets are clipped to the record length."""
    f = _noise(n, n)
    g = ScaleGrid.log_spaced(2.0 * f.dt, n * f.dt, 4.0)
    cf = cwt_fft(f, w, g).coefficients
    cd = cwt_direct(f, w, g).coefficients
    for j in range(g.n_scales):
        scale = np.abs(cd[j]).max()
        assert np.abs(cf[j] - cd[j]).max() <= 1e-9 * scale
    if n <= 300:
        # the defining sum over every sample, with no kernel support at all
        k = np.arange(n)
        for j, a in enumerate(g.scales):
            t = (k[None, :] - k[:, None]) * f.dt / a
            ref = (np.conj(w.psi(t)) @ f.samples) * (f.dt / np.sqrt(a))
            assert np.abs(cf[j] - ref).max() <= 1e-9 * np.abs(ref).max()


def test_smooth_length_is_the_next_5_smooth_number():
    smooth = sorted({2 ** i * 3 ** j * 5 ** k for i in range(14)
                     for j in range(9) for k in range(6)})
    for m in range(1, 5001):
        got = _smooth_length(m)
        rest = got
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        assert rest == 1 and got >= m
        assert got == smooth[np.searchsorted(smooth, m)]


@pytest.mark.parametrize("n", [300, 4096, 5000, 65537])
def test_block_plan(n):
    whole = _smooth_length(n)
    steps, m = {}, 1
    for size in range(1, n + 1):
        while m < 4 * size:
            m *= 2
        length, step = transform._block_plan(size, whole)
        # one block, the whole record at smooth(n), exactly when the
        # smallest power of two at least four kernels long would reach it
        assert (step is None) == (m >= whole)
        assert length == min(m, whole)
        if step is None:
            continue
        # every row of one length shares its step, so its block spectra,
        # and the step keeps each block's valid outputs contiguous
        assert steps.setdefault(length, step) == step
        assert step <= length - size + 1
    assert sorted(steps) == [1 << i for i in range(2, whole.bit_length())
                             if 1 << i < whole]
    # the plan reads the kernel length and smooth(n), and nothing else
    assert list(inspect.signature(transform._block_plan).parameters) == \
        ["size", "whole"]


@pytest.mark.parametrize("chunk", [1, 1000, transform._CHUNK])
@pytest.mark.parametrize("n", [17, 1000, 5000])
@pytest.mark.parametrize("fft", [np.fft.rfft, np.fft.fft],
                         ids=["rfft", "fft"])
def test_block_spectra_are_the_padded_blocks_in_chunks(
        monkeypatch, fft, n, chunk):
    monkeypatch.setattr(transform, "_CHUNK", chunk)
    x = _noise(n, n).samples
    for size, padded_left in itertools.product((4, 16, 256), (False, True)):
        if size >= n:
            continue
        step = 3 * size // 4 + 1
        # the blocks of x with no zeros or step zeros on its left
        pad = step if padded_left else 0
        count = (n + pad - 1) // step + 1
        padded = np.zeros((count - 1) * step + size)
        padded[pad:pad + n] = x
        want = [fft(padded[b * step:b * step + size]) for b in range(count)]
        spectra = transform._block_spectra(x, size, step, fft, pad)
        # equal chunks of at most max(1, chunk // step) blocks, the last
        # one no longer than the others
        per = spectra[0].shape[0]
        assert per <= max(1, chunk // step)
        assert all(s.shape[0] == per for s in spectra[:-1])
        assert 1 <= spectra[-1].shape[0] <= per
        assert len(spectra) == -(-count // max(1, chunk // step))
        got = np.concatenate(spectra)
        assert got.shape == (count, len(want[0]))
        assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
def test_kernel_is_the_conjugated_wavelet(w):
    a, dt, n = 3.7, 0.5, 100
    c, m_lo, m_hi = _kernel(w, a, dt, n)
    psi = w.psi(np.arange(m_lo, m_hi + 1) * dt / a)
    assert c.dtype == psi.dtype
    assert np.array_equal(c, np.conj(psi))


def _quadrature_oracle(w, samples_of, b, a, lo, hi, singular_at=None):
    pts = [singular_at] if singular_at is not None else None
    kernel = lambda t: samples_of(t) * np.conj(w.psi((t - b) / a))
    re = quad(lambda t: float(np.real(kernel(t))), lo, hi,
              points=pts, limit=400)[0]
    im = quad(lambda t: float(np.imag(kernel(t))), lo, hi,
              points=pts, limit=400)[0]
    return complex(re, im) / np.sqrt(a)


def _transform_at(w, values, x, b_target, a):
    f = TimeSeries(samples=values, dt=x[1] - x[0])
    g = ScaleGrid(scales=np.array([a]))
    i0 = int(np.argmin(np.abs(x - b_target)))
    return complex(cwt_direct(f, w, g).coefficients[0, i0]), float(x[i0])


def test_step_response_matches_quadrature():
    """Unit step, read on the right flank where the response peaks.

    The discrete sum is a rectangle rule, so halving dt must drive it
    toward the continuous integral (zero extension outside [0, 1])."""
    w = MexicanHat()
    a = 0.125
    rel = {}
    for n in (1024, 4096):
        x = np.linspace(0.0, 1.0, n)
        got, b = _transform_at(w, (x >= 0.5).astype(float), x, 0.5 + a, a)
        oracle = _quadrature_oracle(w, lambda t: 1.0 * (t >= 0.5), b, a,
                                    0.5, 1.0)
        rel[n] = abs(got - oracle) / abs(oracle)
    assert rel[1024] < 2e-3
    assert rel[4096] < rel[1024] / 2.0


def test_cusp_response_matches_quadrature():
    w = MexicanHat()
    a = 0.03125
    rel = {}
    for n in (1024, 4096):
        x = np.linspace(0.0, 1.0, n)
        got, b = _transform_at(w, np.abs(x - 0.5) ** 0.3, x, 0.5, a)
        oracle = _quadrature_oracle(w, lambda t: np.abs(t - 0.5) ** 0.3,
                                    b, a, b - 8 * a, b + 8 * a,
                                    singular_at=0.5)
        rel[n] = abs(got - oracle) / abs(oracle)
    assert rel[1024] < 5e-3
    assert rel[4096] < rel[1024] / 2.0


def test_complex_wavelet_step_matches_quadrature():
    w = Morlet()
    a = 0.125
    x = np.linspace(0.0, 1.0, 1024)
    got, b = _transform_at(w, (x >= 0.5).astype(float), x, 0.5, a)
    oracle = _quadrature_oracle(w, lambda t: 1.0 * (t >= 0.5), b, a, 0.5, 1.0)
    assert abs(got - oracle) / abs(oracle) < 1e-3


# ------------------------------------------------------------- properties

@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 31), alpha=st.floats(-4.0, 4.0),
       beta=st.floats(-4.0, 4.0))
def test_transform_is_linear(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    y1, y2 = rng.standard_normal(128), rng.standard_normal(128)
    dt = 1.0 / 127
    g = ScaleGrid.log_spaced(2 * dt, 16 * dt, 4.0)
    w = MexicanHat()
    mixed = cwt_fft(TimeSeries(samples=alpha * y1 + beta * y2, dt=dt), w, g)
    c1 = cwt_fft(TimeSeries(samples=y1, dt=dt), w, g)
    c2 = cwt_fft(TimeSeries(samples=y2, dt=dt), w, g)
    assert np.allclose(mixed.coefficients,
                       alpha * c1.coefficients + beta * c2.coefficients,
                       rtol=0.0, atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 31), k=st.integers(1, 24))
def test_translation_covariance(seed, k):
    """Shifting the input by k samples shifts the response by k columns,
    exactly, wherever neither window touches the boundary."""
    rng = np.random.default_rng(seed)
    n = 512
    y = rng.standard_normal(n)
    dt = 1.0 / (n - 1)
    g = ScaleGrid.log_spaced(2 * dt, 8 * dt, 4.0)
    shifted = np.concatenate([np.zeros(k), y[:n - k]])
    for w in (MexicanHat(), Haar()):
        c1 = cwt_direct(TimeSeries(samples=y, dt=dt), w, g).coefficients
        c2 = cwt_direct(TimeSeries(samples=shifted, dt=dt), w, g).coefficients
        guard = int(np.ceil(support_radius(w) * g.a_max / dt))
        cols = np.arange(k + guard, n - guard)
        assert np.array_equal(c2[:, cols], c1[:, cols - k])


def test_constant_signal_is_annihilated():
    n = 512
    dt = 1.0 / (n - 1)
    flat = TimeSeries(samples=np.full(n, 3.7), dt=dt)
    for w, scales in ((MexicanHat(), [2 * dt, 5.37 * dt, 16 * dt]),
                      (Morlet(), [2 * dt, 5.37 * dt, 16 * dt]),
                      (Haar(), [2 * dt, 4 * dt, 16 * dt])):
        c = cwt_direct(flat, w, ScaleGrid(scales=np.array(scales)))
        for j in range(len(scales)):
            m = c.interior_mask(j)
            assert np.abs(c.coefficients[j, m]).max() < 1e-8


def test_zero_signal_gives_zero():
    f = TimeSeries(samples=np.zeros(64), dt=0.1)
    c = cwt_fft(f, MexicanHat(), ScaleGrid.default_for(f))
    assert np.all(c.coefficients == 0.0)


# ------------------------------------------------------- cone and scalogram

@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
def test_cone_of_influence_widths(w):
    f = _noise(256, 2)
    g = ScaleGrid.log_spaced(2 * f.dt, 32 * f.dt, 2.0)
    c = cwt_fft(f, w, g)
    expect = np.ceil(support_radius(w) * g.scales / f.dt).astype(np.int64)
    assert np.array_equal(c.cone_of_influence, expect)
    m = c.interior_mask(0)
    assert not m[:expect[0]].any() and not m[-expect[0]:].any()
    assert m[expect[0]:f.n - expect[0]].all()


@pytest.mark.parametrize("dt", [1.0, 0.1, 1.0 / 299.0, 3e-7],
                         ids=lambda dt: f"dt{dt:.3g}")
@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
def test_kernel_reach_stays_inside_the_cone(w, dt):
    # the wavelet variance's FFT length smooth(n) is exact only because no
    # kernel offset reaches past its cone: max(m_hi, -m_lo) <= k
    rng = np.random.default_rng(int(1 / dt) % 1000)
    for n in (2, 3, 17, 300, 1000):
        f = TimeSeries(samples=np.zeros(n), dt=dt)
        scales = np.sort(np.concatenate((
            rng.uniform(2 * dt, 2 * n * dt, 200),
            np.arange(1, 2 * n + 1) * dt / support_radius(w))))
        g = ScaleGrid(scales=scales[scales >= 2 * dt])
        cone = transform._cone(f, w, g)
        for a, k in zip(g.scales, cone):
            _, m_lo, m_hi = _kernel(w, a, dt, n)
            assert max(m_hi, -m_lo) <= k, (n, a)


def test_interior_mask_empty_when_cone_swallows_row():
    f = _noise(64, 3)
    g = ScaleGrid(scales=np.array([8.0 * f.dt]))
    c = cwt_fft(f, MexicanHat(), g)  # cone 64 each side
    assert not c.interior_mask(0).any()


def test_scalogram_is_power_over_scale():
    f = _noise(128, 4)
    c = cwt_fft(f, Morlet(), ScaleGrid.default_for(f))
    s = scalogram(c)
    assert s.values.shape == c.coefficients.shape
    assert np.array_equal(
        s.values, np.abs(c.coefficients) ** 2 / c.scales[:, None])
    assert np.all(s.values >= 0.0)


# --------------------------------------------------------- modulus maxima

def _toy_matrix(rows, dt=1.0):
    rows = np.asarray(rows, dtype=np.float64)
    scales = 2.0 ** np.arange(rows.shape[0]) * 2.0 * dt
    return CwtMatrix(coefficients=rows, scales=scales,
                     times=dt * np.arange(rows.shape[1]),
                     cone_of_influence=np.zeros(rows.shape[0], np.int64),
                     dt=dt, wavelet=MexicanHat())


def test_maxima_are_strict_left_loose_right():
    c = _toy_matrix([[0.0, 1.0, 1.0, 0.5, 2.0, 0.0]])
    m = modulus_maxima(c)
    # plateau keeps its leftmost sample; the boundary samples never qualify
    assert m.time_idx.tolist() == [1, 4]
    assert m.values.tolist() == [1.0, 2.0]


def test_maxima_match_definition_on_random_field():
    f = _noise(512, 5)
    c = cwt_fft(f, MexicanHat(), ScaleGrid.default_for(f))
    m = modulus_maxima(c)
    mag = np.abs(c.coefficients)
    flagged = set(zip(m.scale_idx.tolist(), m.time_idx.tolist()))
    for j in range(c.n_scales):
        row = mag[j]
        expect = {i for i in range(1, row.size - 1)
                  if row[i] > row[i - 1] and row[i] >= row[i + 1]}
        assert {i for jj, i in flagged if jj == j} == expect


def _lines(m):
    """Each line's point indices, fine to coarse, in line order."""
    off = m.line_offsets.tolist()
    return [m.line_points[lo:hi] for lo, hi in zip(off[:-1], off[1:])]


def test_lines_are_contiguous_and_within_tolerance():
    f = _noise(512, 8)
    c = cwt_fft(f, MexicanHat(), ScaleGrid.default_for(f))
    m = modulus_maxima(c)
    assert m.line_offsets[0] == 0 and m.line_offsets[-1] == m.n_points
    assert np.all(np.diff(m.line_offsets) >= 1)
    assert np.array_equal(np.sort(m.line_points), np.arange(m.n_points))
    for pts in _lines(m):
        assert np.all(np.diff(m.scale_idx[pts]) == 1)
        drift = np.abs(np.diff(m.time_idx[pts].astype(np.int64)))
        tol = c.scales[m.scale_idx[pts][1:]] / c.dt
        assert np.all(drift <= tol)


def test_isolated_singularity_owns_a_long_line():
    x = np.linspace(0.0, 1.0, 1024)
    f = TimeSeries(samples=-np.abs(x - 0.5) ** 0.4, dt=x[1] - x[0])
    c = cwt_fft(f, MexicanHat(), ScaleGrid.default_for(f))
    m = modulus_maxima(c)
    at_half = [pts for pts in _lines(m)
               if abs(c.times[m.time_idx[pts[0]]] - 0.5) < 0.01]
    assert at_half
    assert max(np.log2(c.scales[m.scale_idx[pts[-1]]] /
                       c.scales[m.scale_idx[pts[0]]])
               for pts in at_half) > 4.0


def _reference_maxima(c):
    """The per-scale loop modulus_maxima replaced, kept as its oracle.

    Returns the flat (time_idx, scale_idx, values) arrays and each line's
    flat point indices, in the order the loop created the lines.
    """
    mag = np.abs(c.coefficients)
    n_scales, n = mag.shape
    per_scale = []
    for j in range(n_scales):
        row = mag[j]
        is_max = np.zeros(n, dtype=bool)
        is_max[1:-1] = (row[1:-1] > row[:-2]) & (row[1:-1] >= row[2:])
        idx = np.nonzero(is_max)[0]
        per_scale.append((idx, row[idx]))
    time_idx = np.concatenate([p[0] for p in per_scale])
    scale_idx = np.concatenate([np.full(p[0].size, j, dtype=np.int64)
                                for j, p in enumerate(per_scale)])
    values = np.concatenate([p[1] for p in per_scale])
    offsets = np.cumsum([0] + [p[0].size for p in per_scale])

    lines = []
    line_of_head = {}
    for j in range(n_scales):
        idx = per_scale[j][0]
        matched = {}
        if j > 0 and line_of_head:
            tol = c.scales[j] / c.dt
            cand = []
            for h in sorted(line_of_head):
                pos = np.searchsorted(idx, h)
                for k in (pos - 1, pos):
                    if 0 <= k < idx.size:
                        d = abs(int(idx[k]) - int(h))
                        if d <= tol:
                            cand.append((d, int(idx[k]), int(h)))
            cand.sort()
            used_heads = set()
            for d, i_new, h in cand:
                if i_new in matched or h in used_heads:
                    continue
                matched[i_new] = line_of_head[h]
                used_heads.add(h)
        new_heads = {}
        for k in range(idx.size):
            i = int(idx[k])
            if i in matched:
                line_id = matched[i]
                lines[line_id].append(int(offsets[j] + k))
            else:
                line_id = len(lines)
                lines.append([int(offsets[j] + k)])
            new_heads[i] = line_id
        line_of_head = new_heads
    return time_idx, scale_idx, values, lines


def _greedy_parent(head, new, n_fine, n_coarse):
    """The one-by-one greedy pass _match replaced, kept as its oracle."""
    parent = np.full(n_coarse, -1, dtype=np.int64)
    new_taken = bytearray(n_coarse)
    head_taken = bytearray(n_fine)
    for k, h in zip(new.tolist(), head.tolist()):
        if new_taken[k] or head_taken[h]:
            continue
        new_taken[k] = head_taken[h] = 1
        parent[k] = h
    return parent


def _reference_hosts(c, time_idx, scale_idx, lines):
    """Each line's host by brute force: the line holding the nearest maximum
    one scale above the line's last point, within a_{j+1}/dt samples, the
    earlier one on a tie; -1 when there is none."""
    line_of = {}
    for li, pts in enumerate(lines):
        line_of.update((p, li) for p in pts)
    on_scale = [np.flatnonzero(scale_idx == j) for j in range(c.n_scales)]
    hosts = []
    for pts in lines:
        j, i = scale_idx[pts[-1]], time_idx[pts[-1]]
        if j + 1 == c.n_scales:
            hosts.append(-1)
            continue
        q = on_scale[j + 1]
        d = np.abs(time_idx[q] - i)
        near = d <= c.scales[j + 1] / c.dt
        q, d = q[near], d[near]
        # nearest first, then the earlier time
        hosts.append(line_of[int(q[np.lexsort((time_idx[q], d))[0]])]
                     if q.size else -1)
    return hosts


def _assert_matches_reference(c):
    m = modulus_maxima(c)
    time_idx, scale_idx, values, lines = _reference_maxima(c)
    parent = np.full(time_idx.size, -1, dtype=np.int64)
    for pts in lines:
        parent[pts[1:]] = pts[:-1]
    assert np.array_equal(m.time_idx, time_idx)
    assert np.array_equal(m.scale_idx, scale_idx)
    assert np.array_equal(m.values, values)
    assert m.n_lines == len(lines)
    assert [pts.tolist() for pts in _lines(m)] == lines
    assert m.line_host.dtype == np.int64
    assert m.line_host.tolist() == _reference_hosts(c, time_idx, scale_idx,
                                                    lines)
    # the matching rounds link, one pair of scales at a time, exactly what
    # the loops link: every point's parent lies one scale below it
    bounds = np.searchsorted(scale_idx, np.arange(c.n_scales + 1))
    for j in range(c.n_scales - 1):
        lo, mid, hi = bounds[j:j + 3]
        head, new = _links(time_idx[lo:mid], time_idx[mid:hi],
                           c.scales[j + 1] / c.dt)
        want = np.where(parent[mid:hi] >= 0, parent[mid:hi] - lo, -1)
        assert np.array_equal(_match(head, new, mid - lo, hi - mid), want)
        assert np.array_equal(_greedy_parent(head, new, mid - lo, hi - mid),
                              want)
    mag = np.abs(c.coefficients)
    assert np.array_equal(m.row_max, mag.max(axis=1))
    assert np.array_equal(m.finest, c.coefficients[0].real)
    return m


@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
@pytest.mark.parametrize("n", [17, 300, 2000])
def test_maxima_match_the_loop_reference_on_noise(w, n):
    f = _noise(n, n)
    c = cwt_fft(f, w, ScaleGrid.log_spaced(2.0 * f.dt, n * f.dt / 2.0, 8.0))
    _assert_matches_reference(c)


def test_maxima_match_the_loop_reference_at_realistic_density():
    # a noisy chirp with a jump on the analysis default grid: about 52 000
    # maxima, about 590 per scale, in about 4 200 lines
    f = gen_chirp_jump(16384, sigma=0.3, seed=1)
    c = cwt_fft(f, MexicanHat(), ScaleGrid.default_for(f))
    assert _assert_matches_reference(c).n_points > 50000


@pytest.mark.parametrize("seed", range(6))
def test_maxima_match_the_loop_reference_on_plateaus_and_ties(seed):
    # small integer moduli: plateaus everywhere and many equal-distance
    # candidate links; slowly growing scales keep the link tolerance tight
    rng = np.random.default_rng(seed)
    n_scales, n = 12, 64
    rows = rng.integers(0, 4, size=(n_scales, n)).astype(np.float64)
    c = CwtMatrix(coefficients=rows,
                  scales=np.geomspace(1.0, 6.0, n_scales),
                  times=np.arange(n, dtype=np.float64),
                  cone_of_influence=np.zeros(n_scales, np.int64),
                  dt=1.0, wavelet=MexicanHat())
    _assert_matches_reference(c)


def test_maxima_tie_breaks_follow_offset_then_coarse_then_fine_index():
    # scale 1: the maxima at 3 and 7 are both 2 samples from 5, and the
    # lower fine index wins; scale 2: 3 and 7 are both 2 samples from 5,
    # and the lower coarse index wins
    c = _toy_matrix([[0, 0, 0, 1, 0, 0, 0, 1, 0, 0],
                     [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
                     [0, 0, 0, 1, 0, 0, 0, 1, 0, 0]])
    m = _assert_matches_reference(c)
    assert [m.time_idx[pts].tolist() for pts in _lines(m)] == \
        [[3, 5, 3], [7], [7]]
    # the line ending at fine index 7 merged into line 0 at coarse index 5
    assert m.line_host.tolist() == [-1, 0, -1]


@pytest.mark.parametrize("rows", [
    [[0.0, 1.0, 0.0, 2.0, 1.0]],                  # a single scale
    [[0.0, 1.0], [1.0, 0.0]],                     # n = 2: no interior column
    [[0.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 1.0]],  # n = 3
    # a row with no maxima between rows with some: first, in the middle,
    # and both
    [[0, 1, 2, 3, 4, 5], [0, 2, 0, 1, 0, 0], [1, 0, 0, 1, 0, 0]],
    [[0, 1, 0, 0, 2, 0], [5, 4, 3, 2, 1, 0], [0, 0, 1, 0, 2, 0]],
    [[0, 0, 0, 0, 0, 0], [0, 3, 0, 1, 1, 0], [1, 1, 1, 1, 1, 1],
     [0, 1, 0, 0, 1, 0]],
])
def test_maxima_match_the_loop_reference_on_tiny_matrices(rows):
    _assert_matches_reference(_toy_matrix(rows))


def test_matrix_without_maxima_has_no_lines():
    c = _toy_matrix([np.arange(8.0), np.zeros(8)])
    m = _assert_matches_reference(c)
    assert m.n_points == 0
    assert m.n_lines == 0
    assert m.line_points.size == 0 and m.line_host.size == 0


@pytest.mark.parametrize("seed", range(20))
def test_matching_rounds_equal_the_greedy_pass_on_dense_conflicts(seed):
    # few points and many links: long chains of conflicts that take the
    # rounds several passes to resolve, repeated pairs included
    rng = np.random.default_rng(seed)
    n_fine, n_coarse = rng.integers(1, 30, 2)
    n_links = int(rng.integers(0, 200))
    head = rng.integers(0, n_fine, n_links)
    new = rng.integers(0, n_coarse, n_links)
    assert np.array_equal(_match(head, new, n_fine, n_coarse),
                          _greedy_parent(head, new, n_fine, n_coarse))


def test_matching_takes_a_cascade_link_by_link():
    # link r shares its new point with link r - 1 and its head with link
    # r + 1, so each round takes only the earliest link left
    head = np.array([0, 1, 1, 2, 2, 3])
    new = np.array([0, 0, 1, 1, 2, 2])
    assert np.array_equal(_match(head, new, 4, 3),
                          _greedy_parent(head, new, 4, 3))
    assert _match(head, new, 4, 3).tolist() == [0, 1, 2]


def test_chaining_at_64k_stays_within_20_mb():
    # 210 934 maxima: int64 links built over every scale at once took the
    # chaining to 21.6 MB; one pair of scales at a time, flat arrays
    # included, it takes about 10.5 MB
    f = gen_chirp_jump(65536, sigma=0.3, seed=1)
    w, g = MexicanHat(), ScaleGrid.default_for(f)
    peaks = list(_fft_rows(f, w, g, transform._row_maxima))
    assert sum(p[0].size for p in peaks) > 200000
    times, cone = f.time_axis(), transform._cone(f, w, g)
    tracemalloc.start()
    try:
        transform._chain(peaks, g.scales, times, cone, f.dt, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


# ------------------------------------------- streamed maxima (cwt_maxima)

@pytest.mark.parametrize("n", [2, 3, 17, 300, 2000, 40000])
@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
def test_streamed_maxima_are_the_matrix_route_bits(w, n, cpus):
    f = _noise(n, n)
    top = 16.0 if n == 40000 else n
    g = ScaleGrid.log_spaced(2.0 * f.dt, top * f.dt, 2.0 if n == 40000 else 8.0)
    c = _serial_cwt_fft(f, w, g)
    matrix = CwtMatrix(coefficients=c, scales=g.scales, times=f.time_axis(),
                       cone_of_influence=transform._cone(f, w, g), dt=f.dt,
                       wavelet=w)
    _CountingPool.made.clear()
    want = modulus_maxima(matrix)
    rows = []
    got = cwt_maxima(f, w, g, lambda j, row: rows.append(row))
    _assert_pool_bounds(cpus, g.n_scales)
    # the rows a consumer sees are the matrix's rows, in scale order
    assert np.array_equal(np.array(rows), c)
    for name in ("time_idx", "scale_idx", "values", "line_points",
                 "line_offsets", "line_host", "scales", "times",
                 "cone_of_influence", "row_max", "finest"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.dt == want.dt and got.wavelet == want.wavelet
    assert np.array_equal(want.row_max, np.abs(c).max(axis=1))
    assert np.array_equal(want.finest, c[0].real)


def test_streamed_maxima_survive_thread_switches_in_every_row(monkeypatch):
    # seven workers on 97 rows with a switch interval of 1 us: the workers
    # reduce rows out of order and interleaved, and none may be lost
    monkeypatch.setattr(transform, "_cpu_count", lambda: 7)
    f = _noise(3000, 11)
    g = ScaleGrid.log_spaced(2.0 * f.dt, 8.0 * f.dt, 48.0)
    want = modulus_maxima(cwt_fft(f, MexicanHat(), g))
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = cwt_maxima(f, MexicanHat(), g)
    finally:
        sys.setswitchinterval(before)
    assert g.n_scales == 97
    for name in ("time_idx", "scale_idx", "values", "line_points",
                 "line_offsets", "line_host", "row_max", "finest"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_streamed_maxima_check_their_arguments_before_any_fft():
    f = _noise(64, 1)
    with pytest.raises(ScaleTooFineError):
        cwt_maxima(f, MexicanHat(), ScaleGrid.log_spaced(f.dt, 8 * f.dt))
