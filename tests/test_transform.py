"""Transform-layer checks: the two CWT routes against each other and against
adaptive quadrature of the defining integral, plus grid, cone, scalogram and
modulus-maxima behaviour."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wavekit import (CwtMatrix, Haar, MexicanHat, Morlet, ScaleGrid,
                     ScaleTooFineError, TimeSeries, cwt_direct, cwt_fft,
                     modulus_maxima, scalogram, support_radius)
from wavekit import transform
from wavekit.transform import _check_grid, _fft_rows, _kernel, _smooth_length

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
    assert g.voices_per_octave == pytest.approx(4.0)
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
        ScaleGrid(scales=np.array([1.0, 0.5]), voices_per_octave=1.0)
    with pytest.raises(ValueError):
        ScaleGrid(scales=np.array([1.0, np.nan]), voices_per_octave=1.0)


def test_transform_refuses_subsample_scales():
    f = _noise(64, 1)
    g = ScaleGrid(scales=np.array([f.dt]), voices_per_octave=1.0)
    with pytest.raises(ScaleTooFineError):
        cwt_fft(f, MexicanHat(), g)
    with pytest.raises(ScaleTooFineError):
        cwt_direct(f, MexicanHat(), g)


# ------------------------------------------------------ rows on a pool

def _serial_cwt_fft(f, w, g):
    """The one-thread cwt_fft loop, kept as the bit reference for the pool."""
    _check_grid(f, g)
    x = f.samples
    n = f.n
    dtype = np.complex128 if w.is_complex else np.float64
    fft, ifft = (np.fft.fft, np.fft.ifft) if w.is_complex else \
        (np.fft.rfft, np.fft.irfft)
    out = np.empty((g.n_scales, n), dtype=dtype)
    size, x_spec = 0, None
    for j, a in enumerate(g.scales):
        c, m_lo, m_hi = _kernel(w, a, f.dt, n)
        length = _smooth_length(n + max(m_hi, -m_lo))
        if length != size:
            size = length
            x_spec = fft(x, size)
        row = ifft(x_spec * fft(c[::-1], size), size)
        out[j] = row[m_hi:m_hi + n] * (f.dt / np.sqrt(a))
    return out


def _padded_length(f, w, a):
    _, m_lo, m_hi = _kernel(w, a, f.dt, f.n)
    return _smooth_length(f.n + max(m_hi, -m_lo))


def _new_length_at_every_scale(f, w):
    """A grid whose padded FFT length changes from each scale to the next."""
    scales, last = [], 0
    for a in np.geomspace(2.0 * f.dt, f.n * f.dt, 2000):
        length = _padded_length(f, w, a)
        if length != last:
            scales.append(a)
            last = length
    return ScaleGrid(scales=np.array(scales), voices_per_octave=1.0)


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
    """Spectra of 256 KiB and more, which numpy multiplies in place."""
    f = _noise(40000, 6)
    g = ScaleGrid.log_spaced(2.0 * f.dt, 16.0 * f.dt, 2.0)
    assert np.array_equal(cwt_fft(f, w, g).coefficients,
                          _serial_cwt_fft(f, w, g))
    _assert_pool_bounds(cpus, g.n_scales)


@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
def test_pooled_rows_match_when_the_fft_length_changes_every_scale(w, cpus):
    f = _noise(300, 5)
    g = _new_length_at_every_scale(f, w)
    lengths = [_padded_length(f, w, a) for a in g.scales]
    assert g.n_scales >= 10 and len(set(lengths)) == g.n_scales
    assert np.array_equal(cwt_fft(f, w, g).coefficients,
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


def test_kernels_are_sampled_in_the_calling_thread(cpus):
    threads, emitted = set(), []
    f = _noise(2000, 3)
    g = ScaleGrid.log_spaced(2.0 * f.dt, f.n * f.dt / 4.0, 8.0)
    _fft_rows(f, _TracedHat(threads), g,
              lambda j, row: emitted.append(threading.get_ident()))
    assert threads == {threading.get_ident()}
    assert len(emitted) == g.n_scales


def _fail_in_row(bad):
    def emit(j, row):
        if j == bad:
            raise RuntimeError(f"row {bad} failed")
    return emit


@pytest.mark.parametrize("where", ["first row", "last row", "kernel"])
def test_failures_reach_the_caller_and_stop_the_pool(cpus, where):
    before = set(threading.enumerate())
    f = _noise(2000, 4)
    g = ScaleGrid.log_spaced(2.0 * f.dt, f.n * f.dt / 4.0, 8.0)
    bad = 0 if where == "first row" else g.n_scales - 1
    w, emit, message = MexicanHat(), _fail_in_row(bad), f"row {bad} failed"
    if where == "kernel":
        w, emit, message = _TracedHat(set(), fail_at=100), \
            lambda j, row: None, "kernel failed"
    with pytest.raises(RuntimeError, match=message):
        _fft_rows(f, w, g, emit)
    assert not [t for t in threading.enumerate()
                if t not in before and t.is_alive()]


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
    g = ScaleGrid(scales=np.array([a]), voices_per_octave=1.0)
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
        c = cwt_direct(flat, w, ScaleGrid(scales=np.array(scales),
                                          voices_per_octave=1.0))
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


def test_interior_mask_empty_when_cone_swallows_row():
    f = _noise(64, 3)
    g = ScaleGrid(scales=np.array([8.0 * f.dt]), voices_per_octave=1.0)
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


def test_amplitude_floor_prunes_points():
    f = _noise(256, 6)
    c = cwt_fft(f, MexicanHat(), ScaleGrid.default_for(f))
    full = modulus_maxima(c)
    pruned = modulus_maxima(c, min_amplitude_fraction=0.5)
    assert pruned.n_points < full.n_points
    mag = np.abs(c.coefficients)
    for j, i, v in zip(pruned.scale_idx, pruned.time_idx, pruned.values):
        assert v >= 0.5 * mag[j].max()
    with pytest.raises(ValueError):
        modulus_maxima(c, min_amplitude_fraction=1.5)


def test_lines_are_contiguous_and_within_tolerance():
    f = _noise(512, 8)
    c = cwt_fft(f, MexicanHat(), ScaleGrid.default_for(f))
    m = modulus_maxima(c)
    assert sum(ln.point_indices.size for ln in m.lines) == m.n_points
    seen = set()
    for ln in m.lines:
        assert np.all(np.diff(ln.scale_idx) == 1)
        for p, j, i, v in zip(ln.point_indices, ln.scale_idx, ln.time_idx,
                              ln.values):
            assert m.scale_idx[p] == j and m.time_idx[p] == i
            assert m.values[p] == v
            assert p not in seen
            seen.add(p)
        drift = np.abs(np.diff(ln.time_idx.astype(np.int64)))
        tol = c.scales[ln.scale_idx[1:]] / c.dt
        assert np.all(drift <= tol)


def test_isolated_singularity_owns_a_long_line():
    x = np.linspace(0.0, 1.0, 1024)
    f = TimeSeries(samples=-np.abs(x - 0.5) ** 0.4, dt=x[1] - x[0])
    c = cwt_fft(f, MexicanHat(), ScaleGrid.default_for(f))
    m = modulus_maxima(c)
    at_half = [ln for ln in m.lines
               if abs(c.times[ln.time_idx[0]] - 0.5) < 0.01]
    assert at_half
    assert max(ln.span_octaves(c.scales) for ln in at_half) > 4.0


def _reference_maxima(c, min_amplitude_fraction=0.0):
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
        if min_amplitude_fraction > 0.0:
            is_max &= row >= min_amplitude_fraction * row.max()
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


def _assert_matches_reference(c, min_amplitude_fraction=0.0):
    m = modulus_maxima(c, min_amplitude_fraction)
    time_idx, scale_idx, values, lines = _reference_maxima(
        c, min_amplitude_fraction)
    line_id = np.empty(time_idx.size, dtype=np.int64)
    for li, pts in enumerate(lines):
        line_id[pts] = li
    assert np.array_equal(m.time_idx, time_idx)
    assert np.array_equal(m.scale_idx, scale_idx)
    assert np.array_equal(m.values, values)
    assert np.array_equal(m.line_id, line_id)
    assert len(m.lines) == len(lines)
    for ln, pts in zip(m.lines, lines):
        assert ln.point_indices.tolist() == pts
        assert np.array_equal(ln.scale_idx, scale_idx[pts])
        assert np.array_equal(ln.time_idx, time_idx[pts])
        assert np.array_equal(ln.values, values[pts])
    return m


@pytest.mark.parametrize("w", WAVELETS, ids=lambda w: w.name)
@pytest.mark.parametrize("n", [17, 300, 2000])
def test_maxima_match_the_loop_reference_on_noise(w, n):
    f = _noise(n, n)
    c = cwt_fft(f, w, ScaleGrid.log_spaced(2.0 * f.dt, n * f.dt / 2.0, 8.0))
    for fraction in (0.0, 0.3):
        _assert_matches_reference(c, fraction)


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
    for fraction in (0.0, 0.3, 1.0):
        _assert_matches_reference(c, fraction)


def test_maxima_tie_breaks_follow_offset_then_coarse_then_fine_index():
    # scale 1: the maxima at 3 and 7 are both 2 samples from 5, and the
    # lower fine index wins; scale 2: 3 and 7 are both 2 samples from 5,
    # and the lower coarse index wins
    c = _toy_matrix([[0, 0, 0, 1, 0, 0, 0, 1, 0, 0],
                     [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
                     [0, 0, 0, 1, 0, 0, 0, 1, 0, 0]])
    m = _assert_matches_reference(c)
    assert [ln.time_idx.tolist() for ln in m.lines] == [[3, 5, 3], [7], [7]]
    assert m.line_id.tolist() == [0, 1, 0, 0, 2]


@pytest.mark.parametrize("rows", [
    [[0.0, 1.0, 0.0, 2.0, 1.0]],                  # a single scale
    [[0.0, 1.0], [1.0, 0.0]],                     # n = 2: no interior column
    [[0.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 1.0]],  # n = 3
])
def test_maxima_match_the_loop_reference_on_tiny_matrices(rows):
    _assert_matches_reference(_toy_matrix(rows))
    _assert_matches_reference(_toy_matrix(rows), 0.6)


def test_matrix_without_maxima_has_no_lines():
    c = _toy_matrix([np.arange(8.0), np.zeros(8)])
    m = _assert_matches_reference(c)
    assert m.n_points == 0
    assert m.lines == ()
    assert m.line_id.size == 0
