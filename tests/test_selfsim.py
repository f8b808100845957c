import numpy as np
import pytest

from wavekit import (DegenerateFitError, EstimationConfig, Haar,
                     InvalidSignalError, MexicanHat, Morlet,
                     NoValidSamplesError, OutOfRangeError, ScaleGrid,
                     ScaleTooFineError, TimeSeries, TooFewScalesError,
                     WaveletAutoCovariance, classify_hurst, cwt_direct,
                     cwt_fft, estimation_grid, exponent_relations,
                     fit_power_law, gen_fbm, hurst_from_series, selfsim,
                     support_radius, transform, wavelet_autocovariance,
                     wavelet_variance)
from wavekit.selfsim import require_fit_grid

MEXHAT = MexicanHat()


def _noise_matrix(n=512, seed=0, top_frac=20.0):
    f = TimeSeries(samples=np.random.default_rng(seed).standard_normal(n),
                   dt=1.0 / (n - 1))
    g = ScaleGrid.with_count(2.0 * f.dt, f.n * f.dt / top_frac, 6)
    return f, cwt_fft(f, MEXHAT, g)


# --------------------------------------------------------------- the grid

def test_estimation_grid_spans_two_dt_to_a_twentieth():
    f = TimeSeries(samples=np.zeros(400), dt=0.01)
    g = estimation_grid(f)
    assert g.scales[0] == pytest.approx(2.0 * f.dt)
    assert g.scales[-1] <= f.n * f.dt / 20.0 * (1 + 1e-12)
    assert g.scales[-1] > f.n * f.dt / 20.0 / 2.0 ** 0.125
    ratios = g.scales[1:] / g.scales[:-1]
    assert np.allclose(ratios, 2.0 ** 0.125, rtol=1e-12)


# ------------------------------------------------------ wavelet variance

def test_autocovariance_matches_direct_average():
    f, c = _noise_matrix()
    before = c.coefficients.copy()
    r = wavelet_autocovariance(c)
    # the matrix route squares no view of the matrix in place
    assert np.array_equal(c.coefficients, before)
    n = f.n
    for j in range(c.scales.size):
        cone = int(c.cone_of_influence[j])
        row = c.coefficients[j, cone:n - cone]
        assert r.values[j] == np.mean(np.abs(row) ** 2)
        assert r.counts[j] == n - 2 * cone
    assert r.wavelet == "mexican-hat"
    assert r.n_samples == n and r.dt == f.dt
    assert np.array_equal(r.scales, c.scales)


def test_cone_swallowing_every_sample_is_an_error():
    f = TimeSeries(samples=np.random.default_rng(3).standard_normal(256),
                   dt=1.0)
    g = ScaleGrid.with_count(2.0, 128.0, 8)  # cone radius 8a > n/2 on top
    c = cwt_fft(f, MEXHAT, g)
    with pytest.raises(NoValidSamplesError):
        wavelet_autocovariance(c)


def _assert_same_but_values(got, want):
    assert np.array_equal(got.counts, want.counts)
    assert got.counts.dtype == want.counts.dtype
    assert np.array_equal(got.scales, want.scales)
    assert (got.wavelet, got.n_samples, got.dt) == \
        (want.wavelet, want.n_samples, want.dt)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("w", [MEXHAT, Morlet(), Haar()],
                         ids=lambda w: w.name)
def test_streamed_variance_is_the_matrix_variance(monkeypatch, w, cpus):
    # the streamed rows run at the shorter FFT length smooth(n), so the
    # values agree to roundoff; 301 and 4097 are not 5-smooth (L > n)
    monkeypatch.setattr(transform, "_cpu_count", lambda: cpus)
    for n in (300, 301, 3000, 4096, 4097, 40000):
        f = gen_fbm(hurst=0.6, n=n, seed=2)
        g = estimation_grid(f)
        want = wavelet_autocovariance(cwt_fft(f, w, g))
        got = wavelet_variance(f, w, g)
        assert np.all(np.abs(got.values - want.values)
                      <= 1e-12 * np.abs(want.values)), n
        _assert_same_but_values(got, want)


@pytest.mark.parametrize("w", [MEXHAT, Morlet(), Haar()],
                         ids=lambda w: w.name)
def test_streamed_variance_bits_do_not_depend_on_the_worker_count(
        monkeypatch, w):
    f = gen_fbm(hurst=0.4, n=40000, seed=5)
    g = estimation_grid(f)
    runs = []
    for cpus in (1, 2, 3, 7):
        monkeypatch.setattr(transform, "_cpu_count", lambda: cpus)
        runs.append(wavelet_variance(f, w, g).values)
    for values in runs[1:]:
        assert np.array_equal(values, runs[0])


def _widest_cone_grid(f, w, extra=0):
    """Six scales whose coarsest cone is (n - 1) // 2 + extra samples wide:
    with extra = 0 the widest cone _interior_counts accepts, where the kernel
    spans 2k + 1 samples, all n of them for an odd n."""
    k = (f.n - 1) // 2 + extra
    a_top = (k - 0.5) * f.dt / support_radius(w)
    g = ScaleGrid.with_count(2.0 * f.dt, a_top, 6)
    assert transform._cone(f, w, g)[-1] == k
    return g


@pytest.mark.parametrize("n", [300, 301, 375])
@pytest.mark.parametrize("w", [MEXHAT, Morlet(), Haar()],
                         ids=lambda w: w.name)
def test_streamed_interior_is_the_direct_interior(w, n):
    # 375 is 5-smooth and odd: the coarsest kernel fills all L = n points
    f = TimeSeries(samples=np.random.default_rng(n).standard_normal(n),
                   dt=1.0 / (n - 1))
    g = _widest_cone_grid(f, w)
    cone = transform._cone(f, w, g)
    direct = cwt_direct(f, w, g).coefficients
    rows = list(transform._fft_rows(f, w, g, lambda j, row: row, cone))
    assert len(rows) == g.n_scales
    for j, k in enumerate(cone):
        want = direct[j, k:n - k]
        assert rows[j].shape == want.shape
        assert np.abs(rows[j] - want).max() <= 1e-9 * np.abs(want).max()
    got = wavelet_variance(f, w, g)
    want = wavelet_autocovariance(cwt_direct(f, w, g))
    assert np.all(np.abs(got.values - want.values)
                  <= 1e-12 * np.abs(want.values))
    _assert_same_but_values(got, want)
    assert got.counts[-1] == n - 2 * ((n - 1) // 2)


def _assert_rows_are_the_direct_interior(f, w, g):
    n, cone = f.n, transform._cone(f, w, g)
    direct = cwt_direct(f, w, g)
    rows = list(transform._fft_rows(f, w, g, lambda j, row: row, cone))
    assert len(rows) == g.n_scales
    for j, k in enumerate(cone):
        want = direct.coefficients[j, k:n - k]
        assert rows[j].shape == want.shape and rows[j].dtype == want.dtype
        assert np.abs(rows[j] - want).max() <= 1e-9 * np.abs(want).max()
    got = wavelet_variance(f, w, g)
    want = wavelet_autocovariance(direct)
    assert np.all(np.abs(got.values - want.values)
                  <= 1e-12 * np.abs(want.values))
    _assert_same_but_values(got, want)


@pytest.mark.parametrize("chunk", [1, 1000, transform._CHUNK])
@pytest.mark.parametrize("w", [MEXHAT, Morlet(), Haar()],
                         ids=lambda w: w.name)
def test_block_rows_are_the_direct_interior(monkeypatch, w, chunk):
    # the rows of block length M run in blocks x[b S : b S + M] at the step
    # S = 3M/4 + 1, a chunk of blocks at a time, and the coarse rows as one
    # block; chunk 1 transforms one block per call and 1000 a few
    monkeypatch.setattr(transform, "_CHUNK", chunk)
    n = 5000
    f = TimeSeries(samples=np.random.default_rng(7).standard_normal(n),
                   dt=1.0 / (n - 1))
    g = _widest_cone_grid(f, w)
    g = ScaleGrid.log_spaced(g.a_min, g.a_max, 4.0)
    cone = transform._cone(f, w, g)
    # block rows and one-block rows; block rows of several blocks, whose
    # step does not divide their interior
    whole = transform._smooth_length(n)
    plans = [transform._block_plan(transform._kernel(w, a, f.dt, n)[0].size,
                                   whole) for a in g.scales]
    assert any(step is None for _, step in plans)
    assert any(step is not None and (n - 2 * k) // step >= 3
               and (n - 2 * k) % step for (_, step), k in zip(plans, cone))
    _assert_rows_are_the_direct_interior(f, w, g)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_mean_power_is_the_mean_squared_modulus(dtype):
    rng = np.random.default_rng(11)
    row = rng.standard_normal(1001) * 1e3
    if dtype is np.complex128:
        row = row + 1j * rng.standard_normal(1001)
    assert selfsim._mean_power(0, row.copy()) == np.mean(np.abs(row) ** 2)


@pytest.mark.parametrize("n", [300, 375])
@pytest.mark.parametrize("w", [MEXHAT, Morlet(), Haar()],
                         ids=lambda w: w.name)
def test_one_cone_past_the_widest_is_refused_before_any_fft(
        monkeypatch, w, n):
    def no_rows(*args):
        raise AssertionError("rows were computed")

    f = TimeSeries(samples=np.random.default_rng(n).standard_normal(n),
                   dt=1.0 / (n - 1))
    monkeypatch.setattr(selfsim, "_fft_rows", no_rows)
    g = _widest_cone_grid(f, w, extra=1)
    with pytest.raises(NoValidSamplesError,
                       match=f"scale {g.a_max:.6g} leaves no samples"):
        wavelet_variance(f, w, g)


def test_streamed_variance_refuses_before_any_fft(monkeypatch):
    def no_rows(*args):
        raise AssertionError("rows were computed")

    monkeypatch.setattr(selfsim, "_fft_rows", no_rows)
    f = TimeSeries(samples=np.random.default_rng(3).standard_normal(256),
                   dt=1.0)
    swallowed = ScaleGrid.with_count(2.0, 128.0, 8)
    with pytest.raises(NoValidSamplesError) as streamed:
        wavelet_variance(f, MEXHAT, swallowed)
    with pytest.raises(NoValidSamplesError) as matrix:
        wavelet_autocovariance(cwt_fft(f, MEXHAT, swallowed))
    assert str(streamed.value) == str(matrix.value)
    cone = np.ceil(support_radius(MEXHAT) * swallowed.scales / f.dt)
    first = swallowed.scales[np.argmax(2 * cone >= f.n)]
    assert str(streamed.value).startswith(f"scale {first:.6g} leaves")

    too_fine_too = ScaleGrid.with_count(1.0, 128.0, 8)
    for run in (lambda: wavelet_variance(f, MEXHAT, too_fine_too),
                lambda: wavelet_autocovariance(cwt_fft(f, MEXHAT,
                                                       too_fine_too))):
        with pytest.raises(ScaleTooFineError, match="below 2\\*dt"):
            run()


def test_fit_grid_needs_four_scales():
    require_fit_grid(ScaleGrid.with_count(2.0, 16.0, 4))
    with pytest.raises(TooFewScalesError,
                       match="3 scales cannot support a fit"):
        require_fit_grid(ScaleGrid.with_count(2.0, 16.0, 3))


# --------------------------------------------------------- power-law fit

def _synthetic(beta, prefactor=1.0, n=32):
    scales = np.geomspace(0.01, 1.0, n)
    return WaveletAutoCovariance(scales=scales,
                                 values=prefactor * scales ** beta,
                                 counts=np.full(n, 1000),
                                 wavelet="mexican-hat", n_samples=4096,
                                 dt=0.001)


def test_exact_power_law_is_recovered_exactly():
    est = fit_power_law(_synthetic(2.2, prefactor=3.0),
                        EstimationConfig(fixed_range=(0.01, 1.0)))
    assert est.beta == pytest.approx(2.2, abs=1e-12)
    assert est.log_intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert est.r_squared == pytest.approx(1.0, abs=1e-15)
    assert est.hurst == pytest.approx(0.6, abs=1e-12)
    assert est.dimension == pytest.approx(1.4, abs=1e-12)
    assert est.classification == "persistent"
    assert est.n_scales_used == 32
    assert est.warnings == ()


def test_default_fit_trims_an_octave_off_each_end():
    r = _synthetic(2.0)
    est = fit_power_law(r)
    assert est.scale_range[0] >= 2.0 * r.scales[0] * (1 - 1e-12)
    assert est.scale_range[1] <= r.scales[-1] / 2.0 * (1 + 1e-12)
    assert est.n_scales_used == 22  # 32 minus one octave at each end
    assert est.scale_range == (float(r.scales[5]), float(r.scales[26]))


def test_fixed_range_overrides_the_trim():
    est = fit_power_law(_synthetic(2.0),
                        EstimationConfig(fixed_range=(0.01, 1.0)))
    assert est.n_scales_used == 32


def test_too_narrow_a_range_is_degenerate():
    with pytest.raises(DegenerateFitError, match="need at least 4"):
        fit_power_law(_synthetic(2.0),
                      EstimationConfig(fixed_range=(0.01, 0.015)))


def test_nonpositive_entries_are_skipped_with_a_warning():
    r = _synthetic(2.0)
    values = r.values.copy()
    values[10] = 0.0
    broken = WaveletAutoCovariance(scales=r.scales, values=values,
                                   counts=r.counts, wavelet=r.wavelet,
                                   n_samples=r.n_samples, dt=r.dt)
    est = fit_power_law(broken)
    assert est.n_scales_used == 21
    assert any("skipped 1 nonpositive" in w for w in est.warnings)


def test_beta_outside_the_band_still_fits_but_warns():
    est = fit_power_law(_synthetic(3.5))
    assert est.beta == pytest.approx(3.5, abs=1e-12)
    assert est.hurst == pytest.approx(1.25, abs=1e-12)
    assert any("outside the self-affine band" in w for w in est.warnings)


# ----------------------------------------------------------- the readout

@pytest.mark.parametrize("hurst, label", [
    (0.50, "brownian"),
    (0.549, "brownian"),
    (0.551, "persistent"),
    (0.451, "brownian"),
    (0.449, "antipersistent"),
    (0.9, "persistent"),
    (0.1, "antipersistent"),
])
def test_classify_hurst_band(hurst, label):
    assert classify_hurst(hurst) == label


def test_exponent_relations_values():
    beta, dim = exponent_relations(0.25)
    assert beta == 1.5 and dim == 1.75
    beta, dim = exponent_relations(0.5)
    assert beta == 2.0 and dim == 1.5


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, float("nan")])
def test_exponent_relations_domain(bad):
    with pytest.raises(OutOfRangeError):
        exponent_relations(bad)


# ----------------------------------------------------------- end to end

def test_hurst_from_series_on_persistent_motion():
    est = hurst_from_series(gen_fbm(hurst=0.8, n=4096, seed=0))
    assert 0.6 < est.hurst < 1.0
    assert est.r_squared > 0.9
    assert est.classification == "persistent"


def test_hurst_from_series_needs_enough_scales():
    f = gen_fbm(hurst=0.5, n=512, seed=1)
    g = ScaleGrid.with_count(2.0 * f.dt, 4.0 * f.dt, 3)
    with pytest.raises(TooFewScalesError):
        hurst_from_series(f, grid=g)


@pytest.mark.parametrize("n", [200, 255])
def test_hurst_from_series_refuses_short_records(n):
    with pytest.raises(InvalidSignalError,
                       match=f"estimate needs at least 256 samples, got {n}"):
        hurst_from_series(gen_fbm(hurst=0.7, n=n, seed=1))


def test_hurst_from_series_fits_256_samples():
    est = hurst_from_series(gen_fbm(hurst=0.7, n=256, seed=1))
    assert est.n_scales_used >= 4
