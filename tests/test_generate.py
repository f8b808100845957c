import tracemalloc
import warnings

import numpy as np
import pytest

from wavekit import (AffineMap, IfsModel, InvalidHurstError,
                     InvalidModelError, InvalidSignalError, NoiseSpec,
                     TimeSeries, add_noise, barnsley_tree_model, chaos_game,
                     gen_chirp_jump, gen_eq11, gen_fbm, generate)
from wavekit.generate import _fgn_covariance


# ------------------------------------------------------------ test signals

@pytest.mark.parametrize("maker", [gen_eq11, gen_chirp_jump])
def test_signal_grid_and_determinism(maker):
    f = maker(1024)
    assert f.n == 1024 and f.t0 == 0.0
    assert f.dt == pytest.approx(1.0 / 1023)
    assert np.array_equal(f.samples, maker(1024).samples)
    g = maker(1024, sigma=0.3, seed=5)
    assert np.array_equal(g.samples, maker(1024, sigma=0.3, seed=5).samples)
    assert not np.array_equal(g.samples, maker(1024, sigma=0.3, seed=6).samples)


@pytest.mark.parametrize("maker", [gen_eq11, gen_chirp_jump])
def test_noise_is_additive_with_requested_level(maker):
    clean = maker(4096).samples
    noisy = maker(4096, sigma=0.25, seed=11).samples
    resid = noisy - clean
    assert abs(resid.mean()) < 0.02
    assert resid.std() == pytest.approx(0.25, rel=0.1)


@pytest.mark.parametrize("maker", [gen_eq11, gen_chirp_jump])
def test_noise_requires_seed_and_sane_sigma(maker):
    with pytest.raises(InvalidSignalError):
        maker(64, sigma=0.1)
    with pytest.raises(InvalidSignalError):
        maker(64, sigma=-0.1, seed=1)
    with pytest.raises(InvalidSignalError):
        maker(1)


def test_eq11_features_sit_at_their_locations():
    f = gen_eq11(4096)
    jumps = np.abs(np.diff(f.samples))
    order = np.argsort(jumps)[::-1]
    # sharpest increment at the step, next sharpest at the cusp
    assert abs(order[0] / 4095.0 - 0.7) < 0.002
    assert jumps[order[0]] == pytest.approx(1.0, abs=0.1)  # step height 1
    second = next(i for i in order if abs(i - order[0]) > 16)
    assert abs(second / 4095.0 - 0.4) < 0.002


def test_chirp_jump_features():
    f = gen_chirp_jump(4096)
    x = f.time_axis()
    jumps = np.abs(np.diff(f.samples))
    top = int(np.argmax(jumps))
    assert abs(x[top] - 0.5) < 0.002
    assert jumps[top] == pytest.approx(3.0, abs=0.2)
    # symmetric second difference at the cusp cancels the chirp's slope,
    # leaving -2 * 5 |h|^0.4 plus an O(h^2) curvature term
    i6 = int(np.argmin(np.abs(x - 0.6)))
    for m in (4, 16):
        h = m * f.dt
        dd = f.samples[i6 + m] + f.samples[i6 - m] - 2.0 * f.samples[i6]
        assert dd == pytest.approx(-10.0 * h ** 0.4, rel=0.1)


# ----------------------------------------------------------------- fBm

def test_fbm_shape_and_determinism():
    f = gen_fbm(hurst=0.6, n=512, seed=9, dt=0.5)
    assert f.n == 512 and f.dt == 0.5
    assert np.array_equal(f.samples, gen_fbm(hurst=0.6, n=512, seed=9,
                                             dt=0.5).samples)
    assert not np.array_equal(f.samples,
                              gen_fbm(hurst=0.6, n=512, seed=10, dt=0.5).samples)


@pytest.mark.parametrize("hurst", [0.0, 1.0, -0.2, 1.3, np.nan])
def test_fbm_rejects_bad_hurst(hurst):
    with pytest.raises(InvalidHurstError):
        gen_fbm(hurst=hurst, n=64, seed=0)


def test_fbm_rejects_bad_grid(monkeypatch):
    with pytest.raises(InvalidSignalError):
        gen_fbm(hurst=0.5, n=1, seed=0)
    # refused before any synthesis starts
    monkeypatch.setattr(generate, "_fgn_covariance", None)
    for dt in (0.0, np.inf, np.nan):
        with pytest.raises(InvalidSignalError, match="dt must be"):
            gen_fbm(hurst=0.5, n=64, seed=0, dt=dt)


def _reference_gen_fbm(hurst, n, seed, dt=1.0):
    """The allocate-per-step synthesis gen_fbm replaced, kept as its bit
    reference; returns the samples."""
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
    return np.cumsum(fgn) * dt ** hurst


# at n = 10007 and 65537, 2n has a large prime factor, which pocketfft
# transforms by Bluestein's algorithm, not by its mixed-radix plan
_FBM_CASES = [(n, hurst, 1.0)
              for n in (2, 3, 17, 256, 1000, 4096, 10007, 65536, 65537, 262144)
              for hurst in (0.1, 0.5, 0.7, 0.95)]
_FBM_CASES += [(4096, hurst, 0.5) for hurst in (0.1, 0.5, 0.7, 0.95)]


@pytest.mark.parametrize("n, hurst, dt", _FBM_CASES)
def test_fbm_bytes_match_the_reference(n, hurst, dt):
    """Same bits as the reference, and the same warning exactly when the
    embedding needs its negative eigenvalues clipped (H = 0.95 here)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        want = _reference_gen_fbm(hurst, n, seed=7, dt=dt)
    if caught:
        with pytest.warns(RuntimeWarning, match="not nonnegative-definite"):
            f = gen_fbm(hurst=hurst, n=n, seed=7, dt=dt)
    else:
        f = gen_fbm(hurst=hurst, n=n, seed=7, dt=dt)
    assert f.samples.tobytes() == want.tobytes()
    assert bool(caught) == (hurst == 0.95)


def test_fbm_working_memory_per_sample():
    """Peak traced memory, the result included, stays at most 100 bytes per
    sample (the reference traces about 180)."""
    n = 2 ** 16
    tracemalloc.start()
    try:
        gen_fbm(hurst=0.7, n=n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 100


def test_fbm_increment_statistics():
    """Pooled over 100 seeds: increment variance grows like lag^(2H) and
    the lag-1 increment correlation sits at 2^(2H-1) - 1."""
    hurst, n, lags = 0.7, 256, (1, 2, 4, 8, 16)
    series = [gen_fbm(hurst=hurst, n=n, seed=s).samples for s in range(100)]
    var = [np.concatenate([b[m:] - b[:-m] for b in series]).var()
           for m in lags]
    slope = np.polyfit(np.log(lags), np.log(var), 1)[0]
    assert slope / 2.0 == pytest.approx(hurst, abs=0.08)
    assert var[0] == pytest.approx(1.0, abs=0.1)  # unit-variance increments

    num = den = 0.0
    for b in series:
        d = np.diff(b)
        num += float(np.dot(d[1:], d[:-1]))
        den += float(np.dot(d, d))
    assert num / den == pytest.approx(2.0 ** (2 * hurst - 1) - 1, abs=0.05)


def test_brownian_increments_are_uncorrelated():
    series = [gen_fbm(hurst=0.5, n=256, seed=s).samples for s in range(50)]
    num = den = 0.0
    for b in series:
        d = np.diff(b)
        num += float(np.dot(d[1:], d[:-1]))
        den += float(np.dot(d, d))
    assert abs(num / den) < 0.03


# ------------------------------------------------------------- chaos game

def test_affine_map_apply():
    assert AffineMap(2.0, 0.0, 0.0, 3.0, 1.0, -1.0).apply(1.0, 1.0) == (3.0, 2.0)
    assert AffineMap(0.0, 1.0, 1.0, 0.0, 0.0, 0.0).apply(2.0, 5.0) == (5.0, 2.0)


def test_ifs_model_validation():
    ok = AffineMap(0.5, 0.0, 0.0, 0.5, 0.0, 0.0)
    with pytest.raises(InvalidModelError):
        IfsModel(maps=(), probabilities=())
    with pytest.raises(InvalidModelError):
        IfsModel(maps=(ok,), probabilities=(0.5, 0.5))
    with pytest.raises(InvalidModelError):
        IfsModel(maps=(ok, ok), probabilities=(0.7, 0.2))
    with pytest.raises(InvalidModelError):
        IfsModel(maps=(ok, ok), probabilities=(1.2, -0.2))


def test_barnsley_model_is_contractive():
    m = barnsley_tree_model()
    assert len(m.maps) == 4
    assert m.probabilities == (0.01, 0.85, 0.07, 0.07)
    assert abs(sum(m.probabilities) - 1.0) < 1e-15
    for mp in m.maps:
        assert abs(mp.a * mp.d - mp.b * mp.c) < 1.0


def test_chaos_game_bookkeeping():
    m = barnsley_tree_model()
    cloud = chaos_game(m, n=5000, seed=3)
    assert cloud.points.shape == (5000, 2)
    assert cloud.map_counts.sum() == 5000
    assert cloud.seed == 3 and cloud.burn_in == 100
    assert np.isfinite(cloud.points).all()
    assert np.abs(cloud.points).max() < 50.0


def test_chaos_game_burn_in_drops_a_prefix():
    m = barnsley_tree_model()
    full = chaos_game(m, n=1100, seed=12, burn_in=0)
    tail = chaos_game(m, n=1000, seed=12, burn_in=100)
    assert np.array_equal(full.points[100:], tail.points)


def _reference_chaos_game(m, n, seed, burn_in=100):
    """The per-step numpy-store loop chaos_game replaced; its points."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cum = np.cumsum(np.asarray(m.probabilities, dtype=np.float64))
    idx = np.searchsorted(cum, rng.random(burn_in + n), side="right")
    idx = np.minimum(idx, len(m.maps) - 1)
    pts = np.empty((n, 2), dtype=np.float64)
    x = y = 0.0
    for step in range(burn_in + n):
        x, y = m.maps[idx[step]].apply(x, y)
        if step >= burn_in:
            pts[step - burn_in] = x, y
    return pts


@pytest.mark.parametrize("n, seed, burn_in", [(1, 2, 0), (5000, 3, 0),
                                              (20000, 1, 100)])
def test_chaos_game_matches_the_reference_loop(n, seed, burn_in):
    m = barnsley_tree_model()
    cloud = chaos_game(m, n=n, seed=seed, burn_in=burn_in)
    want = _reference_chaos_game(m, n, seed, burn_in)
    assert cloud.points.shape == (n, 2) and cloud.points.dtype == np.float64
    assert cloud.points.tobytes() == want.tobytes()


def test_chaos_game_rejects_bad_counts():
    m = barnsley_tree_model()
    with pytest.raises(InvalidModelError):
        chaos_game(m, n=0, seed=1)
    with pytest.raises(InvalidModelError):
        chaos_game(m, n=10, seed=1, burn_in=-1)


# ---------------------------------------------------------------- noise

def test_add_noise_zero_sigma_copies():
    f = TimeSeries(samples=[1.0, 2.0, 3.0], dt=1.0)
    g = add_noise(f, NoiseSpec(sigma=0.0, seed=1))
    assert np.array_equal(g.samples, f.samples)
    assert g.samples is not f.samples


def test_add_noise_is_seeded_and_leaves_input_alone():
    f = TimeSeries(samples=np.zeros(4096), dt=1.0)
    a = add_noise(f, NoiseSpec(sigma=2.0, seed=7))
    b = add_noise(f, NoiseSpec(sigma=2.0, seed=7))
    assert np.array_equal(a.samples, b.samples)
    assert np.all(f.samples == 0.0)
    assert a.samples.std() == pytest.approx(2.0, rel=0.1)


def test_noise_spec_rejects_negative_sigma():
    with pytest.raises(InvalidSignalError):
        NoiseSpec(sigma=-1.0, seed=0)
    with pytest.raises(InvalidSignalError):
        NoiseSpec(sigma=np.inf, seed=0)


def test_noise_spec_needs_a_seed_only_to_draw():
    f = TimeSeries(samples=[1.0, 2.0, 3.0], dt=1.0)
    assert np.array_equal(add_noise(f, NoiseSpec(sigma=0.0, seed=None)).samples,
                          f.samples)
    with pytest.raises(InvalidSignalError, match="seed is required"):
        NoiseSpec(sigma=0.5, seed=None)
