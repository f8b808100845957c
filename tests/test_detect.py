import numpy as np
import pytest

from wavekit import (DetectionConfig, LineTooShortError, MexicanHat,
                     ScaleGrid, TimeSeries, TooFewScalesError, cwt_fft,
                     detect_singularities, estimate_cusp_exponent,
                     gen_chirp_jump, gen_eq11, modulus_maxima)
from wavekit.detect import _DUST, _significant_span, detect_from_maxima

MEXHAT = MexicanHat()


def _locations(report):
    return [round(e.location, 3) for e in report.events]


# ------------------------------------------------------- exponent readout

def _cusp_matrix(alpha=0.3, n=2048):
    x = np.linspace(0.0, 1.0, n)
    f = TimeSeries(samples=-4.0 * np.abs(x - 0.5) ** alpha, dt=x[1])
    g = ScaleGrid.log_spaced(2.0 * f.dt, 0.25 * f.n * f.dt)
    return cwt_fft(f, MEXHAT, g)


def _ridge_through(c, b):
    lines = modulus_maxima(c).lines
    near = [ln for ln in lines
            if abs(np.median(c.times[ln.time_idx]) - b) < 0.02]
    return max(near, key=lambda ln: ln.span_octaves(c.scales))


def test_cusp_exponent_from_clean_ridge():
    c = _cusp_matrix(alpha=0.3)
    line = _ridge_through(c, 0.5)
    assert line.span_octaves(c.scales) > 4.0
    assert estimate_cusp_exponent(c, line) == pytest.approx(0.3, abs=0.08)


def test_exponent_tracks_the_singularity_order():
    c_soft = _cusp_matrix(alpha=0.7)
    c_hard = _cusp_matrix(alpha=0.2)
    soft = estimate_cusp_exponent(c_soft, _ridge_through(c_soft, 0.5))
    hard = estimate_cusp_exponent(c_hard, _ridge_through(c_hard, 0.5))
    assert hard < soft
    assert soft == pytest.approx(0.7, abs=0.12)


def test_noise_floor_can_starve_the_fit():
    c = _cusp_matrix()
    line = _ridge_through(c, 0.5)
    with pytest.raises(LineTooShortError):
        estimate_cusp_exponent(c, line, noise_floor=1e9)


# ------------------------------------------------------------- detection

def test_clean_chirp_yields_exactly_the_two_features():
    rep = detect_singularities(gen_chirp_jump(1024), MEXHAT)
    assert [e.kind for e in rep.events] == ["jump", "cusp"]
    assert abs(rep.events[0].location - 0.5) < 0.01
    assert abs(rep.events[1].location - 0.6) < 0.01
    assert abs(rep.events[0].alpha) < 0.15
    assert rep.events[1].alpha > 0.15


def test_clean_composite_signal():
    rep = detect_singularities(gen_eq11(2048), MEXHAT)
    assert [e.kind for e in rep.events] == ["cusp", "jump"]
    assert abs(rep.events[0].location - 0.4) < 0.01
    assert abs(rep.events[1].location - 0.7) < 0.01


def test_step_flanks_merge_into_one_event():
    x = np.linspace(0.0, 1.0, 1024)
    f = TimeSeries(samples=np.where(x >= 0.5, 1.0, -1.0), dt=x[1])
    rep = detect_singularities(f, MEXHAT)
    assert len(rep.events) == 1
    ev = rep.events[0]
    assert ev.kind == "jump"
    assert abs(ev.location - 0.5) < 0.01
    assert abs(ev.alpha) < 0.1


def test_smooth_signal_has_ridges_but_no_events():
    x = np.linspace(0.0, 1.0, 1024)
    f = TimeSeries(samples=np.sin(2.0 * np.pi * 3.0 * x), dt=x[1])
    rep = detect_singularities(f, MEXHAT)
    assert rep.n_significant > 0  # extrema ridges clear the threshold
    assert rep.events == ()       # but the slope gate drops them


@pytest.mark.parametrize("seed", range(8))
def test_white_noise_is_quiet(seed):
    rng = np.random.default_rng(seed)
    f = TimeSeries(samples=rng.standard_normal(1024), dt=1.0 / 1023)
    assert detect_singularities(f, MEXHAT).events == ()


def test_max_alpha_drops_steep_ridges():
    noisy = gen_eq11(2048, sigma=0.75, seed=1)
    loose = detect_singularities(noisy, MEXHAT)
    capped = detect_singularities(noisy, MEXHAT,
                                  config=DetectionConfig(max_alpha=1.0))
    assert any(e.alpha > 1.0 for e in loose.events)
    assert all(e.alpha <= 1.0 for e in capped.events)
    spurs = {b for b in _locations(loose)} - {b for b in _locations(capped)}
    assert spurs  # at least one steep ridge was dropped
    kept = {round(e.location, 3) for e in capped.events}
    assert kept <= {round(e.location, 3) for e in loose.events}


# ------------------------------------------------------- report structure

def test_report_bookkeeping():
    rep = detect_singularities(gen_chirp_jump(1024, sigma=0.5, seed=2), MEXHAT)
    assert len(rep.events) <= rep.n_significant <= rep.n_lines
    locs = [e.location for e in rep.events]
    assert locs == sorted(locs)
    assert all(e.strength > 0.0 for e in rep.events)
    assert all(e.line_span_octaves >= rep.config.persistence_octaves
               for e in rep.events)
    assert rep.sigma_hat > 0.0
    assert rep.wavelet == "mexican-hat"


@pytest.mark.parametrize("persistence", [-2.0, -1.0, -0.5, 0.0, 1.0, 2.0])
def test_significant_count_matches_every_lines_span(persistence):
    # lines with no point above threshold span -1 octaves and are skipped
    # before the per-line loop; the count must not notice
    f = gen_chirp_jump(2048, sigma=0.5, seed=7)
    c = cwt_fft(f, MEXHAT, ScaleGrid.default_for(f))
    m = modulus_maxima(c)
    cfg = DetectionConfig(persistence_octaves=persistence)
    rep = detect_from_maxima(c, m, cfg)
    thr = max(cfg.threshold_multiplier * rep.sigma_hat,
              _DUST * np.abs(c.coefficients).max())
    starts = np.searchsorted(m.scale_idx, np.arange(c.n_scales + 1))
    spans = [_significant_span(c, m, ln, starts, thr) for ln in m.lines]
    assert min(spans) == -1.0
    assert rep.n_significant == sum(not s < persistence for s in spans)


def test_default_config_values():
    cfg = DetectionConfig()
    assert cfg.threshold_multiplier == 3.0
    assert cfg.persistence_octaves == 2.0
    assert cfg.fine_scale_count == 4
    assert cfg.fit_octaves == 3.0
    assert cfg.max_alpha is None
    assert cfg.min_amplitude_fraction == 0.0


def test_too_coarse_grid_is_rejected():
    f = gen_chirp_jump(256)
    g = ScaleGrid.with_count(2.0 * f.dt, 8.0 * f.dt, 3)
    with pytest.raises(TooFewScalesError):
        detect_singularities(f, MEXHAT, grid=g)
