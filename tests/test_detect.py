from math import log2

import numpy as np
import pytest

from wavekit import transform
from wavekit import (DetectionConfig, Haar, MexicanHat, Morlet, ScaleGrid,
                     TimeSeries, TooFewScalesError, cwt_fft, cwt_maxima,
                     detect_singularities, gen_chirp_jump, gen_eq11,
                     modulus_maxima)
from wavekit.detect import (_DUST, _by_line, _line_readout, _significant_span,
                            _thresholds, detect_from_maxima)

MEXHAT = MexicanHat()


def _locations(report):
    return [round(e.location, 3) for e in report.events]


# ------------------------------------------------------- exponent readout

def _cusp_maxima(alpha=0.3, n=2048):
    x = np.linspace(0.0, 1.0, n)
    f = TimeSeries(samples=-4.0 * np.abs(x - 0.5) ** alpha, dt=x[1])
    g = ScaleGrid.log_spaced(2.0 * f.dt, 0.25 * f.n * f.dt)
    return cwt_maxima(f, MEXHAT, g)


def _span_octaves(lines, k):
    a = lines.a[lines.of(k)]
    return float(np.log2(a[-1] / a[0]))


def _ridge_through(m, b):
    """The lines of m and the longest one whose median time is near b."""
    lines = _by_line(m)
    near = [k for k in range(m.n_lines)
            if abs(np.median(m.times[lines.time_idx[lines.of(k)]]) - b)
            < 0.02]
    return lines, max(near, key=lambda k: _span_octaves(lines, k))


def _wide_alpha(m, b, thr=None):
    """The detector's wide-window exponent on the ridge through b."""
    _, default_thr, loc_floor = _thresholds(m, DetectionConfig())
    lines, k = _ridge_through(m, b)
    readout = _line_readout(lines, lines.of(k),
                            default_thr if thr is None else thr, loc_floor,
                            m.dt)
    return None if readout is None else readout[2]


def test_cusp_exponent_from_clean_ridge():
    m = _cusp_maxima(alpha=0.3)
    lines, k = _ridge_through(m, 0.5)
    assert _span_octaves(lines, k) > 4.0
    assert _wide_alpha(m, 0.5) == pytest.approx(0.3, abs=0.08)


def test_exponent_tracks_the_singularity_order():
    soft = _wide_alpha(_cusp_maxima(alpha=0.7), 0.5)
    hard = _wide_alpha(_cusp_maxima(alpha=0.2), 0.5)
    assert hard < soft
    assert soft == pytest.approx(0.7, abs=0.12)


def test_noise_floor_can_starve_the_fit():
    assert _wide_alpha(_cusp_maxima(), 0.5, thr=1e9) is None


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
    rep = detect_from_maxima(m, cfg)
    thr = max(cfg.threshold_multiplier * rep.sigma_hat,
              _DUST * np.abs(c.coefficients).max())
    lines = _by_line(m)
    spans = [_significant_span(lines, k, thr) for k in range(m.n_lines)]
    assert min(spans) == -1.0
    assert rep.n_significant == sum(not s < persistence for s in spans)


def _hop_walk_spans(m, thr):
    """Every line's span by the walk that searched each coarser scale for
    the host itself, kept as the reference for walking line_host."""
    starts = np.searchsorted(m.scale_idx, np.arange(m.scales.size + 1))
    lines = [m.line_points[lo:hi]
             for lo, hi in zip(m.line_offsets[:-1], m.line_offsets[1:])]
    line_id = np.empty(m.n_points, dtype=np.int64)
    for li, pts in enumerate(lines):
        line_id[pts] = li

    spans = []
    for pts in lines:
        own = pts[m.values[pts] >= thr]
        if own.size == 0:
            spans.append(-1.0)
            continue
        a_lo = m.scales[m.scale_idx[own]].min()
        a_hi = m.scales[m.scale_idx[own]].max()
        end = pts[-1]
        while m.values[end] >= thr and m.scale_idx[end] + 1 < m.scales.size:
            j2 = m.scale_idx[end] + 1
            lo, hi = starts[j2], starts[j2 + 1]
            t2 = m.time_idx[lo:hi]
            pos = np.searchsorted(t2, m.time_idx[end])
            best, best_d = -1, None
            for q in (pos - 1, pos):
                if 0 <= q < t2.size:
                    d = abs(int(t2[q]) - int(m.time_idx[end]))
                    if d <= m.scales[j2] / m.dt and \
                            (best_d is None or d < best_d):
                        best_d, best = d, lo + q
            if best < 0:
                break
            host = lines[line_id[best]]
            seg = host[(m.scale_idx[host] >= j2) & (m.values[host] >= thr)]
            if seg.size:
                a_hi = max(a_hi, m.scales[m.scale_idx[seg]].max())
            end = host[-1]
        spans.append(log2(float(a_hi) / float(a_lo)))
    return spans


@pytest.mark.parametrize("w", [MEXHAT, Morlet(), Haar()],
                         ids=lambda w: w.name)
def test_host_walk_matches_the_hop_search(w):
    f = gen_chirp_jump(2048, sigma=0.3, seed=3)
    m = cwt_maxima(f, w, ScaleGrid.default_for(f))
    _, thr, _ = _thresholds(m, DetectionConfig())
    lines = _by_line(m)
    grown = 0
    for t in (0.5 * thr, thr, 2.0 * thr):
        want = _hop_walk_spans(m, t)
        for k in range(m.n_lines):
            span = _significant_span(lines, k, t)
            assert span == want[k], (t, k)
            own = lines.a[lines.of(k)][lines.values[lines.of(k)] >= t]
            grown += own.size > 0 and span > log2(own.max() / own.min())
    assert grown  # some spans do continue along a host


@pytest.mark.parametrize("w", [MEXHAT, Morlet(), Haar()],
                         ids=lambda w: w.name)
def test_trusted_points_match_a_per_scale_loop(w):
    """The trusted mask, against the loop over scales it replaced."""
    f = gen_chirp_jump(512, sigma=0.3, seed=3)
    m = cwt_maxima(f, w, ScaleGrid.default_for(f))
    n, cone = m.times.size, m.cone_of_influence
    want = np.zeros(m.n_points, dtype=bool)
    for j, a in enumerate(m.scales):
        if a <= m.scales[-1] / 2.0 + 1e-15 * m.scales[-1]:
            on = m.scale_idx == j
            t = m.time_idx[on]
            want[on] = (t >= cone[j]) & (t < n - cone[j])
    got = _by_line(m).trusted
    assert 0 < np.count_nonzero(got) < got.size
    assert np.array_equal(got, want[m.line_points])


def test_default_config_values():
    cfg = DetectionConfig()
    assert cfg.threshold_multiplier == 3.0
    assert cfg.persistence_octaves == 2.0
    assert cfg.fine_scale_count == 4
    assert cfg.fit_octaves == 3.0
    assert cfg.max_alpha is None
    assert cfg.min_amplitude_fraction == 0.0
    for name in ("fine_scale_count", "fit_octaves", "min_amplitude_fraction"):
        with pytest.raises(TypeError, match=name):
            DetectionConfig(**{name: 1})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["threshold_multiplier", "persistence_octaves",
                                  "max_alpha"])
def test_config_refuses_non_finite_settings(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        DetectionConfig(**{name: value})


def test_too_coarse_grid_is_rejected():
    f = gen_chirp_jump(256)
    g = ScaleGrid.with_count(2.0 * f.dt, 8.0 * f.dt, 3)
    with pytest.raises(TooFewScalesError):
        detect_singularities(f, MEXHAT, grid=g)


def test_too_coarse_grid_is_rejected_before_the_transform(monkeypatch):
    def refuse(*args):
        raise AssertionError("a kernel was sampled")

    monkeypatch.setattr(transform, "_kernel", refuse)
    f = gen_chirp_jump(256)
    g = ScaleGrid.with_count(2.0 * f.dt, 8.0 * f.dt, 3)
    with pytest.raises(TooFewScalesError):
        detect_singularities(f, MEXHAT, grid=g)
