"""Singularity detection from wavelet modulus-maxima lines.

A line qualifies as evidence of an isolated singularity when its
above-threshold stretch persists across enough octaves of scale; its local
regularity is then read off the slope of log |W| against log a, with the
1/2 from the transform's own scale normalization removed. Slopes near zero
mean a jump, slopes below one a cusp. Lines that come up steeper than any
singularity allows right where they clear the noise belong to smooth
oscillations, and lines with no decay at all are noise ridges; both are
discarded rather than reported.

The detector reads only a MaximaSet, its lines through _by_line: each is
a slice of flat, line-sorted copies of the maxima arrays with the line it
merged into, and the noise level comes from the finest row the set
carries. It never links maxima nor needs the scale x time matrix, so
detect_singularities, fed by cwt_maxima, holds O(n) memory plus the maxima.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log2
from typing import NamedTuple

import numpy as np

from .errors import TooFewScalesError
from .series import TimeSeries
from .transform import MaximaSet, ScaleGrid, cwt_maxima

# relative dust floor: ignores maxima born purely of float roundoff
_DUST = 1e-10
# the fixed readout, which DetectionConfig records
_FINE_SCALE_COUNT = 4
_FIT_OCTAVES = 3.0


@dataclass(frozen=True)
class DetectionConfig:
    """Settings of detect_singularities, as its report records them.

    threshold_multiplier  line points count as significant above this many
                          robust noise sigmas
    persistence_octaves   significant stretch must span at least this many
                          octaves of scale
    max_alpha             drop lines whose exponent reads at or above this;
                          singular behaviour lives at alpha < 1, so 1.0 here
                          rejects smooth structure that slipped the onset
                          test. None (the default) keeps everything: under
                          heavy noise a true cusp's read can inflate past 1
                          and locations still matter even when exponents
                          are unreliable.

    The other three fields record the fixed readout and cannot be set:
    fine_scale_count, how many of a line's finest significant points feed
    its event strength; fit_octaves, the width of the exponent fit window
    above a line's anchor; min_amplitude_fraction, 0 as every per-scale
    maximum is chained.
    """

    threshold_multiplier: float = 3.0
    persistence_octaves: float = 2.0
    fine_scale_count: int = field(default=_FINE_SCALE_COUNT, init=False)
    fit_octaves: float = field(default=_FIT_OCTAVES, init=False)
    max_alpha: float | None = None
    min_amplitude_fraction: float = field(default=0.0, init=False)

    def __post_init__(self):
        # reports and manifests are JSON, which has no NaN or Infinity
        for name in ("threshold_multiplier", "persistence_octaves",
                     "max_alpha"):
            value = getattr(self, name)
            if not (name == "max_alpha" and value is None) and \
                    not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SingularityEvent:
    """One detected singular point."""

    location: float
    kind: str  # "jump" or "cusp"
    strength: float
    alpha: float
    line_span_octaves: float


@dataclass(frozen=True)
class SingularityReport:
    """detect_singularities output: events sorted by location plus context."""

    events: tuple
    sigma_hat: float
    n_lines: int
    n_significant: int
    wavelet: str
    config: DetectionConfig = field(default_factory=DetectionConfig)


class _Lines(NamedTuple):
    """Every line's points back to back, each line fine to coarse.

    Line k is the slice offsets[k]:offsets[k + 1] of each point array, a
    holds each point's scale, trusted flags the points a fit may read, and
    host[k] is the line that line k merged into, or -1.
    """

    time_idx: np.ndarray
    values: np.ndarray
    a: np.ndarray
    trusted: np.ndarray
    offsets: np.ndarray
    host: np.ndarray

    def of(self, k: int) -> slice:
        return slice(self.offsets[k], self.offsets[k + 1])


def _by_line(m: MaximaSet) -> _Lines:
    """The lines of m as flat arrays.

    A point is trusted outside the cone of influence and below the grid's
    top octave, where neighbouring structure bleeds in.
    """
    n, t = len(m.times), m.time_idx
    below_top = m.scales <= m.scales[-1] / 2.0 + 1e-15 * m.scales[-1]
    c = m.cone_of_influence[m.scale_idx]
    trusted = below_top[m.scale_idx] & (t >= c) & (t < n - c)
    del c  # before the copies below, which can then reuse its memory
    pts = m.line_points
    a = m.scales[m.scale_idx[pts]]  # before the other copies: one temporary
    return _Lines(time_idx=m.time_idx[pts], values=m.values[pts], a=a,
                  trusted=trusted[pts], offsets=m.line_offsets,
                  host=m.line_host)


def _thresholds(m: MaximaSet, cfg: DetectionConfig):
    """(sigma_hat, thr, loc_floor) of a maxima set.

    sigma_hat is the robust noise level of the finest row (its median
    absolute deviation over 0.6745); line points count as significant at
    thr and a location may walk down while it stays above loc_floor, both
    kept above the dust floor of the largest |W|.
    """
    finest = m.finest
    sigma = float(np.median(np.abs(finest - np.median(finest))) / 0.6745)
    absmax = float(m.row_max.max())
    thr = max(cfg.threshold_multiplier * sigma, _DUST * absmax)
    loc_floor = max(2.0 * sigma, _DUST * absmax)
    return sigma, thr, loc_floor


# onset slopes at or above this say "smooth ridge", whatever the wide
# window reads; a smooth structure is still in its steep regime where it
# first clears the noise, a singular one never is
_SMOOTH_ONSET = 1.3
# same verdict when the coarse end of the window reads this steep: a ridge
# whose onset hid in noise still shows its rise once well clear of it
_SMOOTH_TAIL = 1.8


def _pairwise_slope(la: np.ndarray, lv: np.ndarray) -> float:
    da = la[:, None] - la[None, :]
    dv = lv[:, None] - lv[None, :]
    iu = np.triu_indices(la.size, k=1)
    return float(np.median(dv[iu] / da[iu]))


def _line_readout(lines: _Lines, s: slice, thr: float, loc_floor: float,
                  dt: float):
    """Anchor, classify and locate the maxima line at slice s of lines.

    The anchor is the finest pair of consecutive above-threshold points
    whose surrounding octave stays significant in the median; an isolated
    pair of noise spikes fails that check and cannot anchor the fits.
    Three slopes are read above the anchor, all as medians of pairwise
    slopes so single wild points cannot drag them. The onset slope, over
    the first octave, separates smooth ridges from singular ones: where
    it first clears the noise a smooth ridge is still rising at its full
    steepness, while a singularity's decay never gets that steep. The
    tail slope, over the coarsest stretch of the fit window, catches the
    same rise when a noisy anchor blurred the onset. The kind slope,
    over the whole window of _FIT_OCTAVES, has the long baselines that
    average single-point noise down to where jumps and cusps separate.
    The location walks down from the anchor while the line stays above
    the location floor and within one anchor scale of the anchor's
    position: maxima lines converge at the rate of the scale itself, so
    a larger drift is noise wandering, not convergence.

    Returns (onset_alpha, tail_alpha, alpha, k_loc, k_anchor) with
    tail_alpha None when the window is too short to have a separate
    tail, and k_loc, k_anchor positions along the line; returns None
    when the cone of influence or the grid leaves too little to read.
    """
    a, usable, values = lines.a[s], lines.trusted[s], lines.values[s]
    sig = usable & (values >= thr)

    anchor = -1
    for k in range(sig.size - 1):
        if sig[k] and sig[k + 1]:
            near = usable & (a >= a[k]) & (a <= 2.0 * a[k])
            if np.median(values[near]) >= thr:
                anchor = k
                break
    if anchor < 0:
        return None  # no significant stretch to anchor a fit

    onset = sig & (a >= a[anchor]) & (a <= 2.0 * a[anchor] * (1.0 + 1e-12))
    if np.count_nonzero(onset) < 4 or \
            a[onset].max() < a[anchor] * 2.0 ** 0.75:
        return None  # significant stretch too short to classify
    onset_alpha = _pairwise_slope(np.log(a[onset]),
                                  np.log(values[onset])) - 0.5

    wide = sig & (a >= a[anchor])
    wide &= a <= a[anchor] * 2.0 ** _FIT_OCTAVES * (1.0 + 1e-12)
    alpha = _pairwise_slope(np.log(a[wide]), np.log(values[wide])) - 0.5

    a_top = a[wide].max()
    tail = wide & (a >= a_top / 2.0 ** 1.5 * (1.0 - 1e-12))
    tail_alpha = None
    if np.count_nonzero(tail) >= 4 and a_top >= a[tail].min() * 2.0 ** 0.75:
        tail_alpha = _pairwise_slope(np.log(a[tail]),
                                     np.log(values[tail])) - 0.5

    time_idx = lines.time_idx[s]
    drift_cap = a[anchor] / dt
    k_loc = anchor
    while k_loc > 0 and values[k_loc - 1] >= loc_floor and \
            abs(int(time_idx[k_loc - 1]) - int(time_idx[anchor])) <= drift_cap:
        k_loc -= 1
    return onset_alpha, tail_alpha, alpha, k_loc, anchor


def require_detection_grid(scales: np.ndarray) -> None:
    """Refuse fewer than the 4 scales detection needs (TooFewScalesError):
    detect_from_maxima checks its maxima's scales, and detect_singularities
    and the command line check their grid before the transform."""
    if scales.size < 4:
        raise TooFewScalesError(f"{scales.size} scales is too coarse a grid")


def detect_singularities(f: TimeSeries, wavelet, grid: ScaleGrid | None = None,
                         config: DetectionConfig | None = None) -> SingularityReport:
    """Locate and classify isolated singularities in a sampled signal.

    Pipeline: per-scale modulus maxima of the CWT on a log-spaced grid,
    found row by row as cwt_maxima computes them and chained into lines,
    then detect_from_maxima on them. A grid of fewer than 4 scales is
    refused before anything is computed.
    """
    g = grid or ScaleGrid.default_for(f)
    require_detection_grid(g.scales)
    return detect_from_maxima(cwt_maxima(f, wavelet, g), config)


def detect_from_maxima(maxima: MaximaSet,
                       config: DetectionConfig | None = None) -> SingularityReport:
    """Singularities from chained modulus maxima.

    Robust noise level from the finest-scale row, persistence gate,
    exponent estimate, classification, then a scale-aware merge that
    collapses the twin ridges a jump throws off either flank.
    """
    cfg = config or DetectionConfig()
    m = maxima
    require_detection_grid(m.scales)
    sigma, thr, loc_floor = _thresholds(m, cfg)
    lines = _by_line(m)

    # a line with no point >= thr spans -1 octaves and anchors no readout,
    # so only the persistence test can count it
    live = np.fmax.reduceat(lines.values, lines.offsets[:-1]) >= thr
    n_sig = 0 if -1.0 < cfg.persistence_octaves else \
        int(np.count_nonzero(~live))

    candidates = []
    for k in np.flatnonzero(live).tolist():
        s = lines.of(k)
        span = _significant_span(lines, k, thr)
        if span < cfg.persistence_octaves:
            continue
        n_sig += 1
        readout = _line_readout(lines, s, thr, loc_floor, m.dt)
        if readout is None:
            continue
        onset_alpha, tail_alpha, alpha, k_loc, k_anchor = readout
        if onset_alpha >= _SMOOTH_ONSET or alpha < -0.35:
            continue  # smooth oscillation or pure-noise ridge
        if tail_alpha is not None and tail_alpha >= _SMOOTH_TAIL:
            continue
        if cfg.max_alpha is not None and alpha >= cfg.max_alpha:
            continue

        a, values = lines.a[s], lines.values[s]
        i_loc = int(lines.time_idx[s][k_loc])
        a_anchor = float(a[k_anchor])

        ks = np.nonzero(values >= thr)[0][:_FINE_SCALE_COUNT]
        strength = float((values[ks] ** 2 / a[ks]).max())

        candidates.append((i_loc, a_anchor, strength, alpha,
                           float(np.log2(a[-1] / a[0]))))

    candidates.sort(key=lambda s: s[0])
    merged = _merge_flanks(candidates, m.dt)

    events = tuple(SingularityEvent(location=float(m.times[i]),
                                    kind="jump" if alpha < 0.15 else "cusp",
                                    strength=strength, alpha=alpha,
                                    line_span_octaves=span)
                   for i, _, strength, alpha, span in merged)
    return SingularityReport(events=events, sigma_hat=sigma,
                             n_lines=m.n_lines, n_significant=n_sig,
                             wavelet=m.wavelet.name, config=cfg)


def _significant_span(lines: _Lines, k: int, thr: float) -> float:
    """Octaves spanned by the above-threshold evidence of line k.

    Converging ridges share their coarse stretch, but the chaining gives
    each coarse maximum to a single line, so a real singularity's line can
    be cut short where it merges into a stronger neighbour. When a line is
    still above threshold at its coarse end, its host (the ridge it merged
    into) continues its evidence above that end, and the walk repeats from
    the host's end, on a coarser scale each time. Lines that fade below
    threshold before merging gain nothing.
    """
    s = lines.of(k)
    own_sig = lines.values[s] >= thr
    if not np.any(own_sig):
        return -1.0
    a_lo = float(lines.a[s][own_sig].min())
    a_hi = float(lines.a[s][own_sig].max())

    end = s.stop - 1
    while lines.values[end] >= thr and lines.host[k] >= 0:
        k = int(lines.host[k])
        s = lines.of(k)
        seg_sig = (lines.a[s] > lines.a[end]) & (lines.values[s] >= thr)
        if np.any(seg_sig):
            a_hi = max(a_hi, float(lines.a[s][seg_sig].max()))
        end = s.stop - 1
    return log2(a_hi / a_lo)


def _merge_flanks(cands: list, dt: float) -> list:
    """Collapse each candidate cluster around a feature into one event.

    A strong feature throws off side lines on both flanks, displaced by
    roughly the scale at which they carry their evidence. A weaker
    candidate anchored at scale comparable to its distance from a stronger
    one is such a shadow: all it has seen lives at scales where the
    stronger feature reaches its position. A genuine neighbour keeps
    evidence at scales well below the separation and survives. The merged
    event keeps the strongest candidate's place; its exponent is the
    median of the cluster's reads, since the flank lines watched the same
    feature with independent noise and the strong line's own read is the
    one most inflated by its noise-hugging fine points.
    """
    out = []
    pooled = []  # per surviving event: every member's exponent read
    for cand in cands:
        if out:
            prev = out[-1]
            weak = cand if cand[2] <= prev[2] else prev
            radius = max(2, ceil(5.0 * weak[1] / dt))
            if cand[0] - prev[0] <= radius:
                pooled[-1].append(cand[3])
                if cand[2] > prev[2]:
                    out[-1] = cand
                continue
        out.append(cand)
        pooled.append([cand[3]])
    return [(i, a, s, float(np.median(reads)), span)
            for (i, a, s, _, span), reads in zip(out, pooled)]
