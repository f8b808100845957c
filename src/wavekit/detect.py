"""Singularity detection from wavelet modulus-maxima lines.

A line qualifies as evidence of an isolated singularity when its
above-threshold stretch persists across enough octaves of scale; its local
regularity is then read off the slope of log |W| against log a, with the
1/2 from the transform's own scale normalization removed. Slopes near zero
mean a jump, slopes below one a cusp. Lines that come up steeper than any
singularity allows right where they clear the noise belong to smooth
oscillations, and lines with no decay at all are noise ridges; both are
discarded rather than reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from math import ceil, log2

import numpy as np

from .errors import LineTooShortError, TooFewScalesError
from .series import TimeSeries
from .transform import (CwtMatrix, MaximaLine, MaximaSet, ScaleGrid, cwt_fft,
                        modulus_maxima)

# relative dust floor: ignores maxima born purely of float roundoff
_DUST = 1e-10


@dataclass(frozen=True)
class DetectionConfig:
    """Tuning knobs for detect_singularities.

    threshold_multiplier  line points count as significant above this many
                          robust noise sigmas
    persistence_octaves   significant stretch must span at least this many
                          octaves of scale
    fine_scale_count      how many of a line's finest significant points
                          feed the reported event strength
    fit_octaves           width of the window above the anchor used for
                          the exponent regression
    max_alpha             drop lines whose exponent reads at or above this;
                          singular behaviour lives at alpha < 1, so 1.0 here
                          rejects smooth structure that slipped the onset
                          test. None (the default) keeps everything: under
                          heavy noise a true cusp's read can inflate past 1
                          and locations still matter even when exponents
                          are unreliable.
    min_amplitude_fraction  per-scale maxima below this fraction of the row
                          maximum are not chained at all
    """

    threshold_multiplier: float = 3.0
    persistence_octaves: float = 2.0
    fine_scale_count: int = 4
    fit_octaves: float = 3.0
    max_alpha: float | None = None
    min_amplitude_fraction: float = 0.0


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


def _trusted(c: CwtMatrix, line: MaximaLine):
    """Scales of the line's points and the mask of those a fit may read.

    A point is trusted outside the cone of influence and below the grid's
    top octave, where neighbouring structure bleeds in.
    """
    a = c.scales[line.scale_idx]
    cone = c.cone_of_influence[line.scale_idx]
    ok = (line.time_idx >= cone) & (line.time_idx < len(c.times) - cone)
    ok &= a <= c.scales[-1] / 2.0 + 1e-15 * c.scales[-1]
    return a, ok


def _usable_points(c: CwtMatrix, line: MaximaLine, noise_floor: float,
                   fit_octaves: float):
    """Select the line points a decay fit can trust.

    Trusted (see _trusted), above noise_floor, and within fit_octaves of
    the line's finest usable scale so the asymptotic fine-scale slope is
    measured rather than some global average.
    """
    a, ok = _trusted(c, line)
    ok &= line.values > max(noise_floor, 0.0)
    if np.any(ok):
        a_fine = a[ok].min()
        ok &= a <= a_fine * 2.0 ** fit_octaves * (1.0 + 1e-12)
    if np.count_nonzero(ok) < 3:
        raise LineTooShortError(
            f"only {np.count_nonzero(ok)} usable points on line, need 3")
    return np.log(a[ok]), np.log(line.values[ok])


def estimate_cusp_exponent(c: CwtMatrix, line: MaximaLine,
                           noise_floor: float = 0.0,
                           fit_octaves: float = 3.0) -> float:
    """Holder exponent from the scaling of |W| along one maxima line.

    Least-squares slope of log |W| against log a over the trustworthy
    stretch of the line (see _usable_points), minus the 1/2 the transform
    normalization contributes. Needs at least 3 usable points.
    """
    la, lv = _usable_points(c, line, noise_floor, fit_octaves)
    slope = np.polyfit(la, lv, 1)[0]
    return float(slope - 0.5)


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


def _line_readout(c: CwtMatrix, line: MaximaLine, thr: float,
                  loc_floor: float, fit_octaves: float):
    """Anchor, classify and locate one maxima line.

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
    over the whole fit_octaves window, has the long baselines that
    average single-point noise down to where jumps and cusps separate.
    The location walks down from the anchor while the line stays above
    the location floor and within one anchor scale of the anchor's
    position: maxima lines converge at the rate of the scale itself, so
    a larger drift is noise wandering, not convergence.

    Returns (onset_alpha, tail_alpha, alpha, k_loc, k_anchor) with
    tail_alpha None when the window is too short to have a separate
    tail; raises LineTooShortError when the cone of influence or the
    grid leaves too little to read.
    """
    a, usable = _trusted(c, line)
    sig = usable & (line.values >= thr)

    anchor = -1
    for k in range(sig.size - 1):
        if sig[k] and sig[k + 1]:
            near = usable & (a >= a[k]) & (a <= 2.0 * a[k])
            if np.median(line.values[near]) >= thr:
                anchor = k
                break
    if anchor < 0:
        raise LineTooShortError("no significant stretch to anchor a fit")

    onset = sig & (a >= a[anchor]) & (a <= 2.0 * a[anchor] * (1.0 + 1e-12))
    if np.count_nonzero(onset) < 4 or \
            a[onset].max() < a[anchor] * 2.0 ** 0.75:
        raise LineTooShortError("significant stretch too short to classify")
    onset_alpha = _pairwise_slope(np.log(a[onset]),
                                  np.log(line.values[onset])) - 0.5

    wide = sig & (a >= a[anchor])
    wide &= a <= a[anchor] * 2.0 ** fit_octaves * (1.0 + 1e-12)
    alpha = _pairwise_slope(np.log(a[wide]), np.log(line.values[wide])) - 0.5

    a_top = a[wide].max()
    tail = wide & (a >= a_top / 2.0 ** 1.5 * (1.0 - 1e-12))
    tail_alpha = None
    if np.count_nonzero(tail) >= 4 and a_top >= a[tail].min() * 2.0 ** 0.75:
        tail_alpha = _pairwise_slope(np.log(a[tail]),
                                     np.log(line.values[tail])) - 0.5

    drift_cap = a[anchor] / c.dt
    k_loc = anchor
    while k_loc > 0 and line.values[k_loc - 1] >= loc_floor and \
            abs(int(line.time_idx[k_loc - 1]) -
                int(line.time_idx[anchor])) <= drift_cap:
        k_loc -= 1
    return onset_alpha, tail_alpha, alpha, k_loc, anchor


def detect_singularities(f: TimeSeries, wavelet, grid: ScaleGrid | None = None,
                         config: DetectionConfig | None = None) -> SingularityReport:
    """Locate and classify isolated singularities in a sampled signal.

    Pipeline: CWT on a log-spaced grid, per-scale modulus maxima chained
    into lines, then detect_from_maxima on the two.
    """
    cfg = config or DetectionConfig()
    c = cwt_fft(f, wavelet, grid or ScaleGrid.default_for(f))
    return detect_from_maxima(c, modulus_maxima(c, cfg.min_amplitude_fraction),
                              cfg)


def detect_from_maxima(c: CwtMatrix, maxima: MaximaSet,
                       config: DetectionConfig | None = None) -> SingularityReport:
    """Singularities from a computed CWT and its chained modulus maxima.

    Robust noise level from the finest-scale row, persistence gate,
    exponent estimate, classification, then a scale-aware merge that
    collapses the twin ridges a jump throws off either flank. maxima must
    come from modulus_maxima(c, config.min_amplitude_fraction).
    """
    cfg = config or DetectionConfig()
    if c.n_scales < 4:
        raise TooFewScalesError(f"{c.n_scales} scales is too coarse a grid")

    finest = c.coefficients[0]
    finest = finest.real if np.iscomplexobj(finest) else finest
    sigma = float(np.median(np.abs(finest - np.median(finest))) / 0.6745)

    # row by row: a whole-matrix |W| would be the run's largest temporary
    absmax = max(float(np.abs(row).max()) for row in c.coefficients) \
        if c.coefficients.size else 0.0
    thr = max(cfg.threshold_multiplier * sigma, _DUST * absmax)
    loc_floor = max(2.0 * sigma, _DUST * absmax)

    scale_starts = np.searchsorted(maxima.scale_idx,
                                   np.arange(c.scales.size + 1))

    # a line with no point >= thr spans -1 octaves and anchors no readout,
    # so only the persistence test can count it
    peak = np.full(len(maxima.lines), -np.inf)
    np.fmax.at(peak, maxima.line_id, maxima.values)
    live = peak >= thr
    n_sig = 0 if -1.0 < cfg.persistence_octaves else \
        int(np.count_nonzero(~live))

    candidates = []
    for line in compress(maxima.lines, live):
        a = c.scales[line.scale_idx]
        span = _significant_span(c, maxima, line, scale_starts, thr)
        if span < cfg.persistence_octaves:
            continue
        n_sig += 1
        try:
            onset_alpha, tail_alpha, alpha, k_loc, k_anchor = _line_readout(
                c, line, thr, loc_floor, fit_octaves=cfg.fit_octaves)
        except LineTooShortError:
            continue
        if onset_alpha >= _SMOOTH_ONSET or alpha < -0.35:
            continue  # smooth oscillation or pure-noise ridge
        if tail_alpha is not None and tail_alpha >= _SMOOTH_TAIL:
            continue
        if cfg.max_alpha is not None and alpha >= cfg.max_alpha:
            continue

        i_loc = int(line.time_idx[k_loc])
        a_anchor = float(a[k_anchor])

        ks = np.nonzero(line.values >= thr)[0][:cfg.fine_scale_count]
        strength = float((line.values[ks] ** 2 / a[ks]).max())

        candidates.append((i_loc, a_anchor, strength, alpha,
                           line.span_octaves(c.scales)))

    candidates.sort(key=lambda s: s[0])
    merged = _merge_flanks(candidates, c.dt)

    events = tuple(SingularityEvent(location=float(c.times[i]),
                                    kind="jump" if alpha < 0.15 else "cusp",
                                    strength=strength, alpha=alpha,
                                    line_span_octaves=span)
                   for i, _, strength, alpha, span in merged)
    return SingularityReport(events=events, sigma_hat=sigma,
                             n_lines=len(maxima.lines), n_significant=n_sig,
                             wavelet=c.wavelet.name, config=cfg)


def _significant_span(c: CwtMatrix, maxima: MaximaSet, line: MaximaLine,
                      scale_starts: np.ndarray, thr: float) -> float:
    """Octaves spanned by the line's above-threshold evidence.

    Converging ridges share their coarse stretch, but the chaining gives
    each coarse maximum to a single line, so a real singularity's line can
    be cut short where it merges into a stronger neighbour. When a line is
    still above threshold at its coarse end, the ridge it merged into (the
    nearest maximum one scale up, within the linking tolerance) continues
    its evidence, and the walk repeats from that host's end. Lines that
    fade below threshold before merging gain nothing.
    """
    own_sig = line.values >= thr
    if not np.any(own_sig):
        return -1.0
    a_lo = float(c.scales[line.scale_idx[own_sig]].min())
    a_hi = float(c.scales[line.scale_idx[own_sig]].max())

    j_end = int(line.scale_idx[-1])
    i_end = int(line.time_idx[-1])
    v_end = float(line.values[-1])
    hops = 0
    while v_end >= thr and j_end + 1 < c.scales.size and hops < c.scales.size:
        hops += 1
        j2 = j_end + 1
        lo, hi = int(scale_starts[j2]), int(scale_starts[j2 + 1])
        t2 = maxima.time_idx[lo:hi]
        pos = int(np.searchsorted(t2, i_end))
        best, best_d = -1, None
        for k in (pos - 1, pos):
            if 0 <= k < t2.size:
                d = abs(int(t2[k]) - i_end)
                if d <= c.scales[j2] / c.dt and (best_d is None or d < best_d):
                    best_d, best = d, lo + k
        if best < 0:
            break
        host = maxima.lines[maxima.line_id[best]]
        seg_sig = (host.scale_idx >= j2) & (host.values >= thr)
        if np.any(seg_sig):
            a_hi = max(a_hi, float(c.scales[host.scale_idx[seg_sig]].max()))
        j_end = int(host.scale_idx[-1])
        i_end = int(host.time_idx[-1])
        v_end = float(host.values[-1])
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
