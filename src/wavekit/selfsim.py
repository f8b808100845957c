"""Global scaling estimation: wavelet variance, power-law fit, Hurst readout.

For a self-affine signal the second moment of the transform at scale a grows
like a^beta with beta = 2H + 1; fitting that slope in log-log recovers the
Hurst exponent and with it the graph's fractal dimension D = 2 - H, so that
beta = 5 - 2 D holds identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateFitError, InvalidSignalError,
                     NoValidSamplesError, OutOfRangeError, TooFewScalesError)
from .series import TimeSeries
from .transform import (CwtMatrix, ScaleGrid, _check_grid, _cone,
                        _fft_rows)
from .wavelets import MexicanHat, Wavelet

# half-width of the H band still called brownian
_BROWNIAN_DELTA = 0.05
# shortest record a scaling fit is attempted on
_MIN_SAMPLES = 256


@dataclass(frozen=True)
class EstimationConfig:
    """Controls for fit_power_law.

    fixed_range    (a_lo, a_hi) to fit over, or None for the automatic
                   choice that trims one octave off each end of the grid
    """

    fixed_range: tuple | None = None


@dataclass(frozen=True)
class WaveletAutoCovariance:
    """Mean squared transform modulus per scale, with sample counts."""

    scales: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    wavelet: str
    n_samples: int
    dt: float


@dataclass(frozen=True)
class HurstEstimate:
    beta: float
    log_intercept: float  # natural log of the power-law prefactor
    r_squared: float
    hurst: float
    dimension: float
    classification: str  # "persistent", "antipersistent" or "brownian"
    scale_range: tuple
    n_scales_used: int
    warnings: tuple


def require_estimable(f: TimeSeries) -> None:
    """Refuse a record too short for a scaling fit (InvalidSignalError).

    The default grid, [2 dt, n dt / 20] less one octave at each end,
    holds fewer than the 4 scales a fit needs below about 210 samples;
    the floor sits above that, and the command line and
    hurst_from_series share it so that both refuse the same records.
    """
    if f.n < _MIN_SAMPLES:
        raise InvalidSignalError(
            f"estimate needs at least {_MIN_SAMPLES} samples, got {f.n}")


def estimation_grid(f: TimeSeries, voices_per_octave: int = 8) -> ScaleGrid:
    """Default grid for scaling estimation: [2 dt, n dt / 20].

    The ceiling sits well below the analysis default so that every scale
    keeps a healthy count of coefficients outside the cone of influence.
    """
    return ScaleGrid.log_spaced(2.0 * f.dt, f.n * f.dt / 20.0,
                                voices_per_octave)


def require_fit_grid(g: ScaleGrid) -> None:
    """Refuse a grid with fewer than the 4 scales a fit needs
    (TooFewScalesError); shared like require_estimable."""
    if g.n_scales < 4:
        raise TooFewScalesError(f"{g.n_scales} scales cannot support a fit")


def _interior_counts(scales: np.ndarray, cone: np.ndarray, n: int):
    """Per scale, the number of an n-column row's columns outside the cone
    of influence, its interior.

    A row's interior is its columns outside the cone, [k, n - k) for a
    cone k samples wide: boundary response biases the coarse scales
    upward. The first scale that keeps no column (k >= n - k) raises
    NoValidSamplesError, before any row is computed, so every cone that
    passes is narrower than n / 2, as the transform's rows need.
    """
    swallowed = np.flatnonzero(cone >= n - cone)
    if swallowed.size:
        raise NoValidSamplesError(
            f"scale {scales[swallowed[0]]:.6g} leaves no samples outside the "
            f"cone of influence; shrink the grid ceiling")
    return n - 2 * cone


def _mean_power(j: int, interior: np.ndarray) -> float:
    """Mean |W|^2 of row j's interior, an array no one else holds, as
    _fft_rows hands it over: a real row is squared in place, x * x being
    |x|^2 to the bit, so no temporary of the row's size is made."""
    if np.iscomplexobj(interior):
        return np.mean(np.abs(interior) ** 2)
    return np.mean(np.square(interior, out=interior))


def wavelet_autocovariance(c: CwtMatrix) -> WaveletAutoCovariance:
    """Average |W(a, b)|^2 over b outside the cone of influence at each
    scale."""
    n = len(c.times)
    counts = _interior_counts(c.scales, c.cone_of_influence, n)
    values = np.array([np.mean(np.abs(row[k:n - k]) ** 2) for row, k in
                       zip(c.coefficients, c.cone_of_influence)])
    return WaveletAutoCovariance(scales=c.scales.copy(), values=values,
                                 counts=counts, wavelet=c.wavelet.name,
                                 n_samples=n, dt=c.dt)


def wavelet_variance(f: TimeSeries, wavelet: Wavelet,
                     grid: ScaleGrid) -> WaveletAutoCovariance:
    """wavelet_autocovariance(cwt_fft(f, wavelet, grid)), streamed.

    Only each row's columns outside the cone of influence are computed, by
    the transform module's one rule for every row. The thread that computed
    each row reduces it to its mean |W|^2, squaring a real row in place, so
    the matrix is never held. The values agree with the matrix route to FFT
    roundoff, within 1e-12 relative per scale, and have the same bits for
    any worker count; counts and scales are the same. A too-fine grid
    (ScaleTooFineError) and then a scale the cone swallows
    (NoValidSamplesError) are refused before any FFT runs.
    """
    _check_grid(f, wavelet, grid)
    cone = _cone(f, wavelet, grid)
    counts = _interior_counts(grid.scales, cone, f.n)
    values = np.fromiter(
        _fft_rows(f, wavelet, grid, _mean_power, cone),
        dtype=np.float64, count=grid.n_scales)
    return WaveletAutoCovariance(scales=grid.scales.copy(), values=values,
                                 counts=counts, wavelet=wavelet.name,
                                 n_samples=f.n, dt=f.dt)


def classify_hurst(hurst: float) -> str:
    """Label a Hurst exponent: increments positively correlated, negatively
    correlated, or indistinguishable from independent."""
    if hurst > 0.5 + _BROWNIAN_DELTA:
        return "persistent"
    if hurst < 0.5 - _BROWNIAN_DELTA:
        return "antipersistent"
    return "brownian"


def fit_power_law(r: WaveletAutoCovariance,
                  config: EstimationConfig | None = None) -> HurstEstimate:
    """Least-squares slope of ln R(a) against ln a, read out as beta.

    Nonpositive variance entries cannot enter the log fit and are skipped
    with a warning. Fewer than 4 usable scales is refused outright.
    """
    cfg = config or EstimationConfig()
    if cfg.fixed_range is not None:
        a_lo, a_hi = cfg.fixed_range
    else:
        a_lo = r.scales[0] * 2.0
        a_hi = r.scales[-1] / 2.0

    notes = []
    sel = (r.scales >= a_lo * (1 - 1e-12)) & (r.scales <= a_hi * (1 + 1e-12))
    pos = r.values > 0.0
    n_dropped = int(np.count_nonzero(sel & ~pos))
    if n_dropped:
        notes.append(f"skipped {n_dropped} nonpositive variance entries")
    sel &= pos
    if np.count_nonzero(sel) < 4:
        raise DegenerateFitError(
            f"{np.count_nonzero(sel)} usable scales in [{a_lo:.6g}, {a_hi:.6g}], "
            f"need at least 4")

    la = np.log(r.scales[sel])
    lv = np.log(r.values[sel])
    slope, intercept = np.polyfit(la, lv, 1)
    resid = lv - (slope * la + intercept)
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot

    beta = float(slope)
    hurst = (beta - 1.0) / 2.0
    dimension = 2.0 - hurst
    if not 1.0 < beta < 3.0:
        notes.append(f"beta = {beta:.4g} outside the self-affine band (1, 3); "
                     f"hurst and dimension are extrapolated")
    used = r.scales[sel]
    return HurstEstimate(beta=beta, log_intercept=float(intercept),
                         r_squared=r2, hurst=hurst, dimension=dimension,
                         classification=classify_hurst(hurst),
                         scale_range=(float(used[0]), float(used[-1])),
                         n_scales_used=int(np.count_nonzero(sel)),
                         warnings=tuple(notes))


def hurst_from_series(f: TimeSeries, wavelet=None, grid: ScaleGrid | None = None,
                      config: EstimationConfig | None = None) -> HurstEstimate:
    """wavelet_variance -> fit_power_law in one call."""
    require_estimable(f)
    w = wavelet if wavelet is not None else MexicanHat()
    g = grid or estimation_grid(f)
    require_fit_grid(g)
    return fit_power_law(wavelet_variance(f, w, g), config)


def exponent_relations(hurst: float) -> tuple:
    """Map a Hurst exponent to (spectral slope beta, graph dimension D).

    beta = 2 H + 1 and D = 2 - H; valid for 0 < H < 1 only.
    """
    if not 0.0 < hurst < 1.0:
        raise OutOfRangeError(f"hurst must lie in (0, 1), got {hurst}")
    return 2.0 * hurst + 1.0, 2.0 - hurst
