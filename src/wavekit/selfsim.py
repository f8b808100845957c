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
    """Controls for wavelet_autocovariance, wavelet_variance and fit_power_law.

    exclude_cone   drop coefficients inside the cone of influence before
                   averaging (recommended; boundary response biases the
                   coarse scales upward)
    fixed_range    (a_lo, a_hi) to fit over, or None for the automatic
                   choice that trims one octave off each end of the grid
    """

    exclude_cone: bool = True
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


def _row_reducer(scales: np.ndarray, cone: np.ndarray, n: int,
                 cfg: EstimationConfig):
    """(values, counts, add) for rows of n coefficients, one per scale.

    add(j, row) stores the mean |W|^2 of row j over the columns cfg keeps,
    in any order and from any thread. The first scale that keeps no column
    raises NoValidSamplesError here, before any row arrives.
    """
    ranges = []
    for a, k in zip(scales, cone.tolist()):
        lo, hi = (k, n - k) if cfg.exclude_cone else (0, n)
        if lo >= hi:
            raise NoValidSamplesError(
                f"scale {a:.6g} leaves no samples outside the cone "
                f"of influence; shrink the grid ceiling")
        ranges.append((lo, hi))
    values = np.empty(scales.size)
    counts = np.array([hi - lo for lo, hi in ranges], dtype=np.int64)

    def add(j, row):
        lo, hi = ranges[j]
        values[j] = np.mean(np.abs(row[lo:hi]) ** 2)

    return values, counts, add


def wavelet_autocovariance(c: CwtMatrix,
                           config: EstimationConfig | None = None) -> WaveletAutoCovariance:
    """Average |W(a, b)|^2 over b at each scale."""
    n = len(c.times)
    values, counts, add = _row_reducer(c.scales, c.cone_of_influence, n,
                                       config or EstimationConfig())
    for j, row in enumerate(c.coefficients):
        add(j, row)
    return WaveletAutoCovariance(scales=c.scales.copy(), values=values,
                                 counts=counts, wavelet=c.wavelet.name,
                                 n_samples=n, dt=c.dt)


def wavelet_variance(f: TimeSeries, wavelet: Wavelet, grid: ScaleGrid,
                     config: EstimationConfig | None = None) -> WaveletAutoCovariance:
    """wavelet_autocovariance(cwt_fft(f, wavelet, grid), config), streamed.

    Each cwt_fft row is reduced as it is computed and then dropped, so the
    scale x time matrix is never held. The result is the same to the bit;
    a too-fine grid (ScaleTooFineError) and then a scale the cone swallows
    (NoValidSamplesError) are refused before any FFT runs.
    """
    _check_grid(f, grid)
    values, counts, add = _row_reducer(grid.scales, _cone(f, wavelet, grid),
                                       f.n, config or EstimationConfig())
    _fft_rows(f, wavelet, grid, add)
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
    return fit_power_law(wavelet_variance(f, w, g, config), config)


def exponent_relations(hurst: float) -> tuple:
    """Map a Hurst exponent to (spectral slope beta, graph dimension D).

    beta = 2 H + 1 and D = 2 - H; valid for 0 < H < 1 only.
    """
    if not 0.0 < hurst < 1.0:
        raise OutOfRangeError(f"hurst must lie in (0, 1), got {hurst}")
    return 2.0 * hurst + 1.0, 2.0 - hurst
