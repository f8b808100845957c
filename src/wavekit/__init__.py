"""Wavelet toolkit for locating singularities and measuring self-similarity
in sampled signals, plus generators for the standard test cases.
"""

__version__ = "0.1.0"

from .errors import (DegenerateFitError, InvalidHurstError, InvalidModelError,
                     InvalidSignalError, NoValidSamplesError,
                     OutOfRangeError, ScaleTooFineError, TooFewScalesError,
                     WavekitError)
from .series import TimeSeries
from .wavelets import Haar, MexicanHat, Morlet, Wavelet, by_name, support_radius
from .transform import (CwtMatrix, MaximaSet, ScaleGrid, Scalogram, cwt_direct,
                        cwt_fft, cwt_maxima, modulus_maxima, scalogram)
from .generate import (AffineMap, IfsModel, NoiseSpec, PointCloud, add_noise,
                       barnsley_tree_model, chaos_game, gen_chirp_jump,
                       gen_eq11, gen_fbm)
from .detect import (DetectionConfig, SingularityEvent, SingularityReport,
                     detect_from_maxima, detect_singularities)
from .selfsim import (EstimationConfig, HurstEstimate, WaveletAutoCovariance,
                      classify_hurst, estimation_grid, exponent_relations,
                      fit_power_law, hurst_from_series, wavelet_autocovariance,
                      wavelet_variance)

__all__ = [
    "__version__",
    "WavekitError", "InvalidSignalError", "ScaleTooFineError",
    "TooFewScalesError", "InvalidModelError",
    "InvalidHurstError", "NoValidSamplesError", "DegenerateFitError",
    "OutOfRangeError",
    "TimeSeries",
    "MexicanHat", "Morlet", "Haar", "Wavelet", "by_name", "support_radius",
    "ScaleGrid", "CwtMatrix", "Scalogram", "MaximaSet",
    "cwt_direct", "cwt_fft", "scalogram", "modulus_maxima", "cwt_maxima",
    "AffineMap", "IfsModel", "PointCloud", "NoiseSpec",
    "barnsley_tree_model", "chaos_game", "gen_fbm", "gen_eq11",
    "gen_chirp_jump", "add_noise",
    "DetectionConfig", "SingularityEvent", "SingularityReport",
    "detect_singularities", "detect_from_maxima",
    "EstimationConfig", "WaveletAutoCovariance", "HurstEstimate",
    "estimation_grid", "wavelet_autocovariance", "wavelet_variance",
    "fit_power_law",
    "hurst_from_series", "exponent_relations", "classify_hurst",
]
