"""Exception types shared across the toolkit."""


class WavekitError(Exception):
    """Base class for all toolkit errors."""


class InvalidSignalError(WavekitError):
    """Signal is empty, non-finite, or has a bad sample spacing."""


class ScaleTooFineError(WavekitError):
    """Requested scale grid reaches below 2*dt."""


class TooFewScalesError(WavekitError):
    """Operation needs more scales than the grid provides."""


class LineTooShortError(WavekitError):
    """Maxima line has too few usable points for exponent regression."""


class InvalidModelError(WavekitError):
    """IFS model is empty, non-contractive on average, or has bad probabilities."""


class InvalidHurstError(WavekitError):
    """Hurst exponent outside the open interval (0, 1)."""


class NoValidSamplesError(WavekitError):
    """Cone-of-influence exclusion left a scale with no samples."""


class DegenerateFitError(WavekitError):
    """Log-log regression has too few positive entries to fit."""


class OutOfRangeError(WavekitError):
    """Exponent argument outside its documented domain."""
