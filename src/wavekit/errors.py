"""Exception types shared across the toolkit."""


class WavekitError(Exception):
    """Base class for all toolkit errors. exit_code is the command line's
    exit status for one: 2, invalid input, unless its class says otherwise."""

    exit_code = 2


class InvalidSignalError(WavekitError):
    """Signal is empty, non-finite, or has a bad sample spacing."""


class ScaleTooFineError(WavekitError):
    """Requested scale grid reaches below 2*dt."""

    exit_code = 4


class TooFewScalesError(WavekitError):
    """Operation needs more scales than the grid provides."""

    exit_code = 4


class InvalidModelError(WavekitError):
    """IFS model is empty, non-contractive on average, or has bad probabilities."""


class InvalidHurstError(WavekitError):
    """Hurst exponent outside the open interval (0, 1)."""


class NoValidSamplesError(WavekitError):
    """Cone-of-influence exclusion left a scale with no samples."""

    exit_code = 5


class DegenerateFitError(WavekitError):
    """Log-log regression has too few positive entries to fit."""

    exit_code = 5


class OutOfRangeError(WavekitError):
    """Exponent argument outside its documented domain."""
