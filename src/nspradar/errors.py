"""Exception hierarchy shared across the simulator."""


class NspRadarError(Exception):
    """Base class for all package errors."""


class NumericFailure(NspRadarError):
    """A numerical routine (e.g. SVD) failed to converge."""


class ConfigurationError(NspRadarError):
    """Invalid experiment or detector configuration."""


class DegenerateDirectionError(NspRadarError):
    """The GLRT denominator vanished: the steering direction lies in the
    projector's kernel (or the projected waveform is zero)."""

