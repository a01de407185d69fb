"""Exception hierarchy shared across the simulator."""


class NspRadarError(Exception):
    """Base class for all package errors."""


class NumericFailure(NspRadarError):
    """A numerical routine (e.g. SVD) failed to converge."""


class ConfigurationError(NspRadarError):
    """Invalid experiment or detector configuration."""

