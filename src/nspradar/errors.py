"""Exception hierarchy shared across the simulator."""

from __future__ import annotations


class NspRadarError(Exception):
    """Base class for all package errors."""


class NumericFailure(NspRadarError):
    """A numerical routine (e.g. SVD) failed to converge."""


class ConfigurationError(NspRadarError):
    """Invalid experiment or detector configuration.  `field` names the
    `ExperimentPlan` field at fault, where the check reads one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
