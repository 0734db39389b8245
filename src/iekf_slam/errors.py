"""Exception hierarchy shared across the library and the CLI.

Each category carries the process exit code the CLI maps it to.
"""


class SlamError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ConfigError(SlamError):
    """Malformed or inconsistent run configuration."""

    exit_code = 2


class ParseError(SlamError):
    """Unreadable or corrupt input file; message carries file/line context."""

    exit_code = 3


class EvaluationError(SlamError):
    """Estimate and reference streams cannot be compared (e.g. disjoint times)."""

    exit_code = 3


class LogDomainError(SlamError):
    """Rotation angle too close to pi for the closed-form logarithm."""

    exit_code = 5


class CorruptedPoseError(SlamError):
    """Rotation block too far from any rotation matrix to renormalize."""

    exit_code = 5


class DegenerateGeometryError(SlamError):
    """Alignment information matrix is singular or ill-conditioned."""

    exit_code = 4


class NoOverlapError(DegenerateGeometryError):
    """Every candidate correspondence exceeds the rejection distance."""


class TimingError(SlamError):
    """Non-positive step or out-of-order timestamps in an event stream."""


class NumericalFailureError(SlamError):
    """Filter covariance lost positive definiteness or a solve blew up."""

    exit_code = 5


class MeasurementRejectedError(SlamError):
    """Update could not be applied; the caller should continue on prediction."""
