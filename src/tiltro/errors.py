"""Error taxonomy for the odometry stack.

Every recoverable failure raised by a pipeline component derives from
:class:`TiltroError`, so the scan loop (and the CLI) can map any of them to a
controlled miss / exit code rather than a crash.
"""


class TiltroError(Exception):
    """Base class for all recoverable errors raised by this package."""


# --- IMU / attitude -------------------------------------------------------


class InsufficientData(TiltroError):
    """Data span is shorter than the requested window."""


class NotStatic(TiltroError):
    """Static-window assumption violated (motion or implausible bias)."""


class ExtrapolationTooFar(TiltroError):
    """Attitude query outside the track span beyond the allowed margin."""


# --- scan processing ------------------------------------------------------


class AllPointsRejected(TiltroError):
    """Tilt gating removed every point of the cloud."""


class EmptyReference(TiltroError):
    """Reference cloud for matching is empty."""


class NoCorrespondences(TiltroError):
    """Too few source points found neighbors within the match radius."""


# --- simulation -----------------------------------------------------------


class InvalidScenario(TiltroError):
    """Scenario description is inconsistent or degenerate."""


# --- evaluation -----------------------------------------------------------


class TrajectoryTooShort(TiltroError):
    """Trajectory overlap or arc length too short for the requested metric."""


# --- file formats ---------------------------------------------------------


class FormatError(TiltroError):
    """Base class for file parsing failures."""


class BadMagic(FormatError):
    """Binary scan file does not start with the expected magic bytes."""


class UnsupportedVersion(FormatError):
    """Binary scan file declares a version this reader does not handle."""


class TruncatedFile(FormatError):
    """File ends before the declared payload is complete."""


class MalformedRow(FormatError):
    """CSV row failed to parse; message carries the 1-based line number."""


class NonMonotonicTimestamp(FormatError):
    """Timestamp column is not in the required order."""


class ConfigError(FormatError):
    """Config or scenario file is syntactically or semantically invalid."""
