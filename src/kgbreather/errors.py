"""Exception types shared across the package."""


class KgError(Exception):
    """Base class for every error raised by this package."""


class InvalidGrid(KgError):
    """Grid construction rejected (odd point count, too few points, bad length)."""


class IncompatibleDomain(KgError):
    """Initial profile does not fit the periodic domain."""


class InvalidParams(KgError):
    """Parameter set violates its invariants.

    Carries the violation list produced by ``validate_params``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class LengthMismatch(KgError):
    """Sample array length disagrees with the grid."""


class NonFinite(KgError):
    """NaN or Inf appeared where a finite value is required."""


class UnsupportedStageCount(KgError):
    """Requested stage count has no tableau."""


class StageSolveDiverged(KgError):
    """Implicit stage iteration failed to reach the residual tolerance."""

    def __init__(self, message, t=None):
        self.t = t
        super().__init__(message)


class CenterOnLoop(KgError):
    """Winding center coincides with a loop point."""


class CenterOnTrack(KgError):
    """Rotation center coincides with a track sample."""


class NonIntegerWinding(KgError):
    """Accumulated angle is not close to a whole number of turns."""


class DegenerateLoop(KgError):
    """Loop collapsed to a single point."""


class InsufficientData(KgError):
    """Run output is missing, truncated, altered or too short to use."""


class ConfigParseError(KgError):
    """Config text could not be parsed; carries line number and key."""

    def __init__(self, message, line=None, key=None):
        self.line = line
        self.key = key
        super().__init__(message)


class MissingSnapshot(KgError):
    """Requested plot time is not present in the run output."""
