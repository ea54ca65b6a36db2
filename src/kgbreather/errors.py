"""Exception types shared across the package."""


class KgError(Exception):
    """Base class for every error raised by this package."""


class InvalidParams(KgError):
    """A parameter breaks a rule; carries the violations, from validate_params or from one check."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class LengthMismatch(KgError):
    """Sample array length disagrees with the grid."""


class NonFinite(KgError):
    """NaN or Inf appeared where a finite value is required; from a step, t is the end of that step."""

    def __init__(self, message, t=None):
        self.t = t
        super().__init__(message)


class StageSolveDiverged(KgError):
    """Implicit stage iteration failed to reach the residual tolerance; t is the start of that step."""

    def __init__(self, message, t=None):
        self.t = t
        super().__init__(message)


class CenterOnLoop(KgError):
    """Winding center coincides with a loop point."""


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
