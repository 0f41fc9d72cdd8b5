"""Exception types shared across the library."""


class WscheborError(Exception):
    """Base class for library errors."""


class ParameterError(WscheborError, ValueError):
    """A parameter is outside its admissible domain."""


class ResolutionError(WscheborError):
    """A smoothing scale is too small for the grid resolution."""


class CoverageError(WscheborError):
    """A source path does not cover the window needed by an operation."""


class QuadratureError(WscheborError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SynthesisError(WscheborError):
    """All synthesis routes for a Gaussian path failed."""


class ConfigError(WscheborError, ValueError):
    """An experiment configuration is invalid.

    Attributes
    ----------
    field : str
        Name of the offending configuration field.
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
