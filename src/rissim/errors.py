"""Exception types shared across the simulator."""


class RisSimError(Exception):
    """Base class for domain errors raised by this package."""


class DegenerateGeometryError(RisSimError, ValueError):
    """An endpoint coincides with a panel element (zero path length)."""


class SearchSpaceError(RisSimError, ValueError):
    """Exhaustive search was requested on a space too large to enumerate."""


class UnsupportedConfigurationError(RisSimError, ValueError):
    """Operation defined only for a specific panel configuration (e.g. 2-bit)."""


class MetricUndefinedError(RisSimError, ValueError):
    """A pattern metric has no well-defined value on the given samples."""


class InfeasibleTargetError(RisSimError):
    """The requested operating point cannot be reached within the power cap."""


class ConfigError(RisSimError, ValueError):
    """A config or scenario file failed validation."""
