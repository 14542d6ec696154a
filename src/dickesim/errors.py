"""Exception types raised across the package."""


class DickesimError(Exception):
    """Base class for all package-specific errors."""


class ResidualExcitationError(DickesimError):
    """Symmetric projection requested while excited amplitude remains."""


class AsymmetricResidueError(DickesimError):
    """Symmetric projection would discard a non-negligible part of the norm."""


class DimensionMismatchError(DickesimError, ValueError):
    """Operands differ in system size, or a fixed-size operation got another size."""


class ZeroStateError(DickesimError):
    """A state vector vanished where a physical state was required."""


class RootFindingError(DickesimError):
    """Polynomial root extraction failed to produce usable roots."""


class TooLargeError(DickesimError, ValueError):
    """Requested output would be unreasonably large."""


class ConfigError(DickesimError, ValueError):
    """Problem with a configuration file, CLI input or argument value."""
