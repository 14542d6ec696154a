"""Exception types raised across the package."""


class DickesimError(Exception):
    """Base class for all package-specific errors."""


class ZeroVectorError(DickesimError, ValueError):
    """A polarization vector with both components zero."""


class NoExcitedPopulationError(DickesimError):
    """A detection annihilated the register (no excited amplitude left)."""


class ResidualExcitationError(DickesimError):
    """Symmetric projection requested while excited amplitude remains."""


class AsymmetricResidueError(DickesimError):
    """Symmetric projection would discard a non-negligible part of the norm."""


class DimensionMismatchError(DickesimError, ValueError):
    """Operands describe systems of different size."""


class ZeroStateError(DickesimError):
    """A state vector vanished where a physical state was required."""


class RootFindingError(DickesimError):
    """Polynomial root extraction failed to produce usable roots."""


class WrongArityError(DickesimError, ValueError):
    """Operation defined for a fixed system size got a different one."""


class InvalidKetError(DickesimError, ValueError):
    """A computational ket string violates the expected alphabet."""


class TooLargeError(DickesimError, ValueError):
    """Requested output would be unreasonably large."""


class ConfigError(DickesimError, ValueError):
    """Problem with a configuration file or CLI input."""


class ClassDisagreementError(DickesimError):
    """Configuration-based and state-based classifications disagree."""
