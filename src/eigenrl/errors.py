"""Exception types shared across the package."""


class EigenrlError(Exception):
    """Base class for every error raised by this package."""


class NotHermitian(EigenrlError):
    """Matrix is not Hermitian within tolerance."""


class NoConvergence(EigenrlError):
    """Iterative diagonalizer exhausted its sweep budget."""


class DimMismatch(EigenrlError):
    """Operands have incompatible dimensions."""


class OutOfRange(EigenrlError):
    """Integer argument lies outside its permitted range."""


class BadDim(EigenrlError):
    """Hilbert-space dimension is unsupported."""


class StageOverflow(EigenrlError):
    """Attempt to advance past the final learning stage."""


class ConfigError(EigenrlError):
    """Configuration file or value is malformed."""


class ModeMismatch(ConfigError):
    """Fidelity aggregation mode is incompatible with the configured environments."""


class NotNormalized(EigenrlError):
    """Born weights of a measured state do not sum to 1."""
