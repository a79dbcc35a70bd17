"""Exception types shared across the toolkit."""


class FocklabError(ValueError):
    """Base class for toolkit-specific failures."""


class QuadratureError(FocklabError):
    """A quadrature sample was non-finite or a rule was mis-sized."""


class TruncationError(FocklabError):
    """A requested truncation degree cannot represent the object."""


class NonFiniteError(FocklabError):
    """A reported quantity is NaN or infinite."""


class GridExtentError(FocklabError):
    """A grid's cutoff radius is too small for the integrand."""


class PositivityError(FocklabError):
    """An operation that requires a positive measure got a signed one."""


class ConfigError(FocklabError):
    """A run configuration failed validation."""


class ResourceError(FocklabError):
    """Refused before allocating: a run over a resource budget, or N > 4096."""
