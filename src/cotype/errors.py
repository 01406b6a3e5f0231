"""Exception types shared across the package."""


class CotypeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CotypeError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ResourceLimitError(CotypeError):
    """An enumeration or sampling run would exceed its resource budget."""


class PrimeMismatchError(DomainError):
    """Two p-group arguments live over different primes."""


class RankExceedsDimensionError(DomainError):
    """A p-group of rank r was passed where rank <= d is required."""


class NotWeaklyDecreasingError(DomainError):
    """An exponent tuple is not weakly decreasing."""


class LabelMismatchError(CotypeError, ValueError):
    """Empirical and theoretical outcome label sets do not align."""
