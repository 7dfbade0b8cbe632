"""Exception types shared across the package."""


class WedgehullError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WedgehullError):
    """Input lies outside the mathematical domain of an operation."""


class HalfSphereViolation(DomainError):
    """Point is not inside the open half-sphere of a gnomonic chart."""


class DegenerateInput(WedgehullError):
    """Point configuration too degenerate for a reliable facet count."""


class ResourceLimit(WedgehullError):
    """Requested computation exceeds a hard size limit."""


class QuadratureError(WedgehullError):
    """Numerical integration failed to converge."""


class FitError(WedgehullError):
    """Regression input is insufficient or ill-posed."""


class InternalError(WedgehullError):
    """An internal consistency check failed."""
