"""Exception types raised by the minmin library."""


class MinminError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(MinminError, ValueError):
    """Vector length does not match the ambient dimension."""


class DomainError(MinminError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DegeneratePointError(MinminError, ValueError):
    """Zero gradient: no normal direction exists at this point."""


class SingularConfigurationError(MinminError, ValueError):
    """A profile slope, or a power or sum built from the profiles, vanishes or
    overflows a float where the computation needs a finite nonzero value."""


class OffSurfaceError(MinminError, ValueError):
    """Point does not lie on the implicit surface within tolerance."""


class NonpositiveProfileError(MinminError, ValueError):
    """An X-profile is not strictly positive where it must be."""


class ConstraintViolationError(MinminError, ValueError):
    """Parameter constraint (e.g. zero-sum hyperplane) violated."""


class EmptyDomainError(MinminError, ValueError):
    """Admissible parameter domain is empty."""


class IntegrationError(MinminError, RuntimeError):
    """Profile ODE integration failed (immediate blow-up or unusable step)."""
