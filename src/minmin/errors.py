"""Exception types raised by the minmin library, and the size check that
turns an array past numpy's index range into a MemoryError."""

import sys


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


def check_array_size(values: int, what: str) -> None:
    """Raise MemoryError where what needs more float64 values than numpy can
    index (8 * values > sys.maxsize, taken on Python ints): numpy would refuse
    such a size with a ValueError or an OverflowError, and no memory holds it."""
    if 8 * values > sys.maxsize:
        raise MemoryError(f"{what} is past numpy's index range")
