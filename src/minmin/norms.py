"""The 2m-norm on R^(n+1): gauge function, signed fractional powers, Birkhoff normals.

The norm is ||x|| = (sum_i x_i^(2m))^(1/(2m)) for a positive integer m; m = 1 is
the Euclidean norm.  The Birkhoff normal of a hypersurface is the unit vector
whose tangent space on the unit sphere is parallel to the surface's tangent
space; it is characterised by grad(Phi) at the normal being a positive multiple
of the Euclidean normal direction, where Phi(x) = sum_i x_i^(2m).

All fractional powers carry exponents as integer pairs (num, den) with odd den,
so that negative bases take the real odd root instead of a float NaN.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePointError, DimensionMismatchError, DomainError


@dataclass(frozen=True)
class NormParams:
    """Norm exponent parameter m and ambient dimension dim = n + 1 (>= 3)."""

    m: int
    dim: int

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise DomainError(f"m must be a positive integer, got {self.m!r}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 3:
            raise DomainError(f"dim must be an integer >= 3, got {self.dim!r}")

    @property
    def n(self) -> int:
        """Number of surface parameters (dim - 1)."""
        return self.dim - 1


@dataclass(frozen=True)
class BirkhoffNormal:
    """Unit Birkhoff normal eta together with the normalizer A^(-1/(2m))."""

    eta: np.ndarray
    scale: float | np.ndarray


def _check_dim(x: np.ndarray, expected: int):
    if x.shape != (expected,):
        raise DimensionMismatchError(
            f"vector has shape {x.shape}, expected ({expected},)"
        )
    if not np.isfinite(x).all():
        raise DomainError("vector has non-finite entries")


def _check_stack(x: np.ndarray, expected: int, what: str):
    """Like _check_dim for a stack of vectors along the last axis."""
    if x.ndim == 0 or x.shape[-1] != expected:
        raise DimensionMismatchError(
            f"{what} has shape {x.shape}, expected (..., {expected})"
        )
    if not np.isfinite(x).all():
        raise DomainError(f"{what} has non-finite entries")


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right, so every stacked vector sees the
    same rounding as a Python sum over it, whatever the batch around it."""
    total = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        total += x[..., k]
    return total


def phi(x, p: NormParams) -> float:
    """Gauge function: sum of 2m-th powers of the coordinates."""
    x = np.asarray(x, dtype=float)
    _check_dim(x, p.dim)
    return float(np.sum(x ** (2 * p.m)))


def norm_2m(x, p: NormParams) -> float:
    """The 2m-norm, phi(x)^(1/(2m))."""
    return phi(x, p) ** (1.0 / (2 * p.m))


def grad_phi(x, p: NormParams) -> np.ndarray:
    """Gradient of the gauge function: component i is 2m * x_i^(2m-1)."""
    x = np.asarray(x, dtype=float)
    _check_dim(x, p.dim)
    return 2 * p.m * x ** (2 * p.m - 1)


def signed_pow(x, num: int, den: int):
    """Real power x^(num/den) with odd den, through the signed real root.

    Returns sign(x)^num * |x|^(num/den).  Continuous at 0 for num > 0; num = 0
    gives 1; a zero base with num < 0 is a domain error.  x is a float or an
    array, and a float is taken as a 0-d array: the power is taken elementwise
    with the C library's pow (as np.float_power does), and a float gives a
    float, bitwise the element an array holding it gives.
    """
    if den <= 0 or den % 2 == 0:
        raise DomainError(f"denominator must be an odd positive integer, got {den}")
    x = np.asarray(x, dtype=float)
    if num < 0 and np.any(x == 0.0):
        raise DomainError("zero base with negative exponent")
    mag = np.float_power(np.abs(x), num / den)
    out = np.where(x < 0.0, -mag, mag) if num % 2 else mag
    return float(out) if out.ndim == 0 else out


def birkhoff_normal_graph(grad_f, p: NormParams) -> BirkhoffNormal:
    """Birkhoff normal of a graph hypersurface from the gradient of its height.

    The graph (u, f(u)) is the implicit surface f(u) - x_{n+1} = 0 turned
    upward, so its normal is the implicit one of (-grad_f, 1):
        eta = A^(-1/(2m)) * (-(f_u1)^(1/(2m-1)), ..., -(f_un)^(1/(2m-1)), 1)
    with A = 1 + sum_i (f_ui)^(2m/(2m-1)).  A stack of gradients (..., n)
    gives a stack of normals, and scale is then an array.
    """
    g = np.asarray(grad_f, dtype=float)
    _check_stack(g, p.dim - 1, "grad_f")
    return birkhoff_normal_implicit(
        np.concatenate([-g, np.ones(g.shape[:-1] + (1,))], axis=-1), p
    )


def birkhoff_normal_implicit(grad_F, p: NormParams) -> BirkhoffNormal:
    """Birkhoff normal of an implicit hypersurface from its defining gradient.

    eta = A^(-1/(2m)) * ((F_1)^(1/(2m-1)), ..., (F_dim)^(1/(2m-1))) with
    A = sum_i (F_i)^(2m/(2m-1)); grad(Phi) at eta is a positive multiple of
    grad_F.  A zero gradient has no normal direction.  A stack of gradients
    (..., dim) gives a stack of normals, and scale is then an array.
    """
    g = np.asarray(grad_F, dtype=float)
    _check_stack(g, p.dim, "grad_F")
    m = p.m
    A = _sum_last(signed_pow(g, 2 * m, 2 * m - 1))
    if np.any(A == 0.0):
        raise DegeneratePointError("zero gradient: degenerate point")
    return _normal(signed_pow(g, 1, 2 * m - 1), np.float_power(A, -1.0 / (2 * m)))


def _normal(comps: np.ndarray, scale: np.ndarray) -> BirkhoffNormal:
    eta = scale[..., None] * comps
    return BirkhoffNormal(eta=eta, scale=float(scale) if scale.ndim == 0 else scale)
