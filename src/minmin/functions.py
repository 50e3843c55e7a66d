"""Scalar profile functions with derivatives up to order three.

Surfaces in this library are assembled from single-variable profiles; curvature
formulas need their first and second derivatives and the separation analysis
occasionally the third.  C3Function bundles a value callable with d1, d2, d3,
filling any missing derivative with 5-point central finite differences.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(float).eps


def _fd1(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def _fd2(f, x, h):
    return (
        -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)
    ) / (12 * h * h)


def _fd3(f, x, h):
    return (
        -f(x + 3 * h)
        + 8 * f(x + 2 * h)
        - 13 * f(x + h)
        + 13 * f(x - h)
        - 8 * f(x - 2 * h)
        + f(x - 3 * h)
    ) / (8 * h**3)


def _horner(c: list, x0: float):
    """x -> sum_k c[k] (x - x0)^k by Horner's rule, the steps of numpy's
    polyval without its per-call set-up, on scalars and arrays."""

    def value(x):
        t = x - x0 if x0 else x
        y = c[-1]
        for a in c[-2::-1]:
            y = a + y * t
        return y

    return value


def _horner_chain(coeffs, x0: float = 0.0) -> list:
    """Horner evaluators of sum_k coeffs[k] (x - x0)^k and its first three
    derivatives; the derivative coefficients k c_k are those of numpy's polyder."""
    fns = []
    c = [float(v) for v in coeffs]
    x0 = float(x0)
    for _ in range(4):
        fns.append(_horner(c, x0))
        c = [k * c[k] for k in range(1, len(c))] or [0.0]
    return fns


# central-difference rule and step exponent by the number of orders it adds
_FD_RULES = {1: (_fd1, 0.2), 2: (_fd2, 1.0 / 6.0), 3: (_fd3, 1.0 / 7.0)}


def _order(known, k: int):
    """The k-th derivative from known = (f, d1, d2, d3): its own callable, or a
    central difference of the highest analytic order below it."""
    base = k
    while known[base] is None:
        base -= 1
    if base == k:
        return known[k]
    rule, power = _FD_RULES[k - base]
    g = known[base]
    return lambda x: rule(g, x, _EPS ** power * (1.0 + abs(x)))


class C3Function:
    """A scalar function of one variable with derivatives of orders 1-3.

    Analytic derivatives are used where supplied; missing ones fall back to
    5-point central stencils on the highest available analytic order.

    Every evaluation also takes a numpy array and returns an array of its
    shape.  The callables of the built-in constructors (and of scaled and
    shifted copies of them) take the whole array; any other callable, which
    may be scalar-only (math.exp, a Newton inversion), is called once per
    element, so it sees exactly the scalars it would see without arrays.
    """

    # set by the built-in constructors, whose callables are numpy expressions
    _vectorized = False

    def __init__(self, f, d1=None, d2=None, d3=None, domain=None):
        self.f = f
        self._d1 = d1
        self._d2 = d2
        self._d3 = d3
        self.domain = (-np.inf, np.inf) if domain is None else tuple(domain)
        known = (f, d1, d2, d3)
        self._orders = [_order(known, k) for k in range(4)]

    def _on_array(self, order: int, x: np.ndarray) -> np.ndarray:
        fn = self._orders[order]
        if not self._vectorized:
            return np.array([float(fn(v)) for v in x.flat]).reshape(x.shape)
        value = fn(x)
        if isinstance(value, np.ndarray) and value.shape == x.shape:
            return value
        # a constant derivative (lambda x: 0.0) still yields one value per element
        return np.full(x.shape, value, dtype=float)

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self._on_array(0, x)
        return float(self.f(x))

    def d1(self, x):
        if isinstance(x, np.ndarray):
            return self._on_array(1, x)
        return float(self._orders[1](x))

    def d2(self, x):
        if isinstance(x, np.ndarray):
            return self._on_array(2, x)
        return float(self._orders[2](x))

    def d3(self, x):
        if isinstance(x, np.ndarray):
            return self._on_array(3, x)
        return float(self._orders[3](x))

    def scaled(self, lam: float, mu: float = 1.0) -> "C3Function":
        """The rescaled profile x -> lam * f(mu * x)."""
        f = self.f
        lo, hi = self.domain
        dom = tuple(sorted((lo / mu, hi / mu))) if mu != 0 else (-np.inf, np.inf)
        return self._like(
            lambda x: lam * f(mu * x),
            d1=lambda x: lam * mu * self.d1(mu * x),
            d2=lambda x: lam * mu * mu * self.d2(mu * x),
            d3=lambda x: lam * mu**3 * self.d3(mu * x),
            domain=dom,
        )

    def shifted(self, c: float) -> "C3Function":
        """The profile x -> f(x) + c, with the same derivative callables."""
        f = self.f
        return self._like(
            lambda x: f(x) + c, d1=self._d1, d2=self._d2, d3=self._d3,
            domain=self.domain,
        )

    def _like(self, f, **kwargs) -> "C3Function":
        """A plain C3Function that takes arrays the way this one does."""
        return _taking_arrays(C3Function(f, **kwargs), self._vectorized)

    def validate_derivatives(self, points) -> float:
        """Largest relative deviation of d1..d3 from finite differences of f.

        Returns the worst deviation over the sampled points; raises nothing.
        """
        worst = 0.0
        for x in points:
            for order, val, fd in (
                (1, self.d1(x), _fd1(self.f, x, _EPS ** 0.2 * (1 + abs(x)))),
                (2, self.d2(x), _fd2(self.f, x, _EPS ** (1 / 6.0) * (1 + abs(x)))),
                (3, self.d3(x), _fd3(self.f, x, _EPS ** (1 / 7.0) * (1 + abs(x)))),
            ):
                worst = max(worst, abs(val - fd) / (1.0 + abs(fd)))
        return worst

    # ---- constructors ----------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs) -> "C3Function":
        """Polynomial sum_k coeffs[k] * x^k with analytic derivatives."""
        f, d1, d2, d3 = _horner_chain(np.asarray(coeffs, dtype=float))
        return _taking_arrays(cls(f, d1=d1, d2=d2, d3=d3))

    @classmethod
    def taylor(cls, x0: float, derivs) -> "C3Function":
        """Polynomial with prescribed value and derivatives at x0.

        derivs = (f(x0), f'(x0), f''(x0), ...); the result is the Taylor
        polynomial around x0, so its derivatives at x0 are exactly derivs.
        """
        d = np.asarray(derivs, dtype=float)
        fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, len(d)))))
        f, d1, d2, d3 = _horner_chain(d / fact, x0)
        return _taking_arrays(cls(f, d1=d1, d2=d2, d3=d3))

    @classmethod
    def linear(cls, a: float, b: float = 0.0) -> "C3Function":
        """a*x + b."""
        return cls.polynomial([b, a])

    @classmethod
    def power_even(cls, coeff: float, m: int) -> "C3Function":
        """coeff * x^(2m), the separable building block."""
        k = 2 * m
        return _taking_arrays(cls(
            lambda x: coeff * x**k,
            d1=lambda x: coeff * k * x ** (k - 1),
            d2=lambda x: coeff * k * (k - 1) * x ** (k - 2),
            d3=lambda x: coeff * k * (k - 1) * (k - 2) * x ** (k - 3)
            if k >= 3
            else 0.0,
        ))

    @classmethod
    def neg_log_cos(cls, sign: float = 1.0) -> "C3Function":
        """sign * (-log cos x): slope sign*tan x, the classical saddle profile."""
        return _taking_arrays(cls(
            lambda x: -sign * np.log(np.cos(x)),
            d1=lambda x: sign * np.tan(x),
            d2=lambda x: sign / np.cos(x) ** 2,
            d3=lambda x: 2 * sign * np.tan(x) / np.cos(x) ** 2,
        ))

    @classmethod
    def log_abs(cls, coeff: float, inner: float = 1.0) -> "C3Function":
        """coeff * log(inner * |x|), defined away from x = 0."""
        return _taking_arrays(cls(
            lambda x: coeff * np.log(inner * abs(x)),
            d1=lambda x: coeff / x,
            d2=lambda x: -coeff / x**2,
            d3=lambda x: 2 * coeff / x**3,
        ))


def _taking_arrays(fn: C3Function, vectorized: bool = True) -> C3Function:
    """fn, marked as evaluating numpy arrays in one call of its callables."""
    fn._vectorized = vectorized
    return fn
