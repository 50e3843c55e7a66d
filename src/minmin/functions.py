"""Profile functions of one variable with two analytic derivatives.

Surfaces in this library are assembled from single-variable profiles, and
every curvature formula reads their first and second derivatives and nothing
higher.  C3Function bundles a value callable with its analytic d1 and d2.
"""

from __future__ import annotations

import numpy as np


def evaluate(fn, x):
    """fn at x: a float for a float, an array of x's shape for a numpy array.

    fn takes the whole array in one call, and a constant result (lambda x: 0.0)
    is broadcast to one value per element.
    """
    if not isinstance(x, np.ndarray):
        return float(fn(x))
    value = fn(x)
    if isinstance(value, np.ndarray) and value.shape == x.shape:
        return value
    return np.full(x.shape, value, dtype=float)


def _horner(c: list, x0):
    """x -> sum_k c[k] (x - x0)^k by Horner's rule, the steps of numpy's
    polyval without its per-call set-up, on scalars and arrays.

    Coefficients and x0 of shape (N,) give N polynomials stacked by row: an x
    of shape (..., N) is evaluated row by row along its last axis."""
    shift = np.ndim(x0) > 0 or x0 != 0.0

    def value(x):
        t = x - x0 if shift else x
        y = c[-1]
        for a in c[-2::-1]:
            y = a + y * t
        return y

    return value


def _horner_chain(coeffs, x0=0.0) -> list:
    """Horner evaluators of sum_k coeffs[k] (x - x0)^k and its first two
    derivatives; the derivative coefficients k c_k are those of numpy's polyder.

    coeffs of shape (K,) are kept as Python floats; coeffs of shape (K, N)
    with x0 a float or of shape (N,) stack N polynomials by row."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 1:
        c, x0 = [float(v) for v in coeffs], float(x0)
    else:
        c, x0 = list(coeffs), np.asarray(x0, dtype=float)
    fns = []
    for _ in range(3):
        fns.append(_horner(c, x0))
        c = [k * c[k] for k in range(1, len(c))] or [0.0]
    return fns


def _int_power(x, k: int):
    """x^k for an integer k >= 0 by repeated multiplication, on a float or an
    array; the 0th power is the constant 1.0 (see evaluate).  Unlike pow, the
    cost does not depend on the sign of x."""
    if k == 0:
        return 1.0
    y = x
    for _ in range(k - 1):
        y = y * x
    return y


class C3Function:
    """A function of one variable with its analytic derivatives d1 and d2.

    Its callables take a float or a whole numpy array, and every evaluation
    returns a float or an array of the argument's shape (see evaluate).  N
    profiles stacked by row (see taylor) take arrays whose last axis has N
    elements, one per row, and d1_rows evaluates f' on some of the rows.
    """

    def __init__(self, f, d1, d2, domain=None, d1_rows=None):
        self.f = f
        self._d1 = d1
        self._d2 = d2
        self.domain = (-np.inf, np.inf) if domain is None else tuple(domain)
        self._d1_rows = d1_rows  # rows -> f' of those rows, for a stack

    def d1_rows(self, rows):
        """f' of the rows rows (an index array) of a stack, as a callable whose
        argument's last axis runs over those rows: element e is a point of row
        rows[e], with the bits d1 gives it on the whole stack.  A profile that
        is not stacked by row has one f' for every row: d1 itself."""
        return self.d1 if self._d1_rows is None else self._d1_rows(rows)

    def __call__(self, x):
        return evaluate(self.f, x)

    def d1(self, x):
        return evaluate(self._d1, x)

    def d2(self, x):
        return evaluate(self._d2, x)

    def scaled(self, lam: float, mu: float = 1.0) -> "C3Function":
        """The rescaled profile x -> lam * f(mu * x)."""
        f = self.f
        lo, hi = self.domain
        dom = tuple(sorted((lo / mu, hi / mu))) if mu != 0 else (-np.inf, np.inf)

        def d1_rows(rows):
            d1 = self.d1_rows(rows)
            return lambda x: lam * mu * d1(mu * x)

        return C3Function(
            lambda x: lam * f(mu * x),
            lambda x: lam * mu * self.d1(mu * x),
            lambda x: lam * mu * mu * self.d2(mu * x),
            dom,
            None if self._d1_rows is None else d1_rows,
        )

    def shifted(self, c: float) -> "C3Function":
        """The profile x -> f(x) + c, with the same derivative callables."""
        f = self.f
        return C3Function(lambda x: f(x) + c, self._d1, self._d2, self.domain,
                          self._d1_rows)

    # ---- constructors ----------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs, x0=0.0) -> "C3Function":
        """Polynomial sum_k coeffs[k] * (x - x0)^k with analytic derivatives;
        coeffs of shape (K, N) with x0 a float or of shape (N,) stack N
        polynomials by row (see _horner_chain and d1_rows)."""
        coeffs = np.asarray(coeffs, dtype=float)
        fns = _horner_chain(coeffs, x0)
        if coeffs.ndim == 1:
            return cls(*fns)
        x0 = np.asarray(x0, dtype=float)

        def d1_rows(rows):
            # the f' coefficients k c_k of _horner_chain, of those rows
            c1 = coeffs[1:, rows] * np.arange(1.0, len(coeffs))[:, None]
            fn = _horner(list(c1) or [0.0], x0[rows] if x0.ndim else x0)
            return lambda x: evaluate(fn, x)

        return cls(*fns, d1_rows=d1_rows)

    @classmethod
    def taylor(cls, x0, derivs) -> "C3Function":
        """Polynomial with prescribed value and derivatives at x0.

        derivs = (f(x0), f'(x0), f''(x0), ...); the result is the Taylor
        polynomial around x0, so its derivatives at x0 are exactly derivs.
        With x0 of shape (N,) and derivs of shape (K, N) it is N polynomials
        stacked by row: at x of shape (..., N), row i takes the same Horner
        steps, and so the same bits, as the profile of x0[i] and derivs[:, i].
        """
        d = np.asarray(derivs, dtype=float)
        fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, len(d)))))
        return cls.polynomial((d.T / fact).T, x0)

    @classmethod
    def linear(cls, a: float, b: float = 0.0) -> "C3Function":
        """a*x + b."""
        return cls.polynomial([b, a])

    @classmethod
    def power_even(cls, coeff: float, m: int) -> "C3Function":
        """coeff * x^(2m), the separable building block; its powers are
        products of x (see _int_power)."""
        k = 2 * m
        return cls(
            lambda x: coeff * _int_power(x, k),
            lambda x: coeff * k * _int_power(x, k - 1),
            lambda x: coeff * k * (k - 1) * _int_power(x, k - 2),
        )

    @classmethod
    def neg_log_cos(cls, sign: float = 1.0) -> "C3Function":
        """sign * (-log cos x): slope sign*tan x, the classical saddle profile."""
        return cls(
            lambda x: -sign * np.log(np.cos(x)),
            lambda x: sign * np.tan(x),
            lambda x: sign / np.cos(x) ** 2,
        )

    @classmethod
    def log_abs(cls, coeff: float, inner: float = 1.0) -> "C3Function":
        """coeff * log(inner * |x|), defined away from x = 0."""
        return cls(
            lambda x: coeff * np.log(inner * abs(x)),
            lambda x: coeff / x,
            lambda x: -coeff / x**2,
        )
