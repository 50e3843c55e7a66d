"""Profile functions of one variable with two analytic derivatives.

Surfaces in this library are assembled from single-variable profiles, and
every curvature formula reads their first and second derivatives and nothing
higher.  C3Function bundles a value callable with its analytic d1 and d2.

A separable surface has one profile per coordinate, and ProfileColumns is
their table: f, f' or f'' of every column of an array (..., dim) in one call,
and f' at any stencil cells from each cell's column (and row).  Any sequence
of profiles is a table that loops over its columns.  A table of one formula
with per-column data evaluates every column in one numpy pass: PowerColumns
(a_i x^(2m) + b_i), TaylorColumns (Taylor polynomials, one per row and
column) and translation.SampledColumns (cubic Hermites over ODE nodes).  It
holds its formula once: its profile i is a view that evaluates the one-column
table column(i) (on_column), and so has the table's bits by construction.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatchError


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
    polyval without its per-call set-up, on scalars and arrays; array
    coefficients and x0 (a table's, see TaylorColumns) broadcast against x."""
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
    derivatives, coefficients (K,) kept as Python floats; the derivative
    coefficients k c_k are those of numpy's polyder."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1:
        raise DimensionMismatchError(f"expected coefficients (K,), got {coeffs.shape}")
    c, x0 = [float(v) for v in coeffs], float(x0)
    fns = []
    for _ in range(3):
        fns.append(_horner(c, x0))
        c = [k * c[k] for k in range(1, len(c))] or [0.0]
    return fns


def _taylor_coefficients(derivs) -> np.ndarray:
    """derivs[k] / k!, the Taylor coefficients of f, f', f'', ... (K, ...)."""
    d = np.asarray(derivs, dtype=float)
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, len(d)))))
    return d / fact.reshape((-1,) + (1,) * (d.ndim - 1))


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
    returns a float or an array of the argument's shape (see evaluate).
    """

    def __init__(self, f, d1, d2, domain=None):
        self.f = f
        self._d1 = d1
        self._d2 = d2
        self.domain = (-np.inf, np.inf) if domain is None else tuple(domain)

    def __call__(self, x):
        return evaluate(self.f, x)

    def d1(self, x):
        return evaluate(self._d1, x)

    def d2(self, x):
        return evaluate(self._d2, x)

    def scaled(self, lam: float) -> "C3Function":
        """The rescaled profile x -> lam * f(x), on the same domain."""
        f = self.f
        return C3Function(lambda x: lam * f(x), lambda x: lam * self.d1(x),
                          lambda x: lam * self.d2(x), self.domain)

    # ---- constructors ----------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs, x0=0.0) -> "C3Function":
        """Polynomial sum_k coeffs[k] * (x - x0)^k with analytic derivatives."""
        return cls(*_horner_chain(coeffs, x0))

    @classmethod
    def taylor(cls, x0, derivs) -> "C3Function":
        """Polynomial with prescribed value and derivatives at x0.

        derivs = (f(x0), f'(x0), f''(x0), ...); the result is the Taylor
        polynomial around x0, so its derivatives at x0 are exactly derivs.
        """
        return cls.polynomial(_taylor_coefficients(derivs), x0)

    @classmethod
    def linear(cls, a: float) -> "C3Function":
        """a*x."""
        return cls.polynomial([0.0, a])

    @classmethod
    def log_abs(cls, coeff: float, inner: float = 1.0) -> "C3Function":
        """coeff * log(inner * |x|), defined away from x = 0."""
        return cls(
            lambda x: coeff * np.log(inner * abs(x)),
            lambda x: coeff / x,
            lambda x: -coeff / x**2,
        )


def on_column(fn, x):
    """fn of a one-column table at x, a float or an array: fn evaluates
    x[..., None], and the result's column [..., 0] is returned in x's shape."""
    x = np.asarray(x, dtype=float)
    return fn(x[..., None])[..., 0].reshape(x.shape)


def _column_view(table) -> C3Function:
    """The profile of the one-column table table: its f, f' and f'' are the
    table's, read through on_column, so the profile has the table's bits."""
    return C3Function(*(functools.partial(on_column, fn)
                        for fn in (table, table.d1, table.d2)))


def _columns(fns, x: np.ndarray) -> np.ndarray:
    """fns[i](x[..., i]) for every i, as the columns of one array shaped like x."""
    out = np.empty(x.shape)
    for i, fn in enumerate(fns):
        out[..., i] = fn(x[..., i])
    return out


# f_{n+1}(x) = -x: the profile that makes x_{n+1} = sum f_i(u_i) separable
_HEIGHT = C3Function.linear(-1.0)


class ProfileColumns:
    """The profiles f_1, ..., f_dim of a separable surface as one table.

    A table takes an array x (..., dim) whose column i is the argument of
    f_i: table(x), d1(x) and d2(x) give f, f' and f'' of every column as one
    array shaped like x, and slopes_at gives f' at stencil cells.  It is a
    sequence of its per-column profiles (profiles), and gives the bits they
    give.  This class is the table of any sequence of profiles, one call per
    column; a table of one formula evaluates all columns at once, and its
    profiles are views of its one-column tables.
    """

    def __init__(self, fs):
        self.profiles = tuple(fs)

    @functools.cached_property
    def profiles(self) -> tuple:
        """The profiles of a table of one formula: profile i is the view of
        its one-column table column(i) (_column_view)."""
        return tuple(_column_view(self.column(i)) for i in range(len(self)))

    def __len__(self) -> int:
        return len(self.profiles)

    def __getitem__(self, i):
        return self.profiles[i]

    def __iter__(self):
        return iter(self.profiles)

    def __call__(self, x):
        return _columns(self.profiles, x)

    def d1(self, x):
        return _columns([f.d1 for f in self.profiles], x)

    def d2(self, x):
        return _columns([f.d2 for f in self.profiles], x)

    def derivatives(self, x):
        """(d1(x), d2(x)); a table that takes both from one lookup overrides it."""
        return self.d1(x), self.d2(x)

    def slopes_at(self, y, col, row):
        """f' at the cells y: cell e takes the profile of column col[e] (of
        row row[e], for a table stacked by row); col and row broadcast against
        y.  Here one call per column, on the cells of that column."""
        out = np.empty(y.shape)
        cells = np.empty(y.shape, dtype=np.intp)
        cells[...] = col
        for i, f in enumerate(self.profiles):
            mine = cells == i
            out[mine] = f.d1(y[mine])
        return out

    def rows(self, part) -> "ProfileColumns":
        """The table of the base rows part (a slice): this one, shared by every row."""
        return self

    def graph(self) -> "ProfileColumns":
        """The table of the translation graph x_{n+1} = sum f_i(x_i) as the
        separable surface f_1(x_1) + ... + f_n(x_n) - x_{n+1} = 0: these
        columns and the height column -x."""
        return ProfileColumns(self.profiles + (_HEIGHT,))


def profile_columns(fs) -> ProfileColumns:
    """fs as a table: a table itself, or the table of a sequence of profiles."""
    return fs if isinstance(fs, ProfileColumns) else ProfileColumns(fs)


class PowerColumns(ProfileColumns):
    """The power sums f_i(x) = a_i x^(2m) + b_i, coefficient rows a, b (dim,).

    With k = 2m, f = a x^k + b, f' = (a k) x^(k-1) and f'' = ((a k)(k-1))
    x^(k-2), whose powers are products of x (_int_power); f'' at m = 1 is a
    constant broadcast to the argument's shape.
    """

    def __init__(self, a, b, m: int):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.m = m
        self._a1 = self.a * (2 * m)
        self._a2 = self._a1 * (2 * m - 1)

    def __len__(self) -> int:
        return len(self.a)

    def column(self, i: int) -> "PowerColumns":
        return PowerColumns(self.a[i:i + 1], self.b[i:i + 1], self.m)

    def __call__(self, x):
        return self.a * _int_power(x, 2 * self.m) + self.b

    def d1(self, x):
        return self._a1 * _int_power(x, 2 * self.m - 1)

    def d2(self, x):
        if self.m == 1:
            return np.broadcast_to(self._a2, x.shape).copy()
        return self._a2 * _int_power(x, 2 * self.m - 2)

    def slopes_at(self, y, col, row):
        return self._a1[col] * _int_power(y, 2 * self.m - 1)


class TaylorColumns(ProfileColumns):
    """Polynomials stacked by row and column: the profile of row r and
    column i is sum_k coeffs[k, r, i] (x - x0[r, i])^k, coeffs (K, N, dim)
    with K >= 3 about x0 (N, dim).  Its arrays are (..., N, dim), and each
    element takes the Horner steps, and so the bits, of C3Function.polynomial
    of its row and column; profile i takes arrays (..., N), one row each."""

    def __init__(self, x0, coeffs):
        self.x0 = np.asarray(x0, dtype=float)
        self.coeffs = c = np.asarray(coeffs, dtype=float)
        # the derivative coefficients k c_k of _horner_chain
        self._c1 = c[1:] * np.arange(1.0, len(c))[:, None, None]
        self._c2 = self._c1[1:] * np.arange(1.0, len(c) - 1)[:, None, None]

    @classmethod
    def taylor(cls, x0, derivs) -> "TaylorColumns":
        """The Taylor polynomials of derivs (K, N, dim), f and its
        derivatives at x0 (N, dim): those of C3Function.taylor, row by row
        and column by column."""
        return cls(x0, _taylor_coefficients(derivs))

    def __len__(self) -> int:
        return self.x0.shape[-1]

    def column(self, i: int) -> "TaylorColumns":
        return TaylorColumns(self.x0[:, i:i + 1], self.coeffs[..., i:i + 1])

    def __call__(self, x):
        return _horner(list(self.coeffs), self.x0)(x)

    def d1(self, x):
        return _horner(list(self._c1), self.x0)(x)

    def d2(self, x):
        return _horner(list(self._c2), self.x0)(x)

    def slopes_at(self, y, col, row):
        return _horner(list(self._c1[:, row, col]), self.x0[row, col])(y)

    def rows(self, part) -> "TaylorColumns":
        return TaylorColumns(self.x0[part], self.coeffs[:, part])

    def graph(self) -> "TaylorColumns":
        """The graph's table: these columns and -x as the polynomial
        (0, -1, 0, ...) about 0, whose Horner steps give the bits of
        C3Function.linear(-1.0): -x, f' = -1 and f'' = +0.0 exactly."""
        K, N, _ = self.coeffs.shape
        height = np.zeros((K, N, 1))
        height[1] = -1.0
        return TaylorColumns(np.concatenate([self.x0, np.zeros((N, 1))], axis=-1),
                             np.concatenate([self.coeffs, height], axis=-1))
