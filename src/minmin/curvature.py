"""Mean curvature and Weingarten coefficients under the 2m-norm.

One closed form serves both surface kinds: mean_curvature_from_slopes gives H
of the separable implicit surface sum f_i(x_i) = 0 from the slopes f_i', f_i''
and closed_form_from_slopes adds W and eta (separable_closed_form takes the
slopes from the profiles at x).  A translation graph
x_{n+1} = f_1(u_1) + ... + f_n(u_n) is the separable surface
f_1(x_1) + ... + f_n(x_n) - x_{n+1} = 0, so the translation routines evaluate
that surface at (u, sum f_i(u_i)).  An independent oracle recovers the mean
curvature from its definition H = trace(d eta)/n by central differencing the
Birkhoff normal along a chart and reading the derivative through the two
coordinates each parameter moves.

The separable routines work on stacks of points: separable_closed_form,
mean_curvature_oracle and report_separable_batch evaluate N points as arrays
of shape (N, dim), and report_translation_batch N graph points as parameters
of shape (N, n).  The single-point functions are batches of one.  A report is
the comparison: one CurvatureReport of the columns h_analytic, h_oracle and
tangency_defect over a batch's points, computed with H alone, and
failed_checks is the one pass rule, for one point or a stack.  A surface's
profiles are one table (functions.ProfileColumns): f, f' and f'' of all its
columns in one call each, and f' at any stencil cells; a sequence of profiles
is taken as the table that loops over them.  A batch's profiles may be
stacked by row (TaylorColumns), so that each point has profiles of its own;
such a batch has one row per point, and each chunk takes its own rows of the
table (ProfileColumns.rows).  A chart (SeparableChart) holds the base
parameters t0 and the base gradient nu0, and says which coordinates each
parameter moves: parameter j moves the point's coordinate c_j and its pivot
k, and no other.  It is built once per chunk, by gathers from the base
arrays: the closed form takes its slopes from nu0, and the oracle evaluates
the slopes only at the 4n moved coordinates of each point, in one table call,
and reads d eta_j from them with no linear solve (see mean_curvature_oracle).
The surface, its chart and these slopes do not depend on m, which enters only
the powers of the closed form and of the oracle: a batch may give each point
its own m (ms), and a chunk then builds its chart, f'' and stencil slopes
once, takes the powers once per run of equal m, on a slice of its rows, and
does the rest of the arithmetic once.
A chart is data, the same for any coordinates y_i(x_i) in which the gradient
is separable: the chart in x moves along each point's tangent plane, spanned
over the n coordinates other than the pivot, the one of largest slope, so
nothing solves for a coordinate; a chart in other coordinates, such as 6.5's
parameters u, differs only in its data, the speeds dy_i/dx_i above all.

Orientation follows the normal branches of the norms module: aligned with the
defining gradient for implicit surfaces, upward for graphs.  The implicit
normal of a graph lies along (f', -1), so the translation routines change the
sign of H, W and the oracle value.  At m = 1 the graph value is minus the
textbook Euclidean mean curvature computed with respect to the upward normal
and the shape operator -dN.
"""

from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    OffSurfaceError,
    SingularConfigurationError,
)
from .functions import profile_columns
from .norms import NormParams, _sum_last, birkhoff_normal_implicit, signed_pow

_EPS = np.finfo(float).eps

# Default oracle step: optimal for first-order central differences.
ORACLE_STEP_FACTOR = _EPS ** (1.0 / 3.0)

# Largest |sum f_i(x_i)|, relative to max(1, max_i |f_i(x_i)|), at which a
# point counts as on the surface.
ON_SURFACE_TOL = 1e-6


@dataclass
class WeingartenMatrix:
    """Coefficients eta_j^k of the normal's parameter derivatives in the tangent basis.

    entries[j, k] is the coefficient of the k-th tangent vector in the
    derivative of eta along the j-th parameter; trace/n is the mean curvature.
    A stack of matrices (N, n, n) gives the mean curvatures (N,).
    """

    entries: np.ndarray

    @property
    def mean_curvature(self):
        return np.trace(self.entries, axis1=-2, axis2=-1) / self.entries.shape[-1]


@dataclass
class CurvatureReport:
    """Closed-form vs oracle mean curvature: the comparison a report prints, at
    one point (floats) or at a stack of N, whose fields are (N,) columns.  A
    stack has a length and report[i] is one point's report.  The normals and
    Weingarten matrices of the points come from separable_closed_form,
    weingarten_* and birkhoff_normal_*."""

    h_analytic: float | np.ndarray
    h_oracle: float | np.ndarray
    tangency_defect: float | np.ndarray
    tol: float

    def __len__(self) -> int:
        return len(self.h_analytic)

    def __getitem__(self, i: int) -> "CurvatureReport":
        return CurvatureReport(float(self.h_analytic[i]), float(self.h_oracle[i]),
                               float(self.tangency_defect[i]), self.tol)

    @property
    def passed(self):
        """Whether the point passes at the report's tol; an array for a stack."""
        return failed_checks(self, self.tol) == "-"


def failed_checks(report: CurvatureReport, tol: float, h_tol: float | None = None):
    """The first check each point fails, "h" (|h_analytic| > h_tol, when
    h_tol is given), "oracle" (|h_analytic - h_oracle| > tol (1 + |h_analytic|))
    or "defect" (tangency_defect > tol), or "-" where it passes; a NaN fails
    the check it enters.  A str for one point, a str array (N,) for a stack."""
    h = np.asarray(report.h_analytic)
    reason = np.where(report.tangency_defect <= tol, "-", "defect")
    reason = np.where(np.abs(h - report.h_oracle) <= tol * (1 + np.abs(h)),
                      reason, "oracle")
    if h_tol is not None:
        reason = np.where(np.abs(h) <= h_tol, reason, "h")
    return str(reason) if reason.ndim == 0 else reason


def _slope_guard(d1, runs, label: str):
    """Negative fractional powers of the slopes appear only for m >= 2."""
    need = [(m, rows) for m, rows in runs if m >= 2]
    if need and (d1 == 0.0).any():
        for m, rows in need:
            if (d1[rows] == 0.0).any():
                raise SingularConfigurationError(
                    f"{label}: a profile slope vanishes and m = {m} needs its "
                    "negative power")


def _by_run(runs, fn, axis: int = 0):
    """fn(m, rows) of every run of _runs, joined along axis in row order: the
    one run's own array when there is one."""
    if len(runs) == 1:
        return fn(*runs[0])
    return np.concatenate([fn(m, rows) for m, rows in runs], axis=axis)


def _slope_terms(d1, d2, runs, label: str):
    """X_j = (f_j')^(2m/(2m-1)), A = sum X, G_j = (f_j')^(-(2m-2)/(2m-1)) f_j''
    and the residual sum_j G_j (A - X_j), all over the last axis, each run of
    rows at its m (_runs); the powers are taken per run, the rest once.
    Raises where a slope's negative power overflows a float, before the inf
    enters a sum."""
    _slope_guard(d1, runs, label)
    # both exponents have even numerators: signed_pow's powers of |f'|
    size = np.abs(d1)
    X = _by_run(runs, lambda m, rows: np.float_power(size[rows], 2 * m / (2 * m - 1)))
    with np.errstate(over="ignore"):
        P = _by_run(runs, lambda m, rows: np.float_power(size[rows],
                                                         -(2 * m - 2) / (2 * m - 1)))
    if not np.isfinite(P).all():
        raise SingularConfigurationError(
            f"{label}: the power (f')^(-(2m-2)/(2m-1)) of a profile slope "
            "overflows a float")
    A = _sum_last(X)
    G = P * d2
    return X, A, G, _sum_last(G * (A[..., None] - X))


def _stage(stats, name: str):
    return nullcontext() if stats is None else stats.stage(name)


# ---------------------------------------------------------------------------
# the closed form
# ---------------------------------------------------------------------------


def separable_residual_sum(d1, d2, m: int):
    """sum_j (f_j')^(-(2m-2)/(2m-1)) f_j'' (A - (f_j')^(2m/(2m-1))), A = sum X_i.

    The minimality residual of a separable surface; proportional to H by the
    positive factor n(2m-1) A^((2m+1)/(2m)), and polynomial in the slopes at
    m = 1.  Slopes of one point give a float, stacks (..., dim) an array.
    """
    d1 = np.asarray(d1, dtype=float)
    res = _slope_terms(d1, np.asarray(d2, dtype=float), [(m, slice(None))],
                       "minimality residual")[3]
    return float(res) if res.ndim == 0 else res


def mean_curvature_from_slopes(d1, d2, p: NormParams, runs=None) -> np.ndarray:
    """Closed-form H (N,) of sum f_i(x_i) = 0 from the slopes d1 = f_i'(x_i),
    d2 = f_i''(x_i) (N, dim): A^(-(2m+1)/(2m)) / (n (2m-1)) sum_j G_j (A - X_j),
    terms as in closed_form_from_slopes.  runs, when given, is _runs(p, ms, N)
    for each row's m, ms (N,), in place of p.m: only the powers are taken once
    per run of equal m.  Raises where the chart slope f_{n+1}' vanishes, where
    m >= 2 needs the negative power of a vanishing slope and where it overflows."""
    return _closed_form_terms(d1, d2, p, runs or [(p.m, slice(None))])[3]


def _closed_form_terms(d1, d2, p: NormParams, runs):
    """X, A, G (_slope_terms) and H of mean_curvature_from_slopes, one pass."""
    if (d1[:, -1] == 0.0).any():
        raise SingularConfigurationError("chart slope f_{n+1}' vanishes")
    X, A, G, total = _slope_terms(d1, d2, runs, "separable mean curvature")
    return X, A, G, _by_run(runs, lambda m, rows: np.float_power(
        A[rows], -(2 * m + 1) / (2 * m)) / (p.n * (2 * m - 1))) * total


def closed_form_from_slopes(d1, d2, p: NormParams):
    """mean_curvature_from_slopes, with the Weingarten matrices and Birkhoff
    normals of the same slopes, all from one pass of _closed_form_terms.

    Returns H (N,), the Weingarten entries (N, n, n) in the chart that solves
    the last coordinate, and the normals eta (N, dim) along (f_1', ..., f_{n+1}').

    Diagonal:  eta_j^j = A^(-(2m+1)/(2m))/(2m-1) (X_j G_{n+1} + G_j (A - X_j))
    Off-diag:  eta_j^k = A^(-(2m+1)/(2m))/(2m-1) (f_k')^(1/(2m-1))
                         (f_j' G_{n+1} - (f_j')^(1/(2m-1)) f_j'')
    with X_j = (f_j')^(2m/(2m-1)), A = sum X, G_j = (f_j')^(-(2m-2)/(2m-1)) f_j''.
    """
    m, n = p.m, p.n
    X, A, G, H = _closed_form_terms(d1, d2, p, [(m, slice(None))])
    pref = (np.float_power(A, -(2 * m + 1) / (2 * m)) / (2 * m - 1))[:, None, None]
    root = signed_pow(d1, 1, 2 * m - 1)[:, :n]
    g_last = G[:, n, None, None]
    W = pref * root[:, None, :] * (
        d1[:, :n, None] * g_last - root[:, :, None] * d2[:, :n, None]
    )
    j = np.arange(n)
    W[:, j, j] = pref[:, :, 0] * (X[:, :n] * g_last[:, :, 0]
                                  + G[:, :n] * (A[:, None] - X[:, :n]))
    return H, W, birkhoff_normal_implicit(d1, p).eta


def _surface_points(table, points, p: NormParams) -> np.ndarray:
    """points as a float stack (N, dim) of points of sum f_i(x_i) = 0, the
    surface of the profile table; raises unless there are dim profiles and
    |sum f_i(x_i)| <= ON_SURFACE_TOL max(1, max_i |f_i(x_i)|), a bound
    relative to the terms the sum adds up."""
    x = np.asarray(points, dtype=float)
    if len(table) != p.dim or x.ndim != 2 or x.shape[1] != p.dim:
        raise DimensionMismatchError(
            f"expected {p.dim} profiles and (N, {p.dim}) points, "
            f"got {len(table)} and {x.shape}"
        )
    terms = table(x)
    value = _sum_last(terms)
    bound = ON_SURFACE_TOL * np.maximum(1.0, np.abs(terms).max(axis=-1))
    off = np.abs(value) > bound
    if off.any():
        raise OffSurfaceError(
            f"sum f_i(x_i) = {value[off][0]:.3e} exceeds tolerance "
            f"{bound[off][0]:.3e} ({ON_SURFACE_TOL:.1e} x max(1, max_i |f_i(x_i)|))"
        )
    return x


def separable_closed_form(fs, points, p: NormParams):
    """closed_form_from_slopes at a stack (N, dim) of on-surface points of the
    separable surface sum f_i(x_i) = 0, with the slopes taken from fs."""
    table = profile_columns(fs)
    x = _surface_points(table, points, p)
    return closed_form_from_slopes(table.d1(x), table.d2(x), p)


def _one_point(x, size: int) -> np.ndarray:
    """x (size,) as a batch of one, (1, size)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (size,):
        raise DimensionMismatchError(
            f"expected a point with {size} coordinates, got shape {x.shape}"
        )
    return x[None]


def mean_curvature_separable(fs, x, p: NormParams) -> float:
    """Closed-form mean curvature at one point: separable_closed_form of a batch of one."""
    return float(separable_closed_form(fs, _one_point(x, p.dim), p)[0][0])


def weingarten_separable(fs, x, p: NormParams) -> WeingartenMatrix:
    """Weingarten coefficients at one point, in the last-coordinate chart."""
    W = separable_closed_form(fs, _one_point(x, p.dim), p)[1]
    return WeingartenMatrix(entries=W[0])


# ---------------------------------------------------------------------------
# charts and the finite-difference oracle
# ---------------------------------------------------------------------------


class SeparableChart:
    """Separable surface sum f_i(x_i) = 0 charted along its tangent planes.

    A chart of N base points is data (from_data): coordinates y (N, dim) in
    which the defining gradient is separable, y_i a function of x_i alone;
    the base gradient nu0 = f'(x0) (N, dim); the pivots k (N,); the profile
    table whose slopes_at gives the slope of each coordinate as a function of
    y_i (see functions.ProfileColumns); and the speeds dy_i/dx_i (N, dim) at
    the base points (1 for the chart in x).  Parameter j is coordinate
    c_j = j + (j >= k) of each point, so the base parameters t0 (N, n) are y
    there, and it moves the pivot k at the rate dy_k/dt_j = -g_c / g_k,
    g = nu0 / speed, which keeps the point on the tangent plane, and no other
    coordinate, so no other slope.  rate (N, n) is that pivot rate, tc (N, n)
    the ambient tangent's component T[c_j, j] = 1 / speed[c_j], and moved0
    (2, N, n) holds the base slopes at c_j and at k.  All of it is gathered
    from the base arrays, the pivot's data once per point.

    SeparableChart(fs, p, base_points) is the chart in x itself, speed 1, of
    a stack (N, dim) of on-surface points x0 (one point is a stack of one,
    (1, dim)), pivoted at the coordinate k of largest |nu0_k|: parameter j
    moves the point along T_j = e_{c_j} - (nu0_{c_j} / nu0_k) e_k.  The
    normal eta = B(grad F) is defined off the surface too, and along a
    tangent vector its derivative is the shape operator's, so central
    differences of eta along x0 +/- h T_j keep their O(h^2) accuracy with no
    coordinate solved for.  As eta stays on the unit sphere of the norm,
    d eta stays tangent, and the oracle's tangency defect is still a check.
    fs is a profile table or a sequence of profiles (functions.profile_columns);
    a table stacked by row (TaylorColumns) has one row per base point.
    """

    def __init__(self, fs, p: NormParams, base_points):
        table = profile_columns(fs)
        x0 = np.asarray(base_points, dtype=float)
        if x0.ndim != 2 or x0.shape[1] != p.dim:
            raise DimensionMismatchError(
                f"base points must be a stack (N, {p.dim}), got shape {x0.shape}")
        self.x0 = x0
        with np.errstate(over="ignore"):
            nu0 = table.d1(x0)
        if not np.isfinite(nu0).all():
            raise SingularConfigurationError("a profile slope f' overflows a float "
                                             "at a base point")
        size = np.abs(nu0)
        if not size.max(axis=-1).all():
            raise SingularConfigurationError("the gradient vanishes at a base point")
        self._gather(x0, nu0, size.argmax(axis=-1), table, np.ones(x0.shape))

    @classmethod
    def from_data(cls, y, nu0, k, table, speed) -> "SeparableChart":
        """The chart of coordinates y (N, dim) with base gradient nu0 (N, dim),
        pivots k (N,), the profile table of the slopes in y and the speeds
        dy_i/dx_i (N, dim)."""
        chart = cls.__new__(cls)
        chart._gather(y, nu0, k, table, speed)
        return chart

    def _gather(self, y, nu0, k, table, speed):
        """The chart's arrays and its stencil cells' base and column (2, N, n),
        [c_j, k] on axis 0, by gathers from the base arrays."""
        N, dim = y.shape
        n = dim - 1
        self.y0, self.nu0, self.k, self.fs = y, nu0, k, table
        point, pivot = np.arange(N)[:, None], k[:, None]
        self.c = c = np.arange(n) + (np.arange(n) >= pivot)

        def cells(a):
            """a at c_j and at k (axis 0) of every point and parameter."""
            out = np.empty((2, N, n), dtype=a.dtype)
            out[0], out[1] = a[point, c], a[point, pivot]
            return out

        self.moved0 = cells(nu0)
        self._base = cells(y)
        self.t0 = self._base[0]
        moved_speed = cells(speed)
        g = self.moved0 / moved_speed
        self.tc = 1.0 / moved_speed[0]
        self.rate = -g[0] / g[1]
        self._col = np.empty((2, N, n), dtype=np.intp)
        self._col[0], self._col[1] = c, pivot
        self._row = point
        # the moves of the stencil cells per unit step: [+h, -h] x [c_j, k]
        self._moves = np.empty((2, 2, N, n))
        self._moves[0, 0], self._moves[0, 1] = 1.0, self.rate
        np.negative(self._moves[0], out=self._moves[1])

    def moved_slopes(self, h) -> np.ndarray:
        """The slopes at c_j and at k (axis 1) with parameter j moved by +h and
        by -h (axis 0), h of shape (N, n): an array (2, 2, N, n), evaluated
        at the 4n moved coordinates of each point only, in one table call."""
        return self.fs.slopes_at(self._base + h * self._moves, self._col, self._row)

    def point(self, t) -> np.ndarray:
        """The chart's points in y: coordinate c_j moves with t_j and the pivot
        k by sum_j rate_j (t_j - t0_j), which is x0 + T (t - t0) in x.  t is
        (..., N, n), each row taken about its own base point.  The oracle
        never needs it."""
        dt = np.asarray(t, dtype=float) - self.t0
        y = np.array(np.broadcast_to(self.y0, dt.shape[:-1] + self.y0.shape[-1:]))
        point = np.arange(len(self.y0))
        y[..., point[:, None], self.c] += dt
        y[..., point, self.k] += _sum_last(self.rate * dt)
        return y

    def slope_ratio(self) -> float:
        """min_i |nu0_i| / max_i |nu0_i| over the base points, the smallest:
        how well conditioned the chart is (inf for no points)."""
        size = np.abs(self.nu0)
        return float((size.min(axis=-1) / size.max(axis=-1)).min(initial=np.inf))


def _odd_root(g, den: int):
    """g^(1/den) for odd den, real for negative g: g itself, np.cbrt, and
    signed_pow's C-library pow for den >= 5."""
    if den == 1:
        return g
    if den == 3:
        return np.cbrt(g)
    return signed_pow(g, 1, den)


def _gauge_scale(A, m: int):
    """A^(-1/(2m)) through square and cube roots for m <= 3."""
    if m > 3:
        return np.float_power(A, -1.0 / (2 * m))
    root = A if m == 1 else np.sqrt(A) if m == 2 else np.cbrt(A)
    return 1.0 / np.sqrt(root)


def _runs(p: NormParams, ms, count: int):
    """(m, rows) of each run of equal m in the column ms (count,), rows a
    slice, in row order; p.m at every row when ms is None."""
    if ms is not None:
        ms = np.asarray(ms)
        if ms.shape != (count,):
            raise DimensionMismatchError(
                f"expected an m for each of {count} points, got shape {ms.shape}")
    if ms is None or not count:
        return [(p.m, slice(None))]
    cuts = [0, *(np.flatnonzero(ms[1:] != ms[:-1]) + 1).tolist(), count]
    return [(NormParams(ms[a].item(), p.dim).m, slice(a, b))
            for a, b in zip(cuts, cuts[1:])]


def mean_curvature_oracle(chart, p: NormParams, stats=None, runs=None):
    """Mean curvature from the definition trace(d eta)/n by central differences.

    The chart (a SeparableChart, in x or in other coordinates such as 6.5's
    u) says which two coordinates each parameter j moves, c_j and the pivot
    k, and the oracle evaluates the slopes there only, at t0 +/- h e_j.  The
    Birkhoff normal is eta = A^(-1/(2m)) (nu_i^(1/(2m-1)))_i with
    A = sum_i X_i, X_i = nu_i^(2m/(2m-1)), so at a stencil point only
    A = A0 - X0[c_j] - X0[k] + X'[c_j] + X'[k] and the components c_j and k
    are new, and d eta_j elsewhere is the base component times the change of
    A^(-1/(2m)).  d eta_j = sum_l W_jl T_l + d_j nu_hat in the basis of the
    tangents T_l and the unit Euclidean normal nu_hat; every T_l is
    orthogonal to nu_hat, and T[c_j, l] = 0 for l != j, so
        d_j = nu_hat . d eta_j,   W_jj = (d eta_j[c_j] - d_j nu_hat[c_j]) / T[c_j, j]
    with no linear solve.  h_oracle is sum_j W_jj / n, and the tangency
    defect, which vanishes in exact arithmetic, is max_j |d_j|.  The powers
    are products of the roots nu^(1/(2m-1)) (_odd_root).  The oracle reads
    the slopes f' only.  stats, when given, counts the slopes evaluated as
    "oracle slope evaluations" (see reporting.RunStats).

    The step h, the stencil slopes and |nu0|^2 do not depend on m, and
    neither does any sum, product or quotient: only the roots and the gauge
    A^(-1/(2m)) are taken per run of equal m, each on a slice of the chart's
    rows, and the rest of the arithmetic once for the whole chart.  runs,
    when given, is _runs(p, ms, N), the runs of a column ms (N,) of each
    point's m in place of p.m.

    Returns (h_oracle, tangency_defect), arrays of shape (N,) for a chart of
    N base points.
    """
    t0 = chart.t0
    if t0.ndim != 2 or t0.shape[1] != p.n:
        raise DimensionMismatchError(f"the chart must have {p.n} parameters")
    h = ORACLE_STEP_FACTOR * (1.0 + np.abs(t0))
    g = chart.moved_slopes(h)  # (2, 2, N, n): [+h, -h] x [c_j, k]
    if stats is not None:
        stats.count("oracle slope evaluations", g.size)
    nu0, g0 = chart.nu0, chart.moved0
    with np.errstate(over="ignore"):
        norm2 = _sum_last(nu0 * nu0)[:, None]
    if not norm2.all():
        raise SingularConfigurationError(
            "|nu0|^2 underflows a float to 0 at a base point")
    if not np.isfinite(norm2).all():
        raise SingularConfigurationError(
            "|nu0|^2 overflows a float at a base point")
    runs = runs or [(p.m, slice(None))]
    root = _by_run(runs, lambda m, rows: _odd_root(g[:, :, rows], 2 * m - 1), axis=2)
    X = g * root
    X0 = g0 * _by_run(runs, lambda m, rows: _odd_root(g0[:, rows], 2 * m - 1), axis=1)
    nu_root = _by_run(runs, lambda m, rows: _odd_root(nu0[rows], 2 * m - 1))
    # rest is A0 less the two terms that parameter j moves
    rest = _sum_last(nu0 * nu_root)[:, None] - X0[0] - X0[1]
    A = rest + X[:, 0] + X[:, 1]
    # each run's gauge on a contiguous copy of its rows, the operand it had
    # when every run was computed on its own
    scale = _by_run(runs, lambda m, rows: _gauge_scale(np.ascontiguousarray(A[:, rows]), m),
                    axis=1)  # (2, N, n)
    eta = scale[:, None] * root  # the components c_j and k of the stencil normals
    if not np.isfinite(eta).all():
        raise SingularConfigurationError("non-finite normal at stencil point")
    step = 2 * h
    dscale = (scale[0] - scale[1]) / step
    deta = (eta[0] - eta[1]) / step
    # nu0 . d eta_j = |nu0| d_j: the unmoved components add up to rest dscale
    gd = g0 * deta
    normal = dscale * rest + gd[0] + gd[1]
    diag = (deta[0] - normal * (g0[0] / norm2)) / chart.tc
    h_oracle = _sum_last(diag) / p.n
    defect = np.abs(normal).max(axis=-1) / np.sqrt(norm2[:, 0])
    return h_oracle, defect


# Points per numpy call of report_separable_batch.  Each point adds 4n stencil
# cells to the chart's arrays, so this bounds their size for any --points.
_CHUNK_POINTS = 4096


def _report_chunks(count, chunk, p: NormParams, tol: float, stats,
                   ms=None) -> CurvatureReport:
    """The CurvatureReport stack of count points, in _CHUNK_POINTS chunks.

    chunk(rows) gives the chart of those rows and their second derivatives
    f_i'' (N, dim), once per chunk: neither depends on m.  The closed form
    takes the slopes f_i' from chart.nu0 and the oracle runs on the chart;
    ms (count,), when given, is each point's m in place of p.m: a chunk finds
    its runs of equal m (_runs) once, and both take their powers once per
    run and the rest of their arithmetic once.  ms need not be sorted, but
    each run costs a pass of the powers, so a caller gives each m as one run.
    stats, when given, times the "analytic" and "oracle" stages and keeps the
    smallest slope ratio of the charts (SeparableChart.slope_ratio), which
    it computes only at debug (reporting.RunStats.least).
    """
    columns = []  # per chunk: H, h_oracle, defect; one chunk if count = 0
    for start in range(0, max(count, 1), _CHUNK_POINTS):
        rows = slice(start, start + _CHUNK_POINTS)
        with _stage(stats, "analytic"):
            chart, d2 = chunk(rows)
            runs = _runs(p, None if ms is None else ms[rows], len(d2))
            H = mean_curvature_from_slopes(chart.nu0, d2, p, runs)
        if stats is not None:
            stats.least("smallest slope ratio min|f'|/max|f'|", chart.slope_ratio)
        with _stage(stats, "oracle"):
            columns.append((H,) + mean_curvature_oracle(chart, p, stats, runs))
    if len(columns) == 1:  # one chunk: its own columns, not copies
        return CurvatureReport(*columns[0], tol)
    return CurvatureReport(*(np.concatenate(c) for c in zip(*columns)), tol)


def report_separable_batch(fs, points, p: NormParams, tol: float = 1e-6,
                           stats=None, ms=None) -> CurvatureReport:
    """Closed-form vs oracle comparison at surface points (N, dim), one stack.

    fs is a profile table or a sequence of profiles (functions.profile_columns);
    a table stacked by row (TaylorColumns) has one row per point, and each
    chunk takes its own rows of it (ProfileColumns.rows).  Every chunk of
    _report_chunks is one SeparableChart of its points, whose base gradients
    feed the closed form and whose tangent planes carry the oracle.
    A point's report does not depend on the other points of the batch.  ms
    (N,), when given, is each point's m in place of p.m (see _report_chunks).
    stats, when given, times the "analytic" and "oracle" stages (see
    reporting.RunStats).
    """
    table = profile_columns(fs)
    points = _surface_points(table, points, p)

    def chunk(rows):
        x = points[rows]
        part = table.rows(rows)
        chart = SeparableChart(part, p, x)
        with np.errstate(over="ignore"):
            d2 = part.d2(x)
        if not np.isfinite(d2).all():
            raise SingularConfigurationError("a profile's f'' overflows a float "
                                             "at a base point")
        return chart, d2

    return _report_chunks(len(points), chunk, p, tol, stats, ms)


def report_separable(fs, x, p: NormParams, tol: float = 1e-6) -> CurvatureReport:
    """Closed-form vs oracle comparison at one separable-surface point: a
    report_separable_batch of one."""
    return report_separable_batch(fs, _one_point(x, p.dim), p, tol=tol)[0]


# ---------------------------------------------------------------------------
# translation graphs
# ---------------------------------------------------------------------------

def _as_separable(fs, U, p: NormParams):
    """The profile table of the translation graph over the stack U (N, n) as
    a separable surface, f_1, ..., f_n, -x (ProfileColumns.graph), and its
    points (u, sum f_i(u_i))."""
    U = np.asarray(U, dtype=float)
    if len(fs) != p.n or U.ndim != 2 or U.shape[1] != p.n:
        raise DimensionMismatchError(
            f"expected {p.n} profiles and (N, {p.n}) parameters, "
            f"got {len(fs)} and {U.shape}"
        )
    table = profile_columns(fs)
    return table.graph(), np.column_stack([U, _sum_last(table(U))])


def translation_residual_sum(d1, d2, m: int):
    """The separable residual of the slopes (f_1', ..., f_n', -1), with
    A = 1 + sum_i (f_i')^(2m/(2m-1)): zero exactly where the translation
    graph's mean curvature is.  Slopes of one point give a float, stacks
    (..., n) an array."""
    d1 = np.asarray(d1, dtype=float)
    last = np.zeros(d1.shape[:-1] + (1,))
    return separable_residual_sum(
        np.concatenate([d1, last - 1.0], axis=-1),
        np.concatenate([np.asarray(d2, dtype=float), last], axis=-1), m,
    )


def mean_curvature_translation(fs, u, p: NormParams) -> float:
    """Closed-form mean curvature of the translation graph sum f_i(u_i), upward."""
    fs, x = _as_separable(fs, _one_point(u, p.n), p)
    return -mean_curvature_separable(fs, x[0], p)


def weingarten_translation(fs, u, p: NormParams) -> WeingartenMatrix:
    """Weingarten coefficients of a translation graph, upward.

    Diagonal:  eta_j^j = -A^(-(2m+1)/(2m))/(2m-1) (f_j')^(-(2m-2)/(2m-1)) f_j''
                         (1 + sum_{i!=j} (f_i')^(2m/(2m-1)))
    Off-diag:  eta_j^k = +A^(-(2m+1)/(2m))/(2m-1) (f_j')^(1/(2m-1)) f_j''
                         (f_k')^(1/(2m-1))
    """
    fs, x = _as_separable(fs, _one_point(u, p.n), p)
    return WeingartenMatrix(-weingarten_separable(fs, x[0], p).entries)


def report_translation_batch(fs, U, p: NormParams, tol: float = 1e-6,
                             stats=None, ms=None) -> CurvatureReport:
    """Closed-form vs oracle comparison at a stack U (N, n) of translation-graph
    parameters: the report_separable_batch of the graph as a separable surface
    at the points (u, sum f_i(u_i)), turned upward.

    ms (N,), when given, is each point's m in place of p.m.  stats, when
    given, times the "analytic" and "oracle" stages (see reporting.RunStats).
    """
    rep = report_separable_batch(*_as_separable(fs, U, p), p, tol=tol, stats=stats,
                                 ms=ms)
    return replace(rep, h_analytic=-rep.h_analytic, h_oracle=-rep.h_oracle)


def report_translation(fs, u, p: NormParams, tol: float = 1e-6) -> CurvatureReport:
    """Closed-form vs oracle comparison at one translation-graph point: a
    report_translation_batch of one."""
    return report_translation_batch(fs, _one_point(u, p.n), p, tol=tol)[0]
