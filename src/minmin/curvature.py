"""Mean curvature and Weingarten coefficients under the 2m-norm.

One closed form serves both surface kinds: mean_curvature_from_slopes gives H
of the separable implicit surface sum f_i(x_i) = 0 from the slopes f_i', f_i''
and closed_form_from_slopes adds W and eta (separable_closed_form takes the
slopes from the profiles at x).  A translation graph
x_{n+1} = f_1(u_1) + ... + f_n(u_n) is the separable surface
f_1(x_1) + ... + f_n(x_n) - x_{n+1} = 0, so the translation routines evaluate
that surface at (u, sum f_i(u_i)).  An independent oracle recovers the mean
curvature from its definition H = trace(d eta)/n by central differencing the
Birkhoff normal along a chart and expanding the derivative in its tangent
basis.

The separable routines work on stacks of points: separable_closed_form,
mean_curvature_oracle and report_separable_batch evaluate N points as arrays
of shape (N, dim), and report_translation_batch N graph points as parameters
of shape (N, n).  The single-point functions are batches of one.  A report is
the comparison: one CurvatureReport of the columns h_analytic, h_oracle and
tangency_defect over a batch's points, computed with H alone, and
failed_checks is the one pass rule, for one point or a stack.  A batch's
profiles may be stacked by row (C3Function.taylor with coefficient arrays),
so that each point has profiles of its own; such a batch has one row per point
and at most _CHUNK_POINTS points, as every chunk's chart takes the rows whole.
A chart holds the base parameters t0, the base gradient nu0, the tangent basis T
(N, dim, n) and the gradient nu(t), all built once per batch: the closed form
takes its slopes from nu0, and the oracle evaluates nu only at the 2n stencil
points of each point, in one call, then makes one batched linear solve.
SeparableChart moves along each point's tangent plane, spanned over the n
coordinates other than the one of largest slope, so nothing solves for a
coordinate.

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
from .functions import C3Function
from .norms import NormParams, _sum_last, birkhoff_normal_implicit, signed_pow

_EPS = np.finfo(float).eps

# Default oracle step: optimal for first-order central differences.
ORACLE_STEP_FACTOR = _EPS ** (1.0 / 3.0)

# Largest |sum f_i(x_i)| at which a point counts as on the surface.
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


def _slope_guard(d1, m: int, label: str):
    """Negative fractional powers of the slopes appear only for m >= 2."""
    if m >= 2 and (d1 == 0.0).any():
        raise SingularConfigurationError(
            f"{label}: a profile slope vanishes and m = {m} needs its negative power"
        )


def _columns(fns, x: np.ndarray) -> np.ndarray:
    """fns[i](x[..., i]) for every i, as the columns of one array shaped like x."""
    out = np.empty(x.shape)
    for i, fn in enumerate(fns):
        out[..., i] = fn(x[..., i])
    return out


def _derivs(fs, x):
    """f_i' and f_i'' at the coordinates x[..., i], each of shape x.shape."""
    return _columns([f.d1 for f in fs], x), _columns([f.d2 for f in fs], x)


def _slope_terms(d1, d2, m: int):
    """X_j = (f_j')^(2m/(2m-1)), A = sum X, G_j = (f_j')^(-(2m-2)/(2m-1)) f_j''
    and the residual sum_j G_j (A - X_j), all over the last axis."""
    X = signed_pow(d1, 2 * m, 2 * m - 1)
    A = _sum_last(X)
    G = signed_pow(d1, -(2 * m - 2), 2 * m - 1) * d2
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
    _slope_guard(d1, m, "minimality residual")
    res = _slope_terms(d1, np.asarray(d2, dtype=float), m)[3]
    return float(res) if res.ndim == 0 else res


def mean_curvature_from_slopes(d1, d2, p: NormParams) -> np.ndarray:
    """Closed-form H (N,) of sum f_i(x_i) = 0 from the slopes d1 = f_i'(x_i),
    d2 = f_i''(x_i) (N, dim): A^(-(2m+1)/(2m)) / (n (2m-1)) sum_j G_j (A - X_j),
    terms as in closed_form_from_slopes.  Raises where the chart slope f_{n+1}'
    vanishes or m >= 2 needs the negative power of a vanishing slope."""
    m = p.m
    if (d1[:, -1] == 0.0).any():
        raise SingularConfigurationError("chart slope f_{n+1}' vanishes")
    _slope_guard(d1, m, "separable mean curvature")
    _, A, _, total = _slope_terms(d1, d2, m)
    return np.float_power(A, -(2 * m + 1) / (2 * m)) / (p.n * (2 * m - 1)) * total


def closed_form_from_slopes(d1, d2, p: NormParams):
    """mean_curvature_from_slopes, with the Weingarten matrices and Birkhoff
    normals of the same slopes.

    Returns H with shape (N,), the Weingarten entries with shape (N, n, n), in
    the chart that solves the last coordinate in terms of the others, and the
    normals eta with shape (N, dim), aligned with (f_1', ..., f_{n+1}').

    Diagonal:  eta_j^j = A^(-(2m+1)/(2m))/(2m-1) (X_j G_{n+1} + G_j (A - X_j))
    Off-diag:  eta_j^k = A^(-(2m+1)/(2m))/(2m-1) (f_k')^(1/(2m-1))
                         (f_j' G_{n+1} - (f_j')^(1/(2m-1)) f_j'')
    with X_j = (f_j')^(2m/(2m-1)), A = sum X and
    G_j = (f_j')^(-(2m-2)/(2m-1)) f_j''.
    """
    m, n = p.m, p.n
    H = mean_curvature_from_slopes(d1, d2, p)
    X, A, G, _ = _slope_terms(d1, d2, m)
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


def _surface_points(fs, points, p: NormParams) -> np.ndarray:
    """points as a float stack (N, dim) of points of sum f_i(x_i) = 0; raises
    unless there are dim profiles and |sum f_i(x_i)| <= ON_SURFACE_TOL."""
    x = np.asarray(points, dtype=float)
    if len(fs) != p.dim or x.ndim != 2 or x.shape[1] != p.dim:
        raise DimensionMismatchError(
            f"expected {p.dim} profiles and (N, {p.dim}) points, "
            f"got {len(fs)} and {x.shape}"
        )
    value = _sum_last(_columns(fs, x))
    off = np.abs(value) > ON_SURFACE_TOL
    if off.any():
        raise OffSurfaceError(
            f"sum f_i(x_i) = {value[off][0]:.3e} exceeds tolerance {ON_SURFACE_TOL:.1e}"
        )
    return x


def separable_closed_form(fs, points, p: NormParams):
    """closed_form_from_slopes at a stack (N, dim) of on-surface points of the
    separable surface sum f_i(x_i) = 0, with the slopes taken from fs."""
    x = _surface_points(fs, points, p)
    return closed_form_from_slopes(*_derivs(fs, x), p)


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

    base_point is one on-surface point x0 (dim,) or a stack (N, dim).  A chart
    holds what the oracle reads: the base gradient nu0 = f'(x0), the base
    parameters t0, the tangent basis T (..., dim, n) and the gradient nu(t).
    At each base point the parameters are the n coordinates other than the
    one k of largest |nu0_k|, the columns of T are e_j - (nu0_j / nu0_k) e_k
    for j != k in increasing order, and the chart moves along the tangent
    plane: point(t) = x0 + T (t - t0) and nu(t) = f'(point(t)).  Parameter
    arrays (..., N, n) are taken row by row about their own base point.  The
    normal eta = B(grad F) is defined off the surface too, and along a tangent
    vector its derivative is the shape operator's, so central differences of
    eta along x0 +/- h T_j keep their O(h^2) accuracy with no coordinate
    solved for.  As eta stays on the unit sphere of the norm, d eta stays
    tangent, and the oracle's tangency defect is still a check.
    """

    def __init__(self, fs, p: NormParams, base_point):
        self.fs = list(fs)
        x0 = np.asarray(base_point, dtype=float)
        if x0.ndim not in (1, 2) or x0.shape[-1] != p.dim:
            raise DimensionMismatchError("base point must be an ambient point")
        nu0 = _columns([f.d1 for f in self.fs], x0)
        if (np.abs(nu0).max(axis=-1) == 0.0).any():
            raise SingularConfigurationError("the gradient vanishes at a base point")
        n = p.n
        k = np.argmax(np.abs(nu0), axis=-1)[..., None]
        above = np.arange(n) >= k  # the j-th parameter is coordinate j + 1, not j
        ratio = -np.where(above, nu0[..., 1:], nu0[..., :-1]) \
            / np.take_along_axis(nu0, k, -1)
        rows = np.arange(n + 1)[:, None]
        self.x0, self.nu0 = x0, nu0
        self.t0 = np.where(above, x0[..., 1:], x0[..., :-1])
        self.T = ((rows == np.arange(n) + above[..., None, :])
                  + (rows == k[..., None]) * ratio[..., None, :])

    def point(self, t) -> np.ndarray:
        dt = np.asarray(t, dtype=float) - self.t0
        return self.x0 + (self.T @ dt[..., None])[..., 0]

    def nu(self, t) -> np.ndarray:
        return _columns([f.d1 for f in self.fs], self.point(t))


def mean_curvature_oracle(chart, p: NormParams):
    """Mean curvature from the definition trace(d eta)/n by central differences.

    The normal's derivative along each parameter is expanded in the basis
    (tangent vectors, unit Euclidean normal); the mean of the j-th tangent
    coefficients is the oracle value and the largest normal coefficient is the
    tangency defect, which vanishes in exact arithmetic.

    The chart (a SeparableChart, or the 6.5 QuadratureChart) holds the base
    parameters t0, one vector (n,) or a stack (N, n), the base gradient nu0,
    the tangent basis T (..., dim, n) and the gradient nu(t).  The oracle
    evaluates nu only at the 2n stencil points of each base point, in one call
    on an array (2n, N, n); the stencil normals are the Birkhoff normals of
    those gradients, and the N * n expansions are one batched solve.

    Returns (h_oracle, tangency_defect): floats for one base point, arrays of
    shape (N,) for a stack.
    """
    n = p.n
    single = np.ndim(chart.t0) == 1
    t0 = np.atleast_2d(chart.t0)
    if t0.ndim != 2 or t0.shape[-1] != n:
        raise DimensionMismatchError(f"the chart must have {n} parameters")
    nu0 = np.atleast_2d(chart.nu0)
    steps = ORACLE_STEP_FACTOR * (1.0 + np.abs(t0))
    # shift[j, i] = steps[i, j] e_j: the j-th stencil offset of the i-th point
    shift = np.eye(n)[:, None, :] * steps.T[:, :, None]
    nu = chart.nu(np.concatenate([t0 + shift, t0 - shift]))
    nu_hat = nu0 / np.sqrt(_sum_last(nu0 * nu0))[:, None]
    T = np.reshape(chart.T, nu0.shape + (n,))
    basis = np.concatenate([T, nu_hat[:, :, None]], axis=-1)
    eta = birkhoff_normal_implicit(nu, p).eta
    if not np.isfinite(eta).all():
        raise SingularConfigurationError("non-finite normal at stencil point")
    deta = (eta[:n] - eta[n:]) / (2 * steps.T[:, :, None])
    coef = np.linalg.solve(basis, deta[..., None])[..., 0]
    diag_sum = np.zeros(len(t0))
    for j in range(n):
        diag_sum += coef[j, :, j]
    h_oracle = diag_sum / n
    defect = np.max(np.abs(coef[:, :, n]), axis=0)
    if single:
        return float(h_oracle[0]), float(defect[0])
    return h_oracle, defect


# Points per numpy call of report_separable_batch.  Each point adds 2n stencil
# points to the chart's arrays, so this bounds their size for any --points.
_CHUNK_POINTS = 4096


def _report_chunks(count, chunk, p: NormParams, tol: float, stats) -> CurvatureReport:
    """The CurvatureReport stack of count points, in _CHUNK_POINTS chunks.

    chunk(rows) gives the chart of those rows and their second derivatives
    f_i'' (N, dim); the closed form takes the slopes f_i' from chart.nu0 and
    the oracle runs on the chart.  stats, when given, times the "analytic"
    and "oracle" stages.
    """
    columns = []  # per chunk: H, h_oracle, defect; one chunk if count = 0
    for start in range(0, max(count, 1), _CHUNK_POINTS):
        rows = slice(start, start + _CHUNK_POINTS)
        with _stage(stats, "analytic"):
            chart, d2 = chunk(rows)
            H = mean_curvature_from_slopes(chart.nu0, d2, p)
        with _stage(stats, "oracle"):
            columns.append((H,) + mean_curvature_oracle(chart, p))
    return CurvatureReport(*(np.concatenate(c) for c in zip(*columns)), tol)


def report_separable_batch(fs, points, p: NormParams, tol: float = 1e-6,
                           stats=None) -> CurvatureReport:
    """Closed-form vs oracle comparison at surface points (N, dim), one stack.

    Every chunk of _report_chunks is one SeparableChart of its points, whose
    base gradients feed the closed form and whose tangent planes carry the
    oracle.  A point's report does not depend on the other points of the
    batch.  stats, when given, times the "analytic" and "oracle" stages (see
    reporting.RunStats).
    """
    points = _surface_points(fs, points, p)

    def chunk(rows):
        x = points[rows]
        return SeparableChart(fs, p, x), _columns([f.d2 for f in fs], x)

    return _report_chunks(len(points), chunk, p, tol, stats)


def report_separable(fs, x, p: NormParams, tol: float = 1e-6,
                     stats=None) -> CurvatureReport:
    """Closed-form vs oracle comparison at one separable-surface point: a
    report_separable_batch of one."""
    return report_separable_batch(fs, _one_point(x, p.dim), p, tol=tol, stats=stats)[0]


# ---------------------------------------------------------------------------
# translation graphs
# ---------------------------------------------------------------------------

# f_{n+1}(x) = -x: the profile that makes x_{n+1} = sum f_i(u_i) separable
_HEIGHT = C3Function.linear(-1.0)


def _as_separable(fs, U, p: NormParams):
    """The profiles of the translation graph over the stack U (N, n) as a
    separable surface, f_1, ..., f_n, -x, and its points (u, sum f_i(u_i))."""
    U = np.asarray(U, dtype=float)
    if len(fs) != p.n or U.ndim != 2 or U.shape[1] != p.n:
        raise DimensionMismatchError(
            f"expected {p.n} profiles and (N, {p.n}) parameters, "
            f"got {len(fs)} and {U.shape}"
        )
    height = _sum_last(_columns(fs, U))
    return tuple(fs) + (_HEIGHT,), np.column_stack([U, height])


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
                             stats=None) -> CurvatureReport:
    """Closed-form vs oracle comparison at a stack U (N, n) of translation-graph
    parameters: the report_separable_batch of the graph as a separable surface
    at the points (u, sum f_i(u_i)), turned upward.

    stats, when given, times the "analytic" and "oracle" stages (see
    reporting.RunStats).
    """
    rep = report_separable_batch(*_as_separable(fs, U, p), p, tol=tol, stats=stats)
    return replace(rep, h_analytic=-rep.h_analytic, h_oracle=-rep.h_oracle)


def report_translation(fs, u, p: NormParams, tol: float = 1e-6,
                       stats=None) -> CurvatureReport:
    """Closed-form vs oracle comparison at one translation-graph point: a
    report_translation_batch of one."""
    return report_translation_batch(fs, _one_point(u, p.n), p, tol=tol,
                                    stats=stats)[0]
