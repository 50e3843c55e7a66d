"""Mean curvature and Weingarten coefficients under the 2m-norm.

One closed form serves both surface kinds: closed_form_from_slopes evaluates
the separable implicit surface sum f_i(x_i) = 0 from the slopes f_i', f_i''
(separable_closed_form takes them from the profiles at x).  A translation graph
x_{n+1} = f_1(u_1) + ... + f_n(u_n) is the separable surface
f_1(x_1) + ... + f_n(x_n) - x_{n+1} = 0, so the translation routines evaluate
that surface at (u, sum f_i(u_i)).  An independent oracle recovers the mean
curvature from its definition H = trace(d eta)/n by central differencing the
Birkhoff normal along a chart and expanding the derivative in its tangent
basis.

The separable routines work on stacks of points: separable_closed_form,
mean_curvature_oracle and report_separable_batch evaluate N points as arrays
of shape (N, dim).  The single-point functions are batches of one.  A chart
holds the base parameters t0, the base gradient nu0, the tangent basis T
(N, dim, n) and the gradient nu(t), all built once per batch: the closed form
takes its slopes from nu0, and the oracle evaluates nu only at the 2n stencil
points of each point, in one call, then makes one batched linear solve.
SeparableChart moves along each point's tangent plane, spanned over the n
coordinates other than the one of largest slope, so nothing solves for a
coordinate.

Orientation follows the normal branches of the norms module: aligned with the
defining gradient for implicit surfaces, upward for graphs.  The implicit
normal of a graph lies along (f', -1), so the translation routines change the
sign of H, W, the oracle value and eta.  At m = 1 the graph value is minus the
textbook Euclidean mean curvature computed with respect to the upward normal
and the shape operator -dN.
"""

from contextlib import nullcontext
from dataclasses import dataclass

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
    """

    entries: np.ndarray

    @property
    def mean_curvature(self) -> float:
        return float(np.trace(self.entries)) / self.entries.shape[0]


@dataclass
class CurvatureReport:
    """Per-point comparison of closed-form and oracle mean curvature."""

    point: np.ndarray
    eta: np.ndarray
    weingarten: WeingartenMatrix | None
    h_analytic: float
    h_oracle: float
    tangency_defect: float
    tol: float

    @property
    def failed_check(self) -> str:
        """"oracle" or "defect", the first check the point fails, or "-"."""
        h = self.h_analytic
        if not abs(h - self.h_oracle) <= self.tol * (1 + abs(h)):
            return "oracle"
        return "-" if self.tangency_defect <= self.tol else "defect"

    @property
    def passed(self) -> bool:
        return self.failed_check == "-"


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


def closed_form_from_slopes(d1, d2, p: NormParams):
    """Closed-form mean curvature, Weingarten matrices and Birkhoff normals of
    a separable surface sum f_i(x_i) = 0 from its slopes d1 = f_i'(x_i) and
    d2 = f_i''(x_i), stacks of shape (N, dim).

    Returns H with shape (N,), the Weingarten entries with shape (N, n, n), in
    the chart that solves the last coordinate in terms of the others (so its
    slope must not vanish), and the normals eta with shape (N, dim), aligned
    with (f_1', ..., f_{n+1}').

    Diagonal:  eta_j^j = A^(-(2m+1)/(2m))/(2m-1) (X_j G_{n+1} + G_j (A - X_j))
    Off-diag:  eta_j^k = A^(-(2m+1)/(2m))/(2m-1) (f_k')^(1/(2m-1))
                         (f_j' G_{n+1} - (f_j')^(1/(2m-1)) f_j'')
    with X_j = (f_j')^(2m/(2m-1)), A = sum X and
    G_j = (f_j')^(-(2m-2)/(2m-1)) f_j''.
    """
    m, n = p.m, p.n
    if (d1[:, -1] == 0.0).any():
        raise SingularConfigurationError("chart slope f_{n+1}' vanishes")
    _slope_guard(d1, m, "separable mean curvature")
    X, A, G, total = _slope_terms(d1, d2, m)
    power = np.float_power(A, -(2 * m + 1) / (2 * m))
    H = power / (n * (2 * m - 1)) * total
    pref = (power / (2 * m - 1))[:, None, None]
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


def _one_point(x, p: NormParams) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.dim,):
        raise DimensionMismatchError(
            f"expected a point with {p.dim} coordinates, got shape {x.shape}"
        )
    return x[None]


def mean_curvature_separable(fs, x, p: NormParams) -> float:
    """Closed-form mean curvature at one point: separable_closed_form of a batch of one."""
    return float(separable_closed_form(fs, _one_point(x, p), p)[0][0])


def weingarten_separable(fs, x, p: NormParams) -> WeingartenMatrix:
    """Weingarten coefficients at one point, in the last-coordinate chart."""
    W = separable_closed_form(fs, _one_point(x, p), p)[1]
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


def _report_chunks(points, chunk, p: NormParams, tol: float, stats) -> list:
    """CurvatureReports at the points (N, dim), in chunks of _CHUNK_POINTS rows.

    chunk(rows) gives the chart of those rows and their second derivatives
    f_i'' (N, dim); the closed form takes the slopes f_i' from chart.nu0 and
    the oracle runs on the chart.  stats, when given, times the "analytic"
    and "oracle" stages.
    """
    reports = []
    for start in range(0, len(points), _CHUNK_POINTS):
        rows = slice(start, start + _CHUNK_POINTS)
        x = points[rows]
        with _stage(stats, "analytic"):
            chart, d2 = chunk(rows)
            H, W, eta = closed_form_from_slopes(chart.nu0, d2, p)
        with _stage(stats, "oracle"):
            h_oracle, defect = mean_curvature_oracle(chart, p)
        reports += [
            CurvatureReport(
                point=x[i],
                eta=eta[i],
                weingarten=WeingartenMatrix(entries=W[i]),
                h_analytic=float(H[i]),
                h_oracle=float(h_oracle[i]),
                tangency_defect=float(defect[i]),
                tol=tol,
            )
            for i in range(len(x))
        ]
    return reports


def report_separable_batch(fs, points, p: NormParams, tol: float = 1e-6,
                           stats=None) -> list:
    """Closed-form vs oracle comparison at a stack (N, dim) of surface points.

    Every chunk of _report_chunks is one SeparableChart of its points, whose
    base gradients feed the closed form and whose tangent planes carry the
    oracle.  A point's report does not depend on the other points of the
    batch.  The Weingarten matrix is the one of the last-coordinate chart.
    stats, when given, times the "analytic" and "oracle" stages (see
    reporting.RunStats).
    """
    points = _surface_points(fs, points, p)

    def chunk(rows):
        x = points[rows]
        return SeparableChart(fs, p, x), _columns([f.d2 for f in fs], x)

    return _report_chunks(points, chunk, p, tol, stats)


def report_separable(fs, x, p: NormParams, tol: float = 1e-6,
                     stats=None) -> CurvatureReport:
    """Closed-form vs oracle comparison at one separable-surface point: a
    report_separable_batch of one."""
    return report_separable_batch(fs, _one_point(x, p), p, tol=tol, stats=stats)[0]


# ---------------------------------------------------------------------------
# translation graphs
# ---------------------------------------------------------------------------

# f_{n+1}(x) = -x: the profile that makes x_{n+1} = sum f_i(u_i) separable
_HEIGHT = C3Function.linear(-1.0)


def _as_separable(fs, u, p: NormParams):
    """The profiles of the translation graph over u as a separable surface,
    f_1, ..., f_n, -x, and its point (u, sum f_i(u_i))."""
    u = np.asarray(u, dtype=float)
    if len(fs) != p.n or u.shape != (p.n,):
        raise DimensionMismatchError(
            f"expected {p.n} profiles and parameters, got {len(fs)} and {u.shape}"
        )
    height = _sum_last(_columns(fs, u[None]))
    return tuple(fs) + (_HEIGHT,), np.append(u, height)


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
    return -mean_curvature_separable(*_as_separable(fs, u, p), p)


def weingarten_translation(fs, u, p: NormParams) -> WeingartenMatrix:
    """Weingarten coefficients of a translation graph, upward.

    Diagonal:  eta_j^j = -A^(-(2m+1)/(2m))/(2m-1) (f_j')^(-(2m-2)/(2m-1)) f_j''
                         (1 + sum_{i!=j} (f_i')^(2m/(2m-1)))
    Off-diag:  eta_j^k = +A^(-(2m+1)/(2m))/(2m-1) (f_j')^(1/(2m-1)) f_j''
                         (f_k')^(1/(2m-1))
    """
    return WeingartenMatrix(-weingarten_separable(*_as_separable(fs, u, p), p).entries)


def report_translation(fs, u, p: NormParams, tol: float = 1e-6,
                       stats=None) -> CurvatureReport:
    """Closed-form vs oracle comparison at one translation-graph point: the
    report_separable of the graph as a separable surface, turned upward.

    stats, when given, times the "analytic" and "oracle" stages (see
    reporting.RunStats).
    """
    u = np.asarray(u, dtype=float)
    rep = report_separable(*_as_separable(fs, u, p), p, tol=tol, stats=stats)
    return CurvatureReport(
        point=u,
        eta=-rep.eta,
        weingarten=WeingartenMatrix(-rep.weingarten.entries),
        h_analytic=-rep.h_analytic,
        h_oracle=-rep.h_oracle,
        tangency_defect=rep.tangency_defect,
        tol=tol,
    )
