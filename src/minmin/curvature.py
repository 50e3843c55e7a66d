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
of shape (N, dim), with one gradient evaluation for all N points and their 2n
stencil points and one batched linear solve.  The single-point functions are
batches of one.  The oracle's chart moves along each point's tangent plane,
spanned over the n coordinates other than the one of largest slope, so
nothing solves for a coordinate.

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


def separable_closed_form(fs, points, p: NormParams, on_surface_tol: float = 1e-6):
    """closed_form_from_slopes at a stack (N, dim) of on-surface points of the
    separable surface sum f_i(x_i) = 0, with the slopes taken from fs."""
    x = np.asarray(points, dtype=float)
    if len(fs) != p.dim or x.ndim != 2 or x.shape[1] != p.dim:
        raise DimensionMismatchError(
            f"expected {p.dim} profiles and (N, {p.dim}) points, "
            f"got {len(fs)} and {x.shape}"
        )
    value = _sum_last(_columns(fs, x))
    off = np.abs(value) > on_surface_tol
    if off.any():
        raise OffSurfaceError(
            f"sum f_i(x_i) = {value[off][0]:.3e} exceeds tolerance {on_surface_tol:.1e}"
        )
    return closed_form_from_slopes(*_derivs(fs, x), p)


def _one_point(x, p: NormParams) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.dim,):
        raise DimensionMismatchError(
            f"expected a point with {p.dim} coordinates, got shape {x.shape}"
        )
    return x[None]


def mean_curvature_separable(
    fs, x, p: NormParams, on_surface_tol: float = 1e-6
) -> float:
    """Closed-form mean curvature at one point: separable_closed_form of a batch of one."""
    return float(separable_closed_form(fs, _one_point(x, p), p, on_surface_tol)[0][0])


def weingarten_separable(
    fs, x, p: NormParams, on_surface_tol: float = 1e-6
) -> WeingartenMatrix:
    """Weingarten coefficients at one point, in the last-coordinate chart."""
    W = separable_closed_form(fs, _one_point(x, p), p, on_surface_tol)[1]
    return WeingartenMatrix(entries=W[0])


# ---------------------------------------------------------------------------
# charts and the finite-difference oracle
# ---------------------------------------------------------------------------


def _other_coordinates(nu):
    """k (..., 1), the coordinate of largest |nu_k| in each row of nu (..., dim),
    and above (..., n), true where the j-th of the other n coordinates is
    j + 1 rather than j."""
    k = np.argmax(np.abs(nu), axis=-1)[..., None]
    return k, np.arange(nu.shape[-1] - 1) >= k


class SeparableChart:
    """Separable surface sum f_i(x_i) = 0 charted along its tangent planes.

    base_point is one on-surface point x0 (dim,) or a stack (N, dim).  At each
    base point the chart keeps the n coordinates other than the one of largest
    |nu0_k|, nu0 = f'(x0), as its parameters t0, and moves along the tangent
    plane: point(t) = x0 + T (t - t0) with T = tangents_from_nu(nu0), and
    nu(t) = f'(point(t)).  Parameter arrays (..., N, n) are taken row by row
    about their own base point.  The normal eta = B(grad F) is defined off the
    surface too, and along a tangent vector its derivative is the shape
    operator's, so central differences of eta along x0 +/- h T_j keep their
    O(h^2) accuracy with no coordinate solved for.  As eta stays on the unit
    sphere of the norm, d eta stays tangent, and the oracle's tangency defect
    is still a check.
    """

    def __init__(self, fs, p: NormParams, base_point):
        self.fs = list(fs)
        x0 = np.asarray(base_point, dtype=float)
        if x0.ndim not in (1, 2) or x0.shape[-1] != p.dim:
            raise DimensionMismatchError("base point must be an ambient point")
        nu0 = _columns([f.d1 for f in self.fs], x0)
        if (np.abs(nu0).max(axis=-1) == 0.0).any():
            raise SingularConfigurationError("the gradient vanishes at a base point")
        self.x0 = x0
        above = _other_coordinates(nu0)[1]
        self.t0 = np.where(above, x0[..., 1:], x0[..., :-1])
        self.T = self.tangents_from_nu(nu0)

    def point(self, t) -> np.ndarray:
        dt = np.asarray(t, dtype=float) - self.t0
        return self.x0 + (self.T @ dt[..., None])[..., 0]

    def nu(self, t) -> np.ndarray:
        return _columns([f.d1 for f in self.fs], self.point(t))

    @staticmethod
    def tangents_from_nu(nu: np.ndarray) -> np.ndarray:
        """Tangent vectors (..., dim, n) e_j - (nu_j / nu_k) e_k, j != k in
        increasing order, where the gradient is nu (..., dim) and k is the
        coordinate of largest |nu_k|."""
        k, above = _other_coordinates(nu)
        n = above.shape[-1]
        nu_k = np.take_along_axis(nu, k, -1)
        ratio = -np.where(above, nu[..., 1:], nu[..., :-1]) / nu_k
        rows = np.arange(n + 1)[:, None]
        return ((rows == np.arange(n) + above[..., None, :])
                + (rows == k[..., None]) * ratio[..., None, :])


def mean_curvature_oracle(chart, point, p: NormParams, h: float | None = None):
    """Mean curvature from the definition trace(d eta)/n by central differences.

    The normal's derivative along each parameter is expanded in the basis
    (tangent vectors, unit Euclidean normal); the mean of the j-th tangent
    coefficients is the oracle value and the largest normal coefficient is the
    tangency defect, which vanishes in exact arithmetic.

    point is one parameter vector (n,) or a stack (N, n) of them.  The chart
    (a SeparableChart or QuadratureSurface) evaluates its defining gradient nu
    at the points and their 2n stencil points in one call, on an array
    (2n + 1, N, n); chart.tangents_from_nu(nu) gives the tangent basis, the
    stencil normals are the Birkhoff normals, and the N * n expansions are one
    batched solve.

    Returns (h_oracle, tangency_defect): floats for one vector, arrays of shape
    (N,) for a stack.
    """
    t0 = np.asarray(point, dtype=float)
    n = p.n
    if t0.ndim not in (1, 2) or t0.shape[-1] != n:
        raise DimensionMismatchError(f"point must have {n} parameters")
    single = t0.ndim == 1
    t0 = np.atleast_2d(t0)
    steps = ORACLE_STEP_FACTOR * (1.0 + np.abs(t0)) if h is None \
        else np.full(t0.shape, float(h))
    # shift[j, i] = steps[i, j] e_j: the j-th stencil offset of the i-th point
    shift = np.eye(n)[:, None, :] * steps.T[:, :, None]
    nu = chart.nu(np.concatenate([t0[None], t0 + shift, t0 - shift]))
    nu0 = nu[0]
    nu_hat = nu0 / np.sqrt(_sum_last(nu0 * nu0))[:, None]
    basis = np.concatenate([chart.tangents_from_nu(nu0), nu_hat[:, :, None]], axis=-1)
    eta = birkhoff_normal_implicit(nu[1:], p).eta
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


def _chart_oracle(fs, x, p: NormParams, h):
    """mean_curvature_oracle at the points x (N, dim) on their SeparableChart."""
    chart = SeparableChart(fs, p, x)
    return mean_curvature_oracle(chart, chart.t0, p, h=h)


def _report_chunks(points, analytic, oracle, tol: float, stats) -> list:
    """CurvatureReports at the points (N, dim), in chunks of _CHUNK_POINTS rows:
    analytic(rows) gives their closed form (H, W, eta), oracle(rows, eta) their
    (h_oracle, defect), each timed as its stage in stats, when given."""
    reports = []
    for start in range(0, len(points), _CHUNK_POINTS):
        rows = slice(start, start + _CHUNK_POINTS)
        x = points[rows]
        with _stage(stats, "analytic"):
            H, W, eta = analytic(rows)
        with _stage(stats, "oracle"):
            h_oracle, defect = oracle(rows, eta)
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


def report_separable_batch(
    fs, points, p: NormParams, tol: float = 1e-6, h: float | None = None,
    on_surface_tol: float = 1e-6, stats=None,
) -> list:
    """Closed-form vs oracle comparison at a stack (N, dim) of surface points.

    Every point is evaluated in array passes (separable_closed_form, then
    mean_curvature_oracle on the SeparableChart of the points), in the chunks
    of _report_chunks.  A point's report does not depend on the other points
    of the batch.  The Weingarten matrix is the one of the last-coordinate
    chart.  stats, when given, times the "analytic" and "oracle" stages (see
    reporting.RunStats).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != p.dim:
        raise DimensionMismatchError(
            f"expected (N, {p.dim}) points, got shape {points.shape}"
        )
    return _report_chunks(
        points,
        lambda rows: separable_closed_form(
            fs, points[rows], p, on_surface_tol=on_surface_tol),
        lambda rows, eta: _chart_oracle(fs, points[rows], p, h),
        tol, stats,
    )


def report_separable(
    fs, x, p: NormParams, tol: float = 1e-6, h: float | None = None,
    on_surface_tol: float = 1e-6, stats=None,
) -> CurvatureReport:
    """Closed-form vs oracle comparison at one separable-surface point: a
    report_separable_batch of one."""
    return report_separable_batch(
        fs, _one_point(x, p), p, tol=tol, h=h, on_surface_tol=on_surface_tol,
        stats=stats,
    )[0]


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


def report_translation(
    fs, u, p: NormParams, tol: float = 1e-6, h: float | None = None, stats=None,
) -> CurvatureReport:
    """Closed-form vs oracle comparison at one translation-graph point: the
    report_separable of the graph as a separable surface, turned upward.

    stats, when given, times the "analytic" and "oracle" stages (see
    reporting.RunStats).
    """
    u = np.asarray(u, dtype=float)
    rep = report_separable(*_as_separable(fs, u, p), p, tol=tol, h=h, stats=stats)
    return CurvatureReport(
        point=u,
        eta=-rep.eta,
        weingarten=WeingartenMatrix(-rep.weingarten.entries),
        h_analytic=-rep.h_analytic,
        h_oracle=-rep.h_oracle,
        tangency_defect=rep.tangency_defect,
        tol=tol,
    )
