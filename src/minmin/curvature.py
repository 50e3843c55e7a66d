"""Mean curvature and Weingarten coefficients under the 2m-norm.

Two closed-form routes are implemented: translation graphs x_{n+1} = sum f_i(u_i)
and separable implicit surfaces sum f_i(x_i) = 0.  An independent oracle
recovers the mean curvature from its definition H = trace(d eta)/n by central
differencing the Birkhoff normal along a chart and expanding the derivative in
the tangent basis.

The separable routines work on stacks of points: separable_closed_form,
mean_curvature_oracle and report_separable_batch evaluate N points as arrays
of shape (N, dim), with one Newton solve of the chart for all 2n stencil
points of all of them and one batched linear solve.  The single-point
functions are batches of one.

Orientation follows the normal branches of the norms module: upward for graphs,
aligned with the defining gradient for implicit surfaces.  At m = 1 the graph
value is minus the textbook Euclidean mean curvature computed with respect to
the upward normal and the shape operator -dN.
"""

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    OffSurfaceError,
    SingularConfigurationError,
)
from .norms import (
    NormParams,
    _sum_last,
    birkhoff_normal_graph,
    birkhoff_normal_implicit,
    signed_pow,
)

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
    def passed(self) -> bool:
        return (
            abs(self.h_analytic - self.h_oracle) <= self.tol * (1 + abs(self.h_analytic))
            and self.tangency_defect <= self.tol
        )


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


def _slope_terms(d1, d2, m: int, a0: float = 0.0):
    """X_j = (f_j')^(2m/(2m-1)), A = a0 + sum X, G_j = (f_j')^(-(2m-2)/(2m-1)) f_j''
    and the residual sum_j G_j (A - X_j), all over the last axis."""
    X = signed_pow(d1, 2 * m, 2 * m - 1)
    A = a0 + _sum_last(X)
    G = signed_pow(d1, -(2 * m - 2), 2 * m - 1) * d2
    return X, A, G, _sum_last(G * (A[..., None] - X))


def _stage(stats, name: str):
    return nullcontext() if stats is None else stats.stage(name)


# ---------------------------------------------------------------------------
# translation graphs
# ---------------------------------------------------------------------------


def translation_residual_sum(d1, d2, m: int) -> float:
    """sum_j (f_j')^(-(2m-2)/(2m-1)) f_j'' (1 + sum_{i!=j} (f_i')^(2m/(2m-1))).

    The minimality residual of a translation graph: it vanishes exactly where
    the mean curvature does, and stays polynomial in the slopes at m = 1.
    """
    d1 = np.asarray(d1, dtype=float)
    _slope_guard(d1, m, "translation residual")
    return float(_slope_terms(d1, np.asarray(d2, dtype=float), m, 1.0)[3])


def _translation_terms(fs, u, p: NormParams, label: str):
    u = np.asarray(u, dtype=float)
    if len(fs) != p.n or u.shape != (p.n,):
        raise DimensionMismatchError(
            f"expected {p.n} profiles and parameters, got {len(fs)} and {u.shape}"
        )
    d1, d2 = _derivs(fs, u)
    _slope_guard(d1, p.m, label)
    return (d1, d2) + _slope_terms(d1, d2, p.m, 1.0)


def mean_curvature_translation(fs, u, p: NormParams) -> float:
    """Closed-form mean curvature of the translation graph sum f_i(u_i)."""
    m = p.m
    *_, A, _, total = _translation_terms(fs, u, p, "translation mean curvature")
    return float(-(np.float_power(A, -(2 * m + 1) / (2 * m))) / (p.n * (2 * m - 1))
                 * total)


def weingarten_translation(fs, u, p: NormParams) -> WeingartenMatrix:
    """Weingarten coefficients of a translation graph.

    Diagonal:  eta_j^j = -A^(-(2m+1)/(2m))/(2m-1) (f_j')^(-(2m-2)/(2m-1)) f_j''
                         (1 + sum_{i!=j} (f_i')^(2m/(2m-1)))
    Off-diag:  eta_j^k = +A^(-(2m+1)/(2m))/(2m-1) (f_j')^(1/(2m-1)) f_j''
                         (f_k')^(1/(2m-1))
    """
    m = p.m
    d1, d2, X, A, G, _ = _translation_terms(fs, u, p, "translation Weingarten")
    pref = np.float_power(A, -(2 * m + 1) / (2 * m)) / (2 * m - 1)
    root = signed_pow(d1, 1, 2 * m - 1)
    W = pref * root[:, None] * d2[:, None] * root[None, :]
    np.fill_diagonal(W, -pref * G * (A - X))
    return WeingartenMatrix(entries=W)


# ---------------------------------------------------------------------------
# separable implicit surfaces
# ---------------------------------------------------------------------------


def separable_residual_sum(d1, d2, m: int) -> float:
    """sum_j (f_j')^(-(2m-2)/(2m-1)) f_j'' (A - (f_j')^(2m/(2m-1))), A = sum X_i.

    The minimality residual of a separable surface; proportional to H by the
    positive factor n(2m-1) A^((2m+1)/(2m)).
    """
    d1 = np.asarray(d1, dtype=float)
    _slope_guard(d1, m, "separable residual")
    return float(_slope_terms(d1, np.asarray(d2, dtype=float), m)[3])


def separable_closed_form(fs, points, p: NormParams, on_surface_tol: float = 1e-6):
    """Closed-form mean curvature, Weingarten matrices and Birkhoff normals of
    the separable surface sum f_i(x_i) = 0.

    points is a stack (N, dim) of on-surface points; returns H with shape (N,),
    the Weingarten entries with shape (N, n, n), in the chart that solves the
    last coordinate in terms of the others (so its slope must not vanish), and
    the normals eta with shape (N, dim), aligned with (f_1', ..., f_{n+1}').

    Diagonal:  eta_j^j = A^(-(2m+1)/(2m))/(2m-1) (X_j G_{n+1} + G_j (A - X_j))
    Off-diag:  eta_j^k = A^(-(2m+1)/(2m))/(2m-1) (f_k')^(1/(2m-1))
                         (f_j' G_{n+1} - (f_j')^(1/(2m-1)) f_j'')
    with X_j = (f_j')^(2m/(2m-1)), A = sum X and
    G_j = (f_j')^(-(2m-2)/(2m-1)) f_j''.
    """
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
    m, n = p.m, p.n
    d1, d2 = _derivs(fs, x)
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


def _graph_tangents(nu: np.ndarray) -> np.ndarray:
    """Tangent vectors (..., dim, n) of a chart that is a graph over the first n
    coordinates: e_j + (d x_{n+1} / d t_j) e_{n+1}, where the slope is
    -nu_j / nu_{n+1} for the chart's normal direction nu (..., dim)."""
    n = nu.shape[-1] - 1
    T = np.zeros(nu.shape[:-1] + (n + 1, n))
    T[..., :n, :] = np.eye(n)
    T[..., n, :] = -nu[..., :n] / nu[..., n:]
    return T


class GraphChart:
    """Graph hypersurface (u, f(u)) with a gradient evaluator.

    value_fn and grad_fn take one parameter vector.  The chart methods take a
    parameter vector or a stack (..., n) of them, calling the two functions
    once per vector.
    """

    def __init__(self, value_fn, grad_fn, p: NormParams):
        self.value_fn = value_fn
        self.grad_fn = grad_fn
        self.p = p

    @staticmethod
    def _per_vector(fn, t: np.ndarray, tail: tuple) -> np.ndarray:
        rows = [fn(row) for row in t.reshape(-1, t.shape[-1])]
        return np.asarray(rows, dtype=float).reshape(t.shape[:-1] + tail)

    def _grad(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self._per_vector(self.grad_fn, t, (self.p.n,))

    def point(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.concatenate([t, self._per_vector(self.value_fn, t, (1,))], axis=-1)

    def tangents(self, t) -> np.ndarray:
        return _graph_tangents(self.nu(t))

    def nu(self, t) -> np.ndarray:
        g = self._grad(t)
        return np.concatenate([-g, np.ones(g.shape[:-1] + (1,))], axis=-1)

    def eta(self, t) -> np.ndarray:
        return birkhoff_normal_graph(self._grad(t), self.p).eta


# Newton steps of the separable chart before it returns its last iterate.
_CHART_NEWTON_ITERS = 80


class SeparableChart:
    """Separable surface sum f_i(x_i) = 0 charted over the first n coordinates.

    The last coordinate is recovered by Newton iteration seeded at the base
    point's value, staying on the branch through the base point.  base_point
    may be a stack (N, dim): parameter arrays (..., N, n) are then seeded row
    by row from their own base point.  newton_iterations counts the Newton
    steps taken, one per solved coordinate and step; newton_capped counts the
    solves that stopped at the step cap and returned their last iterate.
    """

    def __init__(self, fs, p: NormParams, base_point):
        self.fs = list(fs)
        self.p = p
        base_point = np.asarray(base_point, dtype=float)
        if base_point.ndim not in (1, 2) or base_point.shape[-1] != p.dim:
            raise DimensionMismatchError("base point must be an ambient point")
        self.base_last = base_point[..., -1]
        self.newton_iterations = 0
        self.newton_capped = 0

    def _solve_last(self, t: np.ndarray) -> np.ndarray:
        """The last coordinate at every parameter vector of t (..., n).

        Each coordinate steps until its own step is below 1e-15 (1 + |x|), so
        a solve does not depend on the other coordinates solved with it.
        """
        f_last = self.fs[-1]
        rhs = -_sum_last(_columns(self.fs[:-1], t))
        shape = rhs.shape
        rhs = rhs.reshape(-1)
        x = np.broadcast_to(self.base_last, shape).reshape(-1).copy()
        live = np.arange(x.size)
        for _ in range(_CHART_NEWTON_ITERS):
            if live.size == 0:
                break
            xl = x[live]
            val = f_last(xl) - rhs[live]
            der = f_last.d1(xl)
            if (der == 0.0).any():
                raise SingularConfigurationError("chart slope f_{n+1}' vanishes")
            step = val / der
            xl -= step
            x[live] = xl
            self.newton_iterations += live.size
            live = live[~(np.abs(step) <= 1e-15 * (1.0 + np.abs(xl)))]
        self.newton_capped += live.size
        return x.reshape(shape)

    def point(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.concatenate([t, self._solve_last(t)[..., None]], axis=-1)

    def nu(self, t) -> np.ndarray:
        x = self.point(t)
        return _columns([f.d1 for f in self.fs], x)

    def tangents(self, t) -> np.ndarray:
        return _graph_tangents(self.nu(t))

    def eta(self, t) -> np.ndarray:
        return birkhoff_normal_implicit(self.nu(t), self.p).eta


def mean_curvature_oracle(chart, point, p: NormParams, h: float | None = None):
    """Mean curvature from the definition trace(d eta)/n by central differences.

    The normal's derivative along each parameter is expanded in the basis
    (tangent vectors, unit Euclidean normal); the mean of the j-th tangent
    coefficients is the oracle value and the largest normal coefficient is the
    tangency defect, which vanishes in exact arithmetic.

    point is one parameter vector (n,) or a stack (N, n) of them.  The chart
    evaluates all 2n stencil points of all of them in one call, as an array
    (2, n, N, n), and the N * n expansions are one batched solve.

    Returns (h_oracle, tangency_defect): floats for one vector, arrays of shape
    (N,) for a stack.
    """
    t0 = np.asarray(point, dtype=float)
    n = p.n
    if t0.ndim not in (1, 2) or t0.shape[-1] != n:
        raise DimensionMismatchError(f"point must have {n} parameters")
    single = t0.ndim == 1
    t0 = np.atleast_2d(t0)
    # both chart kinds are graphs over their first n parameters, so one
    # evaluation of nu gives the tangents too
    nu = chart.nu(t0)
    nu_hat = nu / np.sqrt(_sum_last(nu * nu))[:, None]
    basis = np.concatenate([_graph_tangents(nu), nu_hat[:, :, None]], axis=-1)
    steps = ORACLE_STEP_FACTOR * (1.0 + np.abs(t0)) if h is None \
        else np.full(t0.shape, float(h))
    # shift[j, i] = steps[i, j] e_j: the j-th stencil offset of the i-th point
    shift = np.eye(n)[:, None, :] * steps.T[:, :, None]
    eta = chart.eta(np.stack([t0 + shift, t0 - shift]))
    if not np.all(np.isfinite(eta)):
        raise SingularConfigurationError("non-finite normal at stencil point")
    deta = (eta[0] - eta[1]) / (2 * steps.T[:, :, None])
    coef = np.linalg.solve(basis, deta[..., None])[..., 0]
    diag_sum = np.zeros(len(t0))
    for j in range(n):
        diag_sum += coef[j, :, j]
    h_oracle = diag_sum / n
    defect = np.max(np.abs(coef[:, :, n]), axis=0)
    if single:
        return float(h_oracle[0]), float(defect[0])
    return h_oracle, defect


def report_translation(
    fs, u, p: NormParams, tol: float = 1e-6, h: float | None = None, stats=None,
) -> CurvatureReport:
    """Closed-form vs oracle comparison at one translation-graph point.

    stats, when given, times the "analytic" and "oracle" stages (see
    reporting.RunStats).
    """
    u = np.asarray(u, dtype=float)
    with _stage(stats, "analytic"):
        weingarten = weingarten_translation(fs, u, p)
        h_analytic = mean_curvature_translation(fs, u, p)
    with _stage(stats, "oracle"):
        chart = GraphChart(
            value_fn=lambda t: sum(f(ti) for f, ti in zip(fs, t)),
            grad_fn=lambda t: np.array([f.d1(ti) for f, ti in zip(fs, t)]),
            p=p,
        )
        h_oracle, defect = mean_curvature_oracle(chart, u, p, h=h)
        eta = chart.eta(u)
    return CurvatureReport(
        point=u,
        eta=eta,
        weingarten=weingarten,
        h_analytic=h_analytic,
        h_oracle=h_oracle,
        tangency_defect=defect,
        tol=tol,
    )


# Points per numpy call of report_separable_batch.  Each point adds 2n stencil
# points to the chart's arrays, so this bounds their size for any --points.
_CHUNK_POINTS = 4096


def report_separable_batch(
    fs, points, p: NormParams, tol: float = 1e-6, h: float | None = None,
    on_surface_tol: float = 1e-6, stats=None,
) -> list:
    """Closed-form vs oracle comparison at a stack (N, dim) of surface points.

    Every point is evaluated in array passes (separable_closed_form and
    mean_curvature_oracle on a SeparableChart over all of them), in chunks of
    at most _CHUNK_POINTS points.  A point's report does not depend on the
    other points of the batch.  stats, when given, times the "analytic" and
    "oracle" stages and counts the chart's Newton work (see
    reporting.RunStats).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != p.dim:
        raise DimensionMismatchError(
            f"expected (N, {p.dim}) points, got shape {points.shape}"
        )
    reports = []
    for start in range(0, len(points), _CHUNK_POINTS):
        x = points[start:start + _CHUNK_POINTS]
        with _stage(stats, "analytic"):
            H, W, eta = separable_closed_form(fs, x, p, on_surface_tol=on_surface_tol)
        with _stage(stats, "oracle"):
            chart = SeparableChart(fs, p, x)
            h_oracle, defect = mean_curvature_oracle(chart, x[:, :-1], p, h=h)
        if stats is not None:
            stats.count("chart Newton steps", chart.newton_iterations)
            stats.count("chart Newton solves at the step cap", chart.newton_capped)
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
