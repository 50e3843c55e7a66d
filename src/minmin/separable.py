"""Separable minimal hypersurfaces: substitution profiles, ansatz systems, patches.

A separable surface sum f_i(x_i) = 0 is minimal iff, after substituting
u_i = f_i(x_i) and X_i(u_i) = (f_i')^(2m/(2m-1)), the algebraic identity

    sum_j X_j'(u_j) * (A - X_j(u_j)) = 0,      A = sum_i X_i,

holds for all u on the zero-sum hyperplane u_1 + ... + u_{n+1} = 0.  The
surface itself is recovered from positive profiles X_i by the quadrature
x_i = +/- integral of X_i^(-(2m-1)/(2m)).

This module gives the identity for affine, quadratic and exponential profile
families as closed-form canonical coefficient systems, builds surface patches
by the closed-form antiderivative or composite quadrature, and provides
factories for the catalogue of closed-form minimal examples (power sums,
mixed-coefficient power sums, the hyperbolic exponential surface, which is
charted over u, and the ratio surface x2 x3 = +/- x1 x4).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    CurvatureReport,
    SeparableChart,
    _report_chunks,
    _stage,
    report_separable_batch,
)
from .errors import (
    ConstraintViolationError,
    DimensionMismatchError,
    DomainError,
    EmptyDomainError,
    NonpositiveProfileError,
    SingularConfigurationError,
    check_array_size,
)
from .functions import C3Function, PowerColumns, ProfileColumns, evaluate
from .meshes import patch_view, write_points_csv
from .norms import NormParams, _sum_last
from .sampling import random_signs, signed_uniform


# ---------------------------------------------------------------------------
# X-profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XProfile:
    """A substituted slope profile X(u) = (f')^(2m/(2m-1)), positive on its domain.

    kind is one of affine (p + q u), quadratic (p + q u + r u^2) or exponential
    (q e^u + r e^-u).  params keeps (p, q, r) as applicable.  value() and
    deriv() take a float or a whole numpy array (see functions.evaluate).
    """

    kind: str
    params: tuple
    _eval: object = field(repr=False)
    _deriv: object = field(repr=False)

    def value(self, u):
        return evaluate(self._eval, u)

    def deriv(self, u):
        return evaluate(self._deriv, u)

    @classmethod
    def affine(cls, p: float, q: float) -> "XProfile":
        return cls("affine", (p, q), lambda u: p + q * u, lambda u: q)

    @classmethod
    def quadratic(cls, p: float, q: float, r: float) -> "XProfile":
        return cls("quadratic", (p, q, r), lambda u: p + q * u + r * u * u,
                   lambda u: q + 2 * r * u)

    @classmethod
    def exponential(cls, q: float, r: float) -> "XProfile":
        return cls("exponential", (q, r), lambda u: q * np.exp(u) + r * np.exp(-u),
                   lambda u: q * np.exp(u) - r * np.exp(-u))

    def positive_interval(self) -> tuple | None:
        """Largest open interval where X > 0, or None when X is never positive.

        For quadratic profiles with two positivity components the component
        containing the vertex-side reference 0 is returned when positive there.
        """
        inf = math.inf
        if self.kind == "affine":
            p, q = self.params
            if q > 0:
                return (-p / q, inf)
            if q < 0:
                return (-inf, -p / q)
            return (-inf, inf) if p > 0 else None
        if self.kind == "exponential":
            q, r = self.params
            if q > 0 and r >= 0 or q >= 0 and r > 0:
                return (-inf, inf)
            if q > 0 and r < 0:
                return (0.5 * math.log(-r / q), inf)
            if q < 0 and r > 0:
                return (-inf, 0.5 * math.log(r / -q))
            return None
        p, q, r = self.params  # quadratic
        if r == 0:
            return XProfile.affine(p, q).positive_interval()
        disc = q * q - 4 * r * p
        if disc < 0:
            return (-inf, inf) if r > 0 else None
        s = math.sqrt(disc)
        lo, hi = sorted(((-q - s) / (2 * r), (-q + s) / (2 * r)))
        if r < 0:
            return (lo, hi)
        # positive outside [lo, hi]: pick the component containing 0
        if self.value(0.0) > 0:
            return (-inf, lo) if 0.0 < lo else (hi, inf)
        return (hi, inf)


def minimality_identity_residual(xs, u) -> float:
    """sum_j X_j'(u_j) (A - X_j(u_j)) on the zero-sum hyperplane; zero iff minimal."""
    u = np.asarray(u, dtype=float)
    if len(xs) != len(u):
        raise DimensionMismatchError(f"need {len(xs)} parameter values")
    if abs(u.sum()) > 1e-12 * max(1.0, np.max(np.abs(u))):
        raise ConstraintViolationError(f"sum u = {u.sum():.3e} is not zero")
    vals = np.array([x.value(t) for x, t in zip(xs, u)])
    if np.any(vals <= 0.0):
        raise NonpositiveProfileError("X_i(u_i) must be positive")
    derivs = np.array([x.deriv(t) for x, t in zip(xs, u)])
    A = vals.sum()
    return float(np.sum(derivs * (A - vals)))


# ---------------------------------------------------------------------------
# ansatz systems in closed form
# ---------------------------------------------------------------------------


@dataclass
class AnsatzSystem:
    """Canonical coefficient system of the minimality identity.

    coefficients maps canonical basis tags to values normalised the way the
    systems are usually displayed (repeated monomials share one entry); raw
    maps each monomial exponent tuple (or exponent vector, for exponentials)
    of the expanded identity to its coefficient, so that evaluate()
    reproduces the identity exactly.
    """

    kind: str
    n: int
    coefficients: dict
    raw: dict

    def max_abs(self) -> float:
        return max((abs(v) for v in self.coefficients.values()), default=0.0)

    def evaluate(self, u_full) -> float:
        """Value of the reconstructed identity at a zero-sum parameter point."""
        u_full = np.asarray(u_full, dtype=float)
        if abs(u_full.sum()) > 1e-10 * max(1.0, np.max(np.abs(u_full))):
            raise ConstraintViolationError("parameters must sum to zero")
        u = u_full[: self.n]
        total = 0.0
        if self.kind == "exponential":
            for vec, c in self.raw.items():
                total += c * math.exp(float(np.dot(vec, u)))
        else:
            for mono, c in self.raw.items():
                total += c * float(np.prod(u ** np.array(mono)))
        return total


def _system(kind: str, n: int, params, entries) -> AnsatzSystem:
    """The AnsatzSystem of the parameters params and the entries (tag, value,
    multiplicity, monomials): each monomial of a tag carries multiplicity *
    value in the expanded identity.  A term of magnitude at most 1e-13 * scale
    is dropped, and its tag reads 0.0, where scale = max(1, |params|)^2.
    Raises DomainError unless every parameter, scale and every term are
    finite: the rule would drop a NaN term, and every term under an infinite
    scale."""
    top = max(1.0, *map(abs, params))
    scale = top * top
    finite = math.isfinite(scale) and all(map(math.isfinite, params))
    coefficients, raw = {}, {}
    for tag, value, mult, monomials in entries:
        term = mult * value
        finite = finite and math.isfinite(term)
        if abs(term) > 1e-13 * scale:
            coefficients[tag] = value
            for mono in monomials:
                raw[mono] = term
        else:
            coefficients[tag] = 0.0
    if not finite:
        raise DomainError("the parameters, their scale and the identity's terms "
                          "must be finite")
    return AnsatzSystem(kind=kind, n=n, coefficients=coefficients, raw=raw)


def extract_affine_system(n: int, p, q) -> AnsatzSystem:
    """Coefficients of the identity for affine X_i = p_i + q_i u_i, all q_i != 0.

    With u_{n+1} = -(u_1 + ... + u_n) the identity collapses to the constant
    sum_{i != j} q_j p_i and, for u_l, the linear coefficient
    (q_l - q_{n+1}) (sum of the q_j with j not l, n+1).  It needs n >= 2,
    three profiles, as NormParams does.
    """
    if n < 2:
        raise DimensionMismatchError(f"an affine system needs n >= 2, got n = {n}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (n + 1,) or q.shape != (n + 1,):
        raise DimensionMismatchError(f"need {n + 1} values of p and q")
    if np.any(q == 0.0):
        raise DomainError("affine profiles require q_i != 0")
    p, q = p.tolist(), q.tolist()
    total_p = sum(p)
    entries = [("1", sum(qj * (total_p - pj) for pj, qj in zip(p, q)), 1, [(0,) * n])]
    for l in range(n):
        others = sum(q[j] for j in range(n) if j != l)
        unit = tuple(int(j == l) for j in range(n))
        entries.append((f"u{l + 1}", others * (q[l] - q[n]), 1, [unit]))
    return _system("affine", n, p + q, entries)


def _quadratic_coefficients(p, q, r) -> tuple:
    """The fourteen canonical coefficients of the quadratic system in the order
    of _QUAD_TERMS.  Each is a quadratic form in (p, q, r); the entries may be
    floats or arrays that broadcast."""
    p1, p2, p3, p4 = p
    q1, q2, q3, q4 = q
    r1, r2, r3, r4 = r
    s4 = p1 + p2 + p3  # sum of p_i over i != 4
    r4_s4 = 2.0 * r4 * s4
    return (
        q1 * (p2 + p3 + p4) + q2 * (p1 + p3 + p4) + q3 * (p1 + p2 + p4) + q4 * s4,
        (q2 + q3) * (q1 - q4) + 2.0 * r1 * (p2 + p3 + p4) - r4_s4,
        (q1 + q3) * (q2 - q4) + 2.0 * r2 * (p1 + p3 + p4) - r4_s4,
        (q1 + q2) * (q3 - q4) + 2.0 * r3 * (p1 + p2 + p4) - r4_s4,
        (q2 + q3) * (r1 + r4) - q1 * r4 - q4 * r1,
        (q1 + q3) * (r2 + r4) - q2 * r4 - q4 * r2,
        (q1 + q2) * (r3 + r4) - q3 * r4 - q4 * r3,
        (q2 - q4) * r1 + (q1 - q4) * r2 + q3 * r4,
        (q3 - q4) * r1 + (q1 - q4) * r3 + q2 * r4,
        (q3 - q4) * r2 + (q2 - q4) * r3 + q1 * r4,
        r1 * r2 + r1 * r4 + r2 * r4,
        r1 * r3 + r1 * r4 + r3 * r4,
        r2 * r3 + r2 * r4 + r3 * r4,
        r4 * (r1 + r2 + r3),
    )


# (tag, multiplicity, monomials) of the quadratic system: a mixed monomial
# u_a u_b appears twice in the expansion, each member of a symmetric cubic
# pair twice and u1 u2 u3 four times
_QUAD_TERMS = (
    ("1", 1, ((0, 0, 0),)),
    ("u1", 1, ((1, 0, 0),)),
    ("u2", 1, ((0, 1, 0),)),
    ("u3", 1, ((0, 0, 1),)),
    ("u1^2", 1, ((2, 0, 0),)),
    ("u2^2", 1, ((0, 2, 0),)),
    ("u3^2", 1, ((0, 0, 2),)),
    ("u1*u2", 2, ((1, 1, 0),)),
    ("u1*u3", 2, ((1, 0, 1),)),
    ("u2*u3", 2, ((0, 1, 1),)),
    ("u1^2*u2+u1*u2^2", 2, ((2, 1, 0), (1, 2, 0))),
    ("u1^2*u3+u1*u3^2", 2, ((2, 0, 1), (1, 0, 2))),
    ("u2^2*u3+u2*u3^2", 2, ((0, 2, 1), (0, 1, 2))),
    ("u1*u2*u3", 4, ((1, 1, 1),)),
)


def extract_quadratic_system(p, q, r) -> AnsatzSystem:
    """Coefficients for quadratic X_i = p_i + q_i u_i + r_i u_i^2 (n = 3).

    Returns the fourteen canonical entries; mixed monomials are normalised by
    their multiplicity (2 for u_j u_k and the symmetric cubic pairs, 4 for
    u_1 u_2 u_3), so each entry is the common per-monomial coefficient.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    if not (p.shape == q.shape == r.shape == (4,)):
        raise DimensionMismatchError("quadratic case needs 4 values of p, q, r")
    p, q, r = p.tolist(), q.tolist(), r.tolist()
    values = _quadratic_coefficients(p, q, r)
    return _system("quadratic", 3, p + q + r, [
        (tag, value, mult, monos) for (tag, mult, monos), value in zip(_QUAD_TERMS, values)])


# (tag, exponent vector, the q pair, the r pair) of the exponential system
_EXP_TERMS = (
    ("exp(+u1+u2)", (1, 1, 0), (0, 1), (2, 3)),
    ("exp(-u1-u2)", (-1, -1, 0), (2, 3), (0, 1)),
    ("exp(+u1+u3)", (1, 0, 1), (0, 2), (1, 3)),
    ("exp(-u1-u3)", (-1, 0, -1), (1, 3), (0, 2)),
    ("exp(+u2+u3)", (0, 1, 1), (1, 2), (0, 3)),
    ("exp(-u2-u3)", (0, -1, -1), (0, 3), (1, 2)),
)


def extract_exponential_system(q, r) -> AnsatzSystem:
    """Coefficients for exponential X_i = q_i e^u + r_i e^-u (n = 3).

    The identity collapses to six exponentials e^(+/-(u_i + u_j)); each tag
    carries twice a q-product less twice an r-product.  The expansion sums
    each doubled product on its own, so one that overflows makes the
    difference, and the term, not finite.
    """
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    if not (q.shape == r.shape == (4,)):
        raise DimensionMismatchError("exponential case needs 4 values of q and r")
    q, r = q.tolist(), r.tolist()
    return _system("exponential", 3, q + r, [
        (tag, 2.0 * (q[a] * q[b]) - 2.0 * (r[c] * r[d]), 1, (vec,))
        for tag, vec, (a, b), (c, d) in _EXP_TERMS])


# ---------------------------------------------------------------------------
# admissible domains and patches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleDomain:
    """Positivity intervals of the X-profiles and the zero-sum feasibility flag."""

    intervals: tuple
    feasible: bool


def admissible_domain(xs) -> AdmissibleDomain:
    """Intersect per-profile positivity with the zero-sum constraint.

    The free parameters are u_1..u_n; u_{n+1} = -(u_1 + ... + u_n) must land
    in the last profile's positivity interval, which is possible iff the open
    interval of achievable sums meets the reflected last interval.  Overlaps
    below 1e-12 (relative) count as empty: the degenerate cases collapse to an
    exactly empty open interval that float rounding may leave marginally open.
    """
    intervals = [x.positive_interval() for x in xs]
    if any(iv is None for iv in intervals):
        return AdmissibleDomain(intervals=tuple(intervals), feasible=False)
    free = intervals[:-1]
    lo_last, hi_last = intervals[-1]
    sum_lo = sum(iv[0] for iv in free)
    sum_hi = sum(iv[1] for iv in free)
    # need some s in (sum_lo, sum_hi) with -s in (lo_last, hi_last)
    lo = max(sum_lo, -hi_last)
    hi = min(sum_hi, -lo_last)
    if not lo < hi:
        feasible = False
    elif math.isinf(hi - lo):
        feasible = True
    else:
        feasible = (hi - lo) > 1e-12 * max(1.0, abs(lo), abs(hi))
    return AdmissibleDomain(intervals=tuple(intervals), feasible=feasible)


# Batched quadratures evaluate at most about this many integrand nodes per
# numpy call, so that peak memory does not grow with a patch grid.
_CHUNK_POINTS = 4096
_PATCH_PANELS = 256  # Simpson panels of a patch coordinate with no closed form
_SWEEP_STARTS, _SWEEP_ITERS = 40, 80  # sweep_quadratic_system: starts, steps per start


@functools.lru_cache(maxsize=None)
def _simpson_rule(panels: int):
    """The node offsets 0..panels and the Simpson weights 1 4 2 4 ... 2 4 1 of
    an even panel count, built once per count and read-only."""
    k = np.arange(panels + 1.0)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    k.flags.writeable = w.flags.writeable = False
    return k, w


def composite_simpson(fn, a, b, panels: int = 256):
    """Composite Simpson rule with a fixed even panel count (4th order).

    fn is called once, on the array of all nodes, so it must accept arrays.
    a and b may be arrays that broadcast: fn then sees their broadcast shape
    plus a trailing node axis, and one integral per element is returned.
    Each integral is reduced on its own: its bits do not depend on the rest.
    """
    if panels % 2:
        panels += 1
    k, w = _simpson_rule(panels)
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # the nodes of np.linspace(a, b, panels + 1)
    t = k * ((b - a) / panels)[..., None] + a[..., None]
    t[..., -1] = b
    total = (b - a) / (3.0 * panels) * np.einsum("...k,k->...", fn(t), w)
    total = np.where(a == b, 0.0, total)
    return float(total) if scalar else total


def _x_antiderivative(xp: XProfile, u, m: int):
    """Canonical antiderivative of X^(-(2m-1)/(2m)) at u (or an array of u)
    where a closed form exists."""
    g = (2 * m - 1) / (2 * m)
    if xp.kind == "affine":
        p0, q0 = xp.params
        if q0 == 0.0:
            return p0 ** (-g) * u
        return (2 * m / q0) * (p0 + q0 * u) ** (1.0 / (2 * m))
    if xp.kind == "exponential":
        q0, r0 = xp.params
        if r0 == 0.0 and q0 > 0:
            return -(1.0 / g) * q0 ** (-g) * np.exp(-g * u)
        if q0 == 0.0 and r0 > 0:
            return (1.0 / g) * r0 ** (-g) * np.exp(g * u)
    return None


def _x_coordinates(xp: XProfile, sign: float, us, u0: float, m: int) -> np.ndarray:
    """sign * x(u) at every element of us: the closed-form antiderivative where
    there is one, else composite_simpson of X^(-(2m-1)/(2m)) from u0 with
    _PATCH_PANELS panels, once per distinct value of us (an integral's bits
    do not depend on the others), about _CHUNK_POINTS nodes per call."""
    exact = _x_antiderivative(xp, us, m)
    if exact is not None:
        return sign * exact
    g = (2 * m - 1) / (2 * m)
    bs, inverse = np.unique(us, return_inverse=True)
    out, per_call = np.empty(bs.shape), _CHUNK_POINTS // (_PATCH_PANELS + 1)
    for start in range(0, bs.size, per_call):
        out[start:start + per_call] = composite_simpson(
            lambda t: xp.value(t) ** (-g), u0, bs[start:start + per_call], _PATCH_PANELS)
    return sign * out[inverse].reshape(np.shape(us))


@dataclass
class SeparableMinimalPatch:
    """Quadrature-parametrised patch of a separable surface.

    us has shape grid + (n+1,) (the zero-sum parameters) and points has shape
    grid + (dim,) (the ambient coordinates).
    """

    xprofiles: tuple
    signs: tuple
    p: NormParams
    us: np.ndarray
    points: np.ndarray

    def flat_points(self) -> np.ndarray:
        return self.points.reshape(-1, self.points.shape[-1])

    def write_csv(self, path):
        k = self.us.shape[-1]
        header = ([f"u{i + 1}" for i in range(k)]
                  + [f"x{i + 1}" for i in range(self.points.shape[-1])])
        write_points_csv(path, header, [*self.us.reshape(-1, k).T,
                                        *self.flat_points().T])


def check_patch_profiles(xs, signs, p: NormParams) -> None:
    """Refuse patch data unless it has n + 1 profiles and signs of +1 or -1."""
    if len(xs) != p.n + 1 or len(signs) != p.n + 1:
        raise DimensionMismatchError(f"need {p.n + 1} profiles and signs")
    if any(s not in (1, -1) for s in signs):
        raise DomainError(f"patch signs must be +1 or -1, got {list(signs)}")


def patch_from_xprofiles(xs, signs, axes, p: NormParams) -> SeparableMinimalPatch:
    """Integrate the profile quadratures over a product grid of u-axes.

    axes is a sequence of n strictly-increasing 1-D arrays for u_1..u_n; the
    last parameter is the negative sum.  Every node must keep all X_i positive,
    and an X_i or a coordinate that overflows a float raises DomainError.
    x_{n+1} is integrated once per distinct value of u_{n+1} (_x_coordinates).
    """
    mesh, u_last, points = _patch(xs, signs, axes, p, (), range(p.dim))
    return SeparableMinimalPatch(xprofiles=tuple(xs), signs=tuple(signs), p=p,
                                 us=np.stack([*mesh, u_last], axis=-1), points=points)


def patch_slice(xs, signs, axes, p: NormParams, slice_axes=None, project=None):
    """meshes.patch_vertices(patch_from_xprofiles(xs, signs, axes, p),
    slice_axes, project), computing only its three coordinates at the grid x
    grid nodes of its slice once the view is checked (meshes.patch_view).
    Only the X_{n+1} positivity check still covers the whole grid."""
    index, swap, project = patch_view([len(a) for a in axes], p.dim, slice_axes, project)
    verts = _patch(xs, signs, axes, p, index, project)[2]
    return np.swapaxes(verts, 0, 1) if swap else verts


def _patch(xs, signs, axes, p: NormParams, index, coords):
    """The mesh of the axes (views), u_{n+1} at every node, and the
    coordinates coords (..., len(coords)) at the nodes grid[index]."""
    check_patch_profiles(xs, signs, p)
    n, axes = p.n, [np.asarray(a, dtype=float) for a in axes]
    if len(axes) != n or any(a.size == 0 for a in axes):
        raise EmptyDomainError("grid must provide a non-empty axis per parameter")
    if not admissible_domain(xs).feasible:
        raise EmptyDomainError("admissible domain is empty")
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i, a in enumerate(axes):
                bad = a[xs[i].value(a) <= 0.0]
                if bad.size:
                    raise NonpositiveProfileError(
                        f"X_{i + 1} not positive at axis values {bad[:3].tolist()}")
            mesh = np.meshgrid(*axes, indexing="ij", copy=False)
            u_last = -sum(mesh)
            if np.any(xs[n].value(u_last) <= 0.0):
                raise NonpositiveProfileError("X_{n+1} not positive over the grid")
            columns = [
                _x_coordinates(xs[n], signs[n], u_last[index], float(u_last.flat[0]), p.m)
                if c == n else np.broadcast_to(
                    _x_coordinates(xs[c], signs[c], axes[c], float(axes[c][0]), p.m)
                    .reshape([-1 if j == c else 1 for j in range(n)]), u_last.shape)[index]
                for c in coords]
    except FloatingPointError as exc:
        raise DomainError(f"an X_i or a coordinate of the patch overflows a float "
                          f"({exc})") from None
    return mesh, u_last, np.stack(columns, axis=-1)


def feasible_axes(xs, points_per_axis: int, span: float = 1.0):
    """Per-axis sample ranges inside the admissible domain: 0.95 of each
    interval, shrunk until the zero-sum image keeps 0.05 of its interval's
    width from either end.  Raises EmptyDomainError when there is no room at
    all, and DomainError unless span is positive and both 4 * span and the
    sum of the axis centers are finite."""
    if not 0.0 < span < math.inf:
        raise DomainError(f"span must be positive and finite, got {span!r}")
    if 4.0 * span == math.inf:
        raise DomainError(f"span {span!r} overflows a float: the dependent "
                          "parameter's working width 4 * span is not finite")
    dom = admissible_domain(xs)
    if not dom.feasible:
        raise EmptyDomainError("admissible domain is empty")
    n = len(xs) - 1
    centers, halves = [], []
    for iv in dom.intervals[:-1]:
        lo = max(iv[0], -span)
        hi = min(iv[1], span)
        if not lo < hi:
            raise EmptyDomainError("axis interval empty inside the working span")
        centers.append(0.5 * (lo + hi))
        halves.append(0.5 * (hi - lo) * 0.95)
    lo_last, hi_last = dom.intervals[-1]
    # the dependent parameter stays padded away from its boundary too, since
    # the coordinate integrand can blow up (integrably) there
    width = min(hi_last - lo_last, 4.0 * span)
    pad = 0.05 * width
    lo_pad, hi_pad = lo_last + pad, hi_last - pad
    center_last = -sum(centers)
    if not math.isfinite(center_last):
        raise DomainError(f"span {span!r} overflows a float: the sum of the "
                          f"{n} axis centers is not finite")
    if not lo_pad < center_last < hi_pad:
        # slide the centers toward a feasible sum
        target = 0.5 * (max(lo_pad, -span) + min(hi_pad, span))
        shift = (-target - sum(centers)) / n
        centers = [c + shift for c in centers]
        center_last = -sum(centers)
        if not lo_pad < center_last < hi_pad:
            raise EmptyDomainError("could not center the grid in the domain")
    for _ in range(80):
        s_lo = sum(c - h for c, h in zip(centers, halves))
        s_hi = sum(c + h for c, h in zip(centers, halves))
        if lo_pad < -s_hi and -s_lo < hi_pad:
            break
        halves = [0.5 * h for h in halves]
    else:
        raise EmptyDomainError("no product grid fits the admissible domain")
    return [
        np.linspace(c - h, c + h, points_per_axis) for c, h in zip(centers, halves)
    ]


# ---------------------------------------------------------------------------
# example surfaces
# ---------------------------------------------------------------------------


# Candidate slices per block of an on-surface sampler.  A block is drawn whole
# whatever the count, so the first N points of a larger draw are an N-point draw.
_SAMPLE_BLOCK = 128
# A sampler gives up once it has drawn this many slices per requested point.
_MAX_SLICES_PER_POINT = 200


@dataclass(frozen=True)
class SeparableSurface:
    """Profiles f_i with sum f_i(x_i) = 0, plus an on-surface point sampler.

    _draw_block(rng) draws _SAMPLE_BLOCK candidate slices and returns the
    on-surface points (k, dim) of the k slices it keeps, in draw order.
    """

    name: str
    fs: tuple
    p: NormParams
    _draw_block: object = field(repr=False)

    def sample(self, rng: np.random.Generator, count: int, stats=None) -> np.ndarray:
        """count on-surface points with all coordinates bounded away from zero.

        Blocks are drawn until count points are kept.  stats, when given,
        counts the slices drawn and rejected (see reporting.RunStats).  A
        count past numpy's index range is refused before the first block.
        """
        check_array_size(count * self.p.dim, f"a sample of {count} points in "
                         f"{self.p.dim} coordinates")
        blocks, got, drawn = [], 0, 0
        while got < count:
            if drawn >= _MAX_SLICES_PER_POINT * count:
                raise DomainError("on-surface sampling kept rejecting slices")
            rows = self._draw_block(rng)
            blocks.append(rows)
            got += len(rows)
            drawn += _SAMPLE_BLOCK
        if stats is not None:
            stats.count("sampler slices drawn", drawn)
            stats.count("sampler slices rejected", drawn - got)
        if not blocks:
            return np.empty((0, self.p.dim))
        if len(blocks) == 1:  # one block: a slice of it, not a copy
            return blocks[0][:count]
        return np.concatenate(blocks)[:count]

    def report_sample(self, rng: np.random.Generator, count: int, tol: float = 1e-6,
                      stats=None) -> CurvatureReport:
        """report_separable_batch at count sampled points; stats, when given,
        also times the "sample" stage."""
        with _stage(stats, "sample"):
            points = self.sample(rng, count, stats=stats)
        return report_separable_batch(self.fs, points, self.p, tol=tol, stats=stats)


def _root_sampler(dim: int, last_root, floor: float):
    """Block sampler for a surface whose last coordinate has an explicit root.

    Each slice fixes the first dim - 1 coordinates at random signed
    magnitudes in [0.3, 1.5); last_root maps a block of them (B, dim - 1) to
    the magnitudes of the last coordinate, which takes a random sign.  Slices
    whose root is not in [floor, 20] (or is NaN) are rejected.
    """

    def draw_block(rng: np.random.Generator) -> np.ndarray:
        vals = signed_uniform(rng, 0.3, 1.5, (_SAMPLE_BLOCK, dim - 1))
        sign = random_signs(rng, _SAMPLE_BLOCK)
        root = last_root(vals)
        keep = (floor <= root) & (root <= 20.0)
        return np.column_stack([vals[keep], sign[keep] * root[keep]])

    return draw_block


def _powersum_sampler(a, b, m: int):
    """Block sampler for surfaces sum_i (a_i x_i^(2m) + b_i) = 0: the last
    coordinate is the root t = (-rest / a_last)^(1/(2m)) of
    a_last t^(2m) + rest = 0, kept in [0.1, 20] (_root_sampler), and a slice
    with -rest / a_last < 0 has none.
    Raises where rest overflows a float: the slopes there overflow too."""
    a = np.asarray(a, dtype=float)
    const = float(np.asarray(b, dtype=float).sum())

    def last_root(vals):
        with np.errstate(over="ignore", invalid="ignore"):
            rest = _sum_last(a[:-1] * vals ** (2 * m)) + const
        if not np.isfinite(rest).all():
            raise SingularConfigurationError(
                f"the power sum sum_i a_i x_i^(2m) of a sampled slice overflows "
                f"a float at m = {m}")
        return np.float_power(np.maximum(-rest / a[-1], 0.0), 1.0 / (2 * m))

    return _root_sampler(len(a), last_root, 0.1)


def _powersum_surface(name: str, a, b, m: int) -> SeparableSurface:
    """The surface sum_i (a_i x_i^(2m) + b_i) = 0; raises DomainError unless
    every coefficient is finite, every a_i nonzero (a power that underflows
    to 0 leaves no x_i^(2m) term) and the constants b sum to zero, to 1e-12
    relative to the largest |b_i|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError(f"the coefficients of {name} must be finite")
    if not a.all():
        raise DomainError(f"a coefficient of {name} is 0: its power underflows a float")
    if abs(b.sum()) > 1e-12 * max(1.0, np.max(np.abs(b))):
        raise ConstraintViolationError("constant terms must sum to zero")
    return SeparableSurface(
        name=name,
        fs=PowerColumns(a, b, m),
        p=NormParams(m=m, dim=len(a)),
        _draw_block=_powersum_sampler(a, b, m),
    )


_NEWTON_ITERS = 80


class QuadratureColumns(ProfileColumns):
    """The quadrature profiles of X-profiles xs of one kind as functions of u:
    column i gives x_i(u_i) (_x_coordinates, a column at a time) and, in one
    pass over every column of the XProfile whose coefficients are rows (dim,),
    f_i' = sign_i X_i^gamma and f_i'' = gamma X_i' X_i^(2 gamma - 1) where
    the parameter is u_i, gamma = (2m-1)/(2m)."""

    def __init__(self, xs, signs, m: int):
        self.xs, self.signs, self.m = tuple(xs), np.array(signs, dtype=float), m
        self._gamma = (2 * m - 1) / (2 * m)
        (kind,) = {x.kind for x in self.xs}  # ValueError for mixed kinds
        self._xp = getattr(XProfile, kind)(*np.array([x.params for x in self.xs], float).T)

    def __len__(self) -> int:
        return len(self.xs)

    def column(self, i: int) -> "QuadratureColumns":
        return QuadratureColumns(self.xs[i:i + 1], self.signs[i:i + 1], self.m)

    def __call__(self, u):
        return np.stack([_x_coordinates(x, s, u[..., i], 0.0, self.m) for i, (x, s)
                         in enumerate(zip(self.xs, self.signs.tolist()))], axis=-1)

    def d1(self, u):
        return self.signs * self._xp.value(u) ** self._gamma

    def d2(self, u):
        g = self._gamma
        return g * self._xp.deriv(u) * self._xp.value(u) ** (2 * g - 1.0)

    def slopes_at(self, y, col, row):
        xp = getattr(XProfile, self._xp.kind)(*(c[col] for c in self._xp.params))
        return self.signs[col] * xp.value(y) ** self._gamma


class _QuadratureProfile(C3Function):
    """f(x) = u(x) for x(u) = sign * integral of X^(-(2m-1)/(2m)) from 0.

    in_u, built on first use, is the profile in u: the view of its one-column
    QuadratureColumns.  f(x) and its derivatives at x recover u (u_of_x) by
    safeguarded Newton iteration inside a doubling-search bracket.
    """

    def __init__(self, xp: XProfile, sign: float, m: int):
        if sign not in (1, -1):
            raise DomainError(f"quadrature chart sign must be +1 or -1, got {sign}")
        self.xp, self.sign, self.m = xp, float(sign), m
        super().__init__(self.u_of_x, lambda x: self.in_u.d1(self.u_of_x(x)),
                         lambda x: self.in_u.d2(self.u_of_x(x)))

    @functools.cached_property
    def in_u(self) -> C3Function:
        return QuadratureColumns((self.xp,), (self.sign,), self.m)[0]

    def x_of_u(self, u):
        """A patch's coordinate from 0 (_x_coordinates); u may be an array."""
        return _x_coordinates(self.xp, self.sign, u, 0.0, self.m)

    def u_of_x(self, x):
        """Safeguarded Newton inversion of the (monotone) coordinate quadrature
        inside a doubling-search bracket, at a float or at every element of an
        array; each element stops at the step where the float iteration would."""
        xa = np.asarray(x, dtype=float)[()]  # a float iterates on numpy scalars
        # the first bracket [-2^k, 2^k] whose ends straddle each element (a
        # non-finite x has none)
        half = x_lo = x_hi = np.zeros(np.shape(xa))  # 0 where not bracketed yet
        for k in range(80):
            if half.all():
                break
            ends = np.array([-(2.0**k), 2.0**k])
            with np.errstate(all="ignore"):
                X = self.xp.value(ends)
                x_ends = self.x_of_u(ends)
            if not (np.isfinite(X) & (X > 0.0) & np.isfinite(x_ends)).all():
                break  # X overflows or stops being positive before x is reached
            new = (half == 0.0) & ((x_ends[0] - xa) * (x_ends[1] - xa) <= 0)
            half = np.where(new, ends[1], half)
            x_lo = np.where(new, x_ends[0], x_lo)
            x_hi = np.where(new, x_ends[1], x_hi)
        _refuse(half > 0.0, xa, "x = {} outside the reach of the quadrature chart")
        lo, hi = -half, half
        u = lo + (xa - x_lo) * (hi - lo) / (x_hi - x_lo)  # the secant of the bracket
        done = np.zeros(np.shape(xa), dtype=bool)
        for _ in range(_NEWTON_ITERS):
            res = self.x_of_u(u) - xa
            _refuse(np.isfinite(res), u, "coordinate quadrature not finite at u = {}")
            above = res * self.sign > 0
            hi = np.where(above, u, hi)
            lo = np.where(above, lo, u)
            u_new = u - res * self.in_u.d1(u)
            tol = 1e-15 * (1.0 + np.abs(u_new))
            # an element stops at u_new where the step is below tol (u_new = u
            # where res = 0), else at u where the bracket has closed to rounding
            step_ok = np.abs(u_new - u) <= tol
            keep = done | (hi - lo <= tol) & ~step_ok
            inside = (lo < u_new) & (u_new < hi)
            step = np.where(step_ok | inside, u_new, 0.5 * (lo + hi))
            u = np.where(keep, u, step)[()]
            done = keep | step_ok
            if done.all():
                return u if isinstance(x, np.ndarray) else float(u)
        _refuse(done, xa, "quadrature chart inversion at x = {} did not converge in "
                f"{_NEWTON_ITERS} Newton steps")


def _refuse(ok, values, message: str) -> None:
    """DomainError naming the first of values where ok fails, if any does."""
    if not ok.all():
        raise DomainError(message.format(float(values[~ok][0])))


def _zero_sum(t: np.ndarray) -> np.ndarray:
    """(t, -sum t): the parameters u_1..u_{n+1} of a zero-sum point from its first n."""
    return np.concatenate([t, -_sum_last(t)[..., None]], axis=-1)


def _zero_sum_sampler(dim: int):
    """Block sampler of zero-sum parameters u: u_1..u_{dim-1} are random signed
    magnitudes in [0.3, 1.2), and a slice with |u_dim| < 0.25 is rejected."""

    def draw_block(rng: np.random.Generator) -> np.ndarray:
        u = _zero_sum(signed_uniform(rng, 0.3, 1.2, (_SAMPLE_BLOCK, dim - 1)))
        return u[np.abs(u[:, -1]) >= 0.25]

    return draw_block


@dataclass(frozen=True)
class QuadratureSurface(SeparableSurface):
    """The separable surface sum u_i = 0 in the coordinates x_i = x_i(u_i) of
    its quadrature profiles fs (see _QuadratureProfile), whose profiles in u
    are the one table in_u.  Its blocks draw zero-sum parameter rows u, which
    sample() maps to x.  report_sample() stays in u: the closed form and the
    oracle's chart (see chart) read slopes of X at u from in_u, one pass per
    array, and nothing evaluates, inverts or solves for a coordinate.
    """

    def sample_u(self, rng: np.random.Generator, count: int, stats=None) -> np.ndarray:
        """SeparableSurface.sample, whose blocks here are parameter rows u."""
        return super().sample(rng, count, stats)

    @functools.cached_property
    def in_u(self) -> QuadratureColumns:
        return QuadratureColumns(*zip(*((f.xp, f.sign) for f in self.fs)), self.p.m)

    def sample(self, rng: np.random.Generator, count: int, stats=None) -> np.ndarray:
        return self.in_u(self.sample_u(rng, count, stats))

    def chart(self, u: np.ndarray) -> SeparableChart:
        """The chart in u of the zero-sum parameter rows u (N, dim): parameters
        t = (u_1, ..., u_n), pivot u_{n+1} = -sum t, nu_i = f_i'(x_i) =
        s_i X_i^gamma at u_i and speeds du_i/dx_i = nu_i, so parameter j moves
        u_j at unit rate and the pivot at rate -1, and T[j, j] = 1/nu_j."""
        nu0 = self.in_u.d1(u)
        return SeparableChart.from_data(u, nu0, np.full(len(u), self.p.n), self.in_u,
                                        nu0)

    def report_sample(self, rng: np.random.Generator, count: int, tol: float = 1e-6,
                      stats=None) -> CurvatureReport:
        with _stage(stats, "sample"):
            u = self.sample_u(rng, count, stats)

        def chunk(rows):
            return self.chart(u[rows]), self.in_u.d2(u[rows])

        return _report_chunks(len(u), chunk, self.p, tol, stats)


def _ratio_surface(m: int) -> SeparableSurface:
    # -log|x1| + log|x2| + log|x3| - log|x4| = 0, i.e. x2 x3 / (x1 x4) = +/-1
    beta = 2 * m / (2 * m - 1)
    gamma = (2 * m - 1) / (2 * m)
    signs = (-1.0, 1.0, 1.0, -1.0)
    fs = tuple(C3Function.log_abs(s * beta, gamma) for s in signs)

    def last_root(vals):
        # f_4(t) = -beta log(gamma |t|) = -(f_1 + f_2 + f_3)
        rest = fs[0](vals[:, 0]) + fs[1](vals[:, 1]) + fs[2](vals[:, 2])
        return np.exp(rest / beta) / gamma

    return SeparableSurface(
        name="ratio", fs=fs, p=NormParams(m=m, dim=4),
        _draw_block=_root_sampler(4, last_root, 0.05),
    )


# (kind, first, second): the X-profile coefficients behind the affine and
# exponential catalogue entries (and i-2, iii-2), every profile with sign +1
_XPROFILE_DATA = {
    "6.1": ("affine", (1, 1, 1, 1), (1, -1, -1, 1)),
    "6.3": ("affine", (1, 1, 3, 3, 1), (1, 1, -2, -2, 1)),
    "6.5": ("exponential", (1.0,) * 4, (1.0,) * 4),
    "6.6": ("exponential", (1, 0, 0, 1), (0, 1, 1, 0)),
}
XPROFILE_EXAMPLE_IDS = tuple(_XPROFILE_DATA)


def xprofiles_of(kind: str, first, second) -> list:
    """The X-profiles of one kind, affine (p, q) or exponential (q, r), one per
    pair (first[i], second[i])."""
    return [getattr(XProfile, kind)(a, b) for a, b in zip(first, second)]


def example_xprofiles(example_id: str):
    """The X-profiles and signs of an id of XPROFILE_EXAMPLE_IDS."""
    if example_id not in _XPROFILE_DATA:
        raise DomainError(f"no X-profile data for example {example_id!r}")
    xs = xprofiles_of(*_XPROFILE_DATA[example_id])
    return xs, (1,) * len(xs)


def _float_pow(base: float, exponent: int) -> float:
    """base ** exponent; DomainError where it overflows a float."""
    try:
        return base ** exponent
    except OverflowError:
        raise DomainError(f"{base!r} ** {exponent} overflows a float") from None


def _powersum_coefficients(example_id: str, m: int, r: int):
    """(a, lead): the coefficients a_i of the power sum sum a_i x_i^2m of 6.1-6.4
    and the size of its leading block, or None for any other id.  6.2 and 6.4
    pair two blocks of r coordinates, so they need r >= 2.  Raises DomainError
    where a coefficient overflows a float, and MemoryError where 2r + 1
    coordinates are past numpy's index range."""
    if example_id in ("6.2", "6.4"):
        if r < 2:
            raise DomainError(f"{example_id} needs r >= 2")
        check_array_size(2 * r + 1, f"example {example_id} at r = {r}")
    if example_id == "6.1":
        return [1.0, -1.0, -1.0, 1.0], 1
    if example_id == "6.2":
        return [1.0] * r + [-1.0] * r, r
    if example_id == "6.3":
        c = -_float_pow(2.0, 2 * m - 1)
        return [1.0, 1.0, c, c, 1.0], 1
    if example_id == "6.4":
        lam = _float_pow(r / (r - 1), 2 * m - 1)
        return [-lam] * r + [1.0] * (r + 1), r
    return None


def example_surface(example_id: str, m: int, r: int = 2,
                    pq: tuple | None = None) -> SeparableSurface:
    """Catalogue of separable minimal surfaces.

    6.1:   x1^2m - x2^2m - x3^2m + x4^2m = 0 in R^4.
    6.2:   sum_{i<=r} x_i^2m - sum_{i<=r} x_{r+i}^2m = 0 in R^2r (r >= 2).
    6.3:   x1^2m + x2^2m - 2^(2m-1)(x3^2m + x4^2m) + x5^2m = 0 in R^5.
    6.4:   -(r/(r-1))^(2m-1) sum_{i<=r} x_i^2m + sum x_{r+i}^2m = 0 in R^(2r+1).
    6.5:   hyperbolic-profile surface X_i = e^u + e^-u (quadrature chart) in R^4.
    6.6:   x2 x3 / (x1 x4) = +/-1 in R^4.
    i-2:   the closed form of 6.1's affine X-profiles X_i = p_i + q_i u with
           q scaled by q1; pq = (p1..p4, q1).
    iii-2: the same of 6.3's X-profiles; pq = (p1..p5, q1).
    For i-2 and iii-2, x_i = (2m/q_i) X_i^(1/(2m)) inverts to u_i = f_i(x_i) =
    a_i x_i^2m + b_i with a_i = (q_i/(2m))^(2m) / q_i and b_i = -p_i/q_i, and
    the surface sum u_i = 0 needs sum b_i = 0 (see _powersum_surface).
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    powersum = _powersum_coefficients(example_id, m, r)
    if powersum is not None:
        a = powersum[0]
        return _powersum_surface(example_id, a, np.zeros(len(a)), m)
    if example_id == "6.5":
        xs, signs = example_xprofiles("6.5")
        fs = tuple(_QuadratureProfile(x, s, m) for x, s in zip(xs, signs))
        return QuadratureSurface(
            name="6.5", fs=fs, p=NormParams(m=m, dim=4),
            _draw_block=_zero_sum_sampler(4),
        )
    if example_id == "6.6":
        return _ratio_surface(m)
    if example_id in ("i-2", "iii-2"):
        _, p, q = _XPROFILE_DATA["6.1" if example_id == "i-2" else "6.3"]
        *p, q1 = map(float, (*p, 1.0) if pq is None else pq)
        if q1 == 0.0:
            raise DomainError("q1 must be nonzero")
        q = [q1 * qi for qi in q]
        a = [_float_pow(qi / (2 * m), 2 * m) / qi for qi in q]
        b = [-pi / qi for pi, qi in zip(p, q, strict=True)]
        return _powersum_surface(example_id, a, b, m)
    raise DomainError(f"unknown example id {example_id!r}")


def perturbed_example_surface(example_id: str, m: int, r: int = 2,
                              factor: float = 1.1) -> SeparableSurface:
    """Power-sum example 6.1-6.4 with its leading coefficient block scaled by factor.

    Breaking the coefficient balance destroys minimality, which is the sanity
    check that the on-surface H tests have teeth; factor is positive and finite.
    """
    if not 0.0 < factor < math.inf:
        raise DomainError(f"perturbation factor {factor!r} is not positive and finite")
    powersum = _powersum_coefficients(example_id, m, r)
    if powersum is None:
        raise DomainError(f"no perturbation rule for example {example_id!r}")
    a, lead = powersum
    a = [v * factor for v in a[:lead]] + a[lead:]
    return _powersum_surface(f"{example_id}-perturbed", a, np.zeros(len(a)), m)


# ---------------------------------------------------------------------------
# quadratic-case falsification
# ---------------------------------------------------------------------------


def quadratic_system_equations(p, q, r) -> np.ndarray:
    """The fourteen canonical coefficients as a residual vector, in closed form
    and without the drop rule; p, q and r may be stacks (4, ...), and the
    residuals are then (14, ...)."""
    return np.array(_quadratic_coefficients(p, q, r))


def _theta_equations(theta: np.ndarray) -> np.ndarray:
    """quadratic_system_equations of parameter vectors theta (..., 12) =
    (p, q, r), as residuals (..., 14)."""
    t = np.moveaxis(theta, -1, 0)
    return np.stack(_quadratic_coefficients(t[:4], t[4:8], t[8:]), axis=-1)


def _residuals_and_jacobian(theta: np.ndarray):
    """The residuals (k, 14) and their Jacobians (k, 14, 12) at the parameter
    vectors theta (k, 12).  Every residual is a quadratic form in theta, so
    the central difference (c(theta + e_j) - c(theta - e_j)) / 2 is its exact
    derivative along e_j; all 25 probes of a row are evaluated in one call."""
    unit = np.eye(12)
    probes = theta[:, None, :] + np.concatenate([np.zeros((1, 12)), unit, -unit])
    c = _theta_equations(probes)  # (k, 25, 14)
    return c[:, 0], np.swapaxes(c[:, 1:13] - c[:, 13:], 1, 2) / 2.0


def sweep_quadratic_system(rng: np.random.Generator) -> list:
    """Randomized Gauss-Newton sweep for solutions of the quadratic system.

    Returns the converged candidates (p, q, r, residual-norm).  Admissible
    quadratic-case data would need some r_i away from zero; the sweep is the
    numerical face of the claim that no such solution exists.

    All restarts iterate as one array, on the exact Jacobian of
    _residuals_and_jacobian.  A restart stops once its residual norm is below
    1e-13, or when 20 halvings of its step find no smaller norm.
    """
    theta = rng.uniform(-2.0, 2.0, (_SWEEP_STARTS, 12))
    active = np.arange(_SWEEP_STARTS)
    for _ in range(_SWEEP_ITERS):
        if not active.size:
            break
        f, jac = _residuals_and_jacobian(theta[active])
        base = np.linalg.norm(f, axis=-1)
        # the minimum-norm least-squares step, at np.linalg.lstsq's cutoff
        step = -(np.linalg.pinv(jac, 14 * np.finfo(float).eps) @ f[..., None])[..., 0]
        searching = base >= 1e-13
        lam = np.ones(active.size)
        for _ in range(20):
            if not searching.any():
                break
            trial = theta[active] + lam[:, None] * step
            better = searching & (np.linalg.norm(_theta_equations(trial), axis=-1)
                                  < base)
            theta[active[better]] = trial[better]
            searching &= ~better
            lam[searching] *= 0.5
        # a restart that converged, or whose line search failed, stops
        active = active[(base >= 1e-13) & ~searching]
    res = np.linalg.norm(_theta_equations(theta), axis=-1)
    return [(t[:4].copy(), t[4:8].copy(), t[8:].copy(), res_t)
            for t, res_t in zip(theta, res.tolist()) if res_t < 1e-10]


def quadratic_case_verdict(p, q, r):
    """Replay the two-branch elimination on a candidate solution.

    Returns (admissible, reason).  A candidate is admissible for the quadratic
    case only if some r_i is away from zero and q_j is nonzero wherever r_j
    vanishes; for exact solutions the elimination forces all r_i to zero and
    then kills the required q_j, so admissible candidates cannot occur.  A
    value within 1e-8 of zero counts as zero.
    """
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    r = np.asarray(r, float)
    tol = 1e-8
    if np.max(np.abs(r)) <= tol:
        return False, "all r_i vanish: degenerates to the affine case"
    if abs(r[3]) <= tol:
        i = int(np.argmax(np.abs(r[:3])))
        others = [j for j in range(3) if j != i]
        if any(abs(r[j]) > tol for j in others):
            return False, "cubic block violated: r_i r_j must vanish when r_4 = 0"
        # forced: q of every zero-r slot must vanish, contradicting admissibility
        if all(abs(q[j]) <= tol for j in others + [3]):
            return False, "forced q_j = 0 at slots with r_j = 0: inadmissible"
        return False, "candidate violates the quadratic block with r_4 = 0"
    s = r[0] + r[1] + r[2]
    if abs(s) > tol:
        return False, "r_4 (r_1 + r_2 + r_3) = 0 violated"
    prods = (
        abs(r[0] * r[1] - r[2] * r[3]),
        abs(r[0] * r[2] - r[1] * r[3]),
        abs(r[1] * r[2] - r[0] * r[3]),
    )
    if max(prods) > tol:
        return False, "cubic block violated with r_4 != 0"
    if max(abs(r[0]), abs(r[1]), abs(r[2])) > tol:
        m1, m2, m3 = abs(r[0]), abs(r[1]), abs(r[2])
        if abs(m1 - m2) > tol or abs(m2 - m3) > tol:
            return False, "|r_1| = |r_2| = |r_3| violated"
        return False, "equal moduli with zero sum force r_1 = r_2 = r_3 = 0"
    # r_1 = r_2 = r_3 = 0 with r_4 != 0 forces q_1 = q_2 = q_3 = 0
    return False, "forced q_1 = q_2 = q_3 = 0: inadmissible"
