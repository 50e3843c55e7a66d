"""Translation hypersurfaces: minimality residual, profile ODE family, cylinders.

A translation graph is x_{n+1} = f_1(u_1) + ... + f_n(u_n).  Separating the
minimality equation of such a graph yields a one-parameter ODE family for the
profile slope y = f':

    y' = (c0 / 2m) * ( |y|^((2m-2)/(2m-1)) + k * y^2 ),      k = n - 1.

For n = 2 the two profiles carry opposite-sign constants (+c0 / -c0) and the
assembled surface is minimal identically; for n >= 3 the same-sign candidate
fails to be minimal (generic grids witness a residual bounded away from zero),
and the only way out is a cylinder over a two-profile surface, after a
homothetical rescaling of the base profiles.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import GraphChart, _columns, _derivs, translation_residual_sum
from .errors import (
    DimensionMismatchError,
    DomainError,
    IntegrationError,
)
from .functions import C3Function
from .norms import NormParams, signed_pow

SLOPE_CAP = 1e6          # |f'| beyond this counts as blow-up
STEP_RESIDUAL_CAP = 1e-6  # step-doubling disagreement that stops integration
SLOPE_FLOOR = 1e-12       # |f'| below this counts as "y reached 0"

# why one direction of integrate_profile stopped, in the order they are tested
STOP_REASONS = (
    "non_finite", "step_doubling", "blowup", "slope_floor", "sign_change", "max_steps",
)


@dataclass(frozen=True)
class TranslationSurface:
    """n single-variable profiles plus the norm parameters (n = dim - 1)."""

    profiles: tuple
    p: NormParams

    def __post_init__(self):
        if len(self.profiles) != self.p.n:
            raise DimensionMismatchError(
                f"need {self.p.n} profiles for dim {self.p.dim}, got {len(self.profiles)}"
            )

    @property
    def n(self) -> int:
        return self.p.n

    def value(self, u):
        """sum_i f_i(u_i) at a parameter vector (a float) or at every vector of
        a stack (..., n), each profile evaluating its whole column at once."""
        cols = _columns(self.profiles, np.asarray(u, dtype=float))
        total = 0.0  # the start of Python's sum, so -0.0 terms still add to 0.0
        for i in range(self.n):
            total = total + cols[..., i]
        return float(total) if total.ndim == 0 else total

    def grad(self, u) -> np.ndarray:
        """(f_1'(u_1), ..., f_n'(u_n)) at a parameter vector or a stack of them."""
        return _columns([f.d1 for f in self.profiles], np.asarray(u, dtype=float))

    def chart(self) -> GraphChart:
        return GraphChart(self.value, self.grad, self.p)

    def domain_axes(self, points_per_axis: int, margin: float = 1e-3,
                    fallback: float = 1.0):
        """Per-profile sample axes inside the covered domains.

        Profiles with unbounded domains get [-fallback, fallback].
        """
        axes = []
        for f in self.profiles:
            lo, hi = getattr(f, "domain", (-np.inf, np.inf))
            if not np.isfinite(lo) or not np.isfinite(hi):
                lo, hi = -fallback, fallback
            pad = margin * (hi - lo)
            axes.append(np.linspace(lo + pad, hi - pad, points_per_axis))
        return axes


def minimality_residual(ts: TranslationSurface, u):
    """Minimality residual at a parameter point: zero exactly where H = 0.

    Equals -n(2m-1) A^((2m+1)/(2m)) H, so it carries no negative powers of the
    slopes at m = 1 and is the quantity to test near small slopes.  A stack of
    points (..., n) gives an array of residuals, each with the bits it has alone.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[-1] != ts.n:
        raise DimensionMismatchError(f"expected {ts.n} parameters")
    return translation_residual_sum(*_derivs(ts.profiles, u), ts.p.m)


def residual_grid(ts: TranslationSurface, axes) -> np.ndarray:
    """Minimality residual over the product grid of per-parameter sample axes."""
    return minimality_residual(ts, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))


# ---------------------------------------------------------------------------
# profile ODE
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileODEParams:
    """Separated profile ODE y' = (c0/2m)(|y|^((2m-2)/(2m-1)) + k y^2).

    k is the coefficient of the quadratic term (k = n - 1 in the separation);
    y0 is the initial slope f'(u0) and must be nonzero.
    """

    c0: float
    k: int
    m: int
    y0: float
    u0: float = 0.0
    step: float = 1e-3
    max_steps: int = 5000

    def __post_init__(self):
        if self.step <= 0:
            raise DomainError("step must be positive")
        if self.y0 == 0.0:
            raise DomainError("initial slope y0 must be nonzero")
        if self.k < 1 or self.m < 1:
            raise DomainError("k and m must be positive integers")

    def rhs(self, y):
        """(c0/2m)(|y|^((2m-2)/(2m-1)) + k y^2) of a float or, elementwise, an array.

        The power's numerator is even, so |y| needs no sign; a float takes the
        same C-library pow that signed_pow gives an array, bit for bit.
        """
        m = self.m
        if isinstance(y, np.ndarray):
            return (self.c0 / (2 * m)) * (
                signed_pow(y, 2 * m - 2, 2 * m - 1) + self.k * y * y
            )
        return (self.c0 / (2 * m)) * (abs(y) ** ((2 * m - 2) / (2 * m - 1))
                                      + self.k * y * y)

    def rhs_deriv(self, y: float) -> float:
        m = self.m
        d = (2 * m - 2) / (2 * m - 1) * signed_pow(y, 2 * m - 2 - (2 * m - 1), 2 * m - 1)
        return (self.c0 / (2 * m)) * (d + 2 * self.k * y)


@dataclass
class ProfileCurve:
    """Sampled solution of the profile ODE on the covered interval.

    Samples are (u, f, f', f'') with f'' evaluated through the generating ODE;
    ode_residual_max is a 5-point finite-difference audit of f' against the
    right-hand side, relative to 1 + |rhs|.  stop_reasons maps "backward" and
    "forward" to the STOP_REASONS entry that ended integration that way.
    """

    u: np.ndarray
    f: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    params: ProfileODEParams
    stop_reasons: dict = field(default_factory=dict)
    domain: tuple = field(init=False)
    ode_residual_max: float = field(init=False)

    def __post_init__(self):
        self.domain = (float(self.u[0]), float(self.u[-1]))
        self.ode_residual_max = self._audit()

    def _audit(self) -> float:
        y = self.d1
        h = self.params.step
        if len(y) < 5:
            return 0.0
        d = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * h)
        rhs = self.params.rhs(y[2:-2])
        return float(np.max(np.abs(d - rhs) / (1.0 + np.abs(rhs))))

    def to_c3(self) -> "SampledProfile":
        return SampledProfile(self)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("u,f,f_prime,f_double_prime\n")
            for row in zip(self.u, self.f, self.d1, self.d2):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _rk4(rhs, f, y, h):
    """One classical RK4 step of (f, y)' = (y, rhs(y)) on floats."""
    k1 = rhs(y)
    y2 = y + 0.5 * h * k1
    k2 = rhs(y2)
    y3 = y + 0.5 * h * k2
    k3 = rhs(y3)
    y4 = y + h * k3
    k4 = rhs(y4)
    return (f + (h / 6.0) * (y + 2 * y2 + 2 * y3 + y4),
            y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


def _integrate_direction(params: ProfileODEParams, direction: float):
    """Accepted (f, y) states one way from u0, the reason it stopped, and the
    number of rhs calls it made."""
    rhs = params.rhs
    h = direction * float(params.step)
    half = h / 2
    f, y = 0.0, float(params.y0)
    positive = y > 0
    out = []
    calls = 0
    for _ in range(params.max_steps):
        f1, y1 = _rk4(rhs, f, y, h)
        calls += 4
        if not (math.isfinite(f1) and math.isfinite(y1)):
            return out, "non_finite", calls
        fh, yh = _rk4(rhs, f, y, half)
        _, yh = _rk4(rhs, fh, yh, half)
        calls += 8
        if abs(y1 - yh) > STEP_RESIDUAL_CAP * (1.0 + abs(y1)):
            return out, "step_doubling", calls
        if abs(y1) > SLOPE_CAP:
            return out, "blowup", calls
        if abs(y1) < SLOPE_FLOOR:
            return out, "slope_floor", calls
        if (y1 > 0) != positive:
            return out, "sign_change", calls
        f, y = f1, y1
        out.append((f, y))
    return out, "max_steps", calls


def integrate_profile(params: ProfileODEParams, stats=None) -> ProfileCurve:
    """Integrate the profile ODE both ways from u0 with fixed-step classical RK4.

    The state is (f, y = f'); f(u0) = 0.  It is advanced on Python floats, one
    step at a time.  Each direction halts when a step is not finite, the
    step-doubling check disagrees beyond the cap, |y| exceeds the blow-up cap,
    y reaches zero or changes sign, or max_steps is exhausted; the curve
    records which (stop_reasons).  stats (a reporting.RunStats), if given,
    counts the accepted steps and the stepper's rhs evaluations.
    """
    bwd, stop_bwd, calls_bwd = _integrate_direction(params, -1.0)
    fwd, stop_fwd, calls_fwd = _integrate_direction(params, +1.0)
    if stats is not None:
        stats.count("accepted RK4 steps", len(bwd) + len(fwd))
        stats.count("RK4 rhs evaluations", calls_bwd + calls_fwd)
    if not fwd and not bwd:
        raise IntegrationError(
            "no admissible step: immediate blow-up or step too large "
            f"(backward: {stop_bwd}, forward: {stop_fwd})"
        )
    h = params.step
    states = np.array(bwd[::-1] + [(0.0, params.y0)] + fwd)
    u = np.concatenate([
        params.u0 - np.arange(len(bwd), 0, -1) * h,
        [params.u0],
        params.u0 + np.arange(1, len(fwd) + 1) * h,
    ])
    y = states[:, 1].copy()
    return ProfileCurve(
        u=u, f=states[:, 0].copy(), d1=y, d2=params.rhs(y), params=params,
        stop_reasons={"backward": stop_bwd, "forward": stop_fwd},
    )


class SampledProfile(C3Function):
    """C3 view of a ProfileCurve: cubic Hermite between nodes, ODE for f'' and f'''."""

    _vectorized = True

    def __init__(self, curve: ProfileCurve):
        self.curve = curve
        super().__init__(
            self._eval, d1=self._d1_eval, d2=self._d2_eval, d3=self._d3_eval,
            domain=curve.domain,
        )

    def _locate(self, x):
        """Node index i and offset t in [0, 1] of x (a float or an array)."""
        c = self.curve
        x = np.asarray(x, dtype=float)
        inside = (x >= c.u[0] - 1e-12) & (x <= c.u[-1] + 1e-12)
        if not np.all(inside):
            raise DomainError(
                f"u = {x[~inside][0]} outside covered profile domain "
                f"[{c.u[0]}, {c.u[-1]}]"
            )
        h = c.params.step
        i = np.clip(np.floor((x - c.u[0]) / h), 0, len(c.u) - 2).astype(int)
        t = (x - c.u[i]) / h
        return i, t, h

    @staticmethod
    def _hermite(t, v0, v1, s0, s1, h):
        # cubic Hermite basis on [0, 1] with slopes scaled by the step; the
        # square is the C library's pow, as a float's ** 2 takes it
        sq = np.float_power(1 - t, 2)
        h00 = (1 + 2 * t) * sq
        h10 = t * sq
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        return h00 * v0 + h10 * h * s0 + h01 * v1 + h11 * h * s1

    def _eval(self, x):
        i, t, h = self._locate(x)
        c = self.curve
        return self._hermite(t, c.f[i], c.f[i + 1], c.d1[i], c.d1[i + 1], h)

    def _d1_eval(self, x):
        i, t, h = self._locate(x)
        c = self.curve
        return self._hermite(t, c.d1[i], c.d1[i + 1], c.d2[i], c.d2[i + 1], h)

    def _d2_eval(self, x):
        return self.curve.params.rhs(self._d1_eval(x))

    def _d3_eval(self, x):
        y = self._d1_eval(x)
        return self.curve.params.rhs_deriv(y) * self.curve.params.rhs(y)


# ---------------------------------------------------------------------------
# assembly and cylinders
# ---------------------------------------------------------------------------


def assemble_separated_surface(
    m: int,
    n: int,
    c0: float,
    inits,
    step: float = 1e-3,
    max_steps: int = 5000,
    stats=None,
) -> TranslationSurface:
    """Build the separated-profile candidate surface with k = n - 1.

    inits is a sequence of n (y0, u0) pairs.  For n = 2 the profiles carry
    +c0 and -c0, which makes the assembled residual vanish identically; for
    n >= 3 all profiles carry +c0, the candidate that minimality rules out.
    Profiles with equal ODE parameters are integrated once and shared; stats
    is passed on to integrate_profile.
    """
    if n < 2:
        raise DomainError("need n >= 2 profiles")
    if len(inits) != n:
        raise DimensionMismatchError(f"need {n} (y0, u0) pairs, got {len(inits)}")
    k = n - 1
    signs = [1.0, -1.0] if n == 2 else [1.0] * n
    integrated = {}
    profiles = []
    for sign, (y0, u0) in zip(signs, inits):
        params = ProfileODEParams(
            c0=sign * c0, k=k, m=m, y0=y0, u0=u0, step=step, max_steps=max_steps
        )
        if params not in integrated:
            integrated[params] = integrate_profile(params, stats).to_c3()
        profiles.append(integrated[params])
    return TranslationSurface(profiles=tuple(profiles), p=NormParams(m=m, dim=n + 1))


def cylinder_over(
    ts2: TranslationSurface, total_n: int, slopes=None, intercepts=None
) -> TranslationSurface:
    """Extend a minimal two-profile surface to n = total_n by linear profiles.

    Appending linear profiles f_j = a_j u_j + b_j (a_j != 0) changes the
    constant term of the residual through T = sum_j a_j^(2m/(2m-1)); rescaling
    the base profiles by lambda = (1 + T)^((2m-1)/(2m)) restores minimality
    identically, which is the homothetical change the construction needs.
    """
    if ts2.n != 2:
        raise DimensionMismatchError("base surface must have two profiles")
    if total_n < 3:
        raise DomainError("total_n must be at least 3")
    m = ts2.p.m
    extra = total_n - 2
    if slopes is None:
        slopes = [0.5] * extra
    if intercepts is None:
        intercepts = [0.0] * extra
    if len(slopes) != extra or len(intercepts) != extra:
        raise DimensionMismatchError(f"need {extra} slopes and intercepts")
    if any(a == 0.0 for a in slopes):
        raise DomainError("linear profile slopes must be nonzero (chart hypothesis)")
    T = sum(signed_pow(a, 2 * m, 2 * m - 1) for a in slopes)
    lam = (1.0 + T) ** ((2 * m - 1) / (2 * m))
    profiles = [f.scaled(lam) for f in ts2.profiles]
    profiles += [C3Function.linear(a, b) for a, b in zip(slopes, intercepts)]
    return TranslationSurface(
        profiles=tuple(profiles), p=NormParams(m=m, dim=total_n + 1)
    )
