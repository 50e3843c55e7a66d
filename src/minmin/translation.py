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

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curvature import translation_residual_sum
from .errors import (
    DimensionMismatchError,
    DomainError,
    IntegrationError,
)
from .functions import C3Function, ProfileColumns, on_column, profile_columns
from .meshes import write_points_csv
from .norms import NormParams, signed_pow

SLOPE_CAP = 1e6          # |f'| beyond this counts as blow-up
STEP_RESIDUAL_CAP = 1e-6  # step-doubling disagreement that stops integration
SLOPE_FLOOR = 1e-12       # |f'| below this counts as "y reached 0"
GATE_BLOCK = 512          # full RK4 steps taken between two passes of the stop tests

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

    @functools.cached_property
    def columns(self) -> ProfileColumns:
        """The profiles as one table: SampledColumns where every profile is a
        SampledProfile, else the table that loops over its columns."""
        if all(isinstance(f, SampledProfile) for f in self.profiles):
            return SampledColumns(f.curve for f in self.profiles)
        return profile_columns(self.profiles)

    def domain_axes(self, points_per_axis: int):
        """Per-profile sample axes inside the covered domains, padded by 1e-3
        of each domain's width at both ends; an unbounded domain is [-1, 1].
        Raises DomainError where a domain's width overflows a float."""
        axes = []
        for f in self.profiles:
            lo, hi = getattr(f, "domain", (-np.inf, np.inf))
            if not np.isfinite(lo) or not np.isfinite(hi):
                lo, hi = -1.0, 1.0
            if hi - lo == math.inf:
                raise DomainError(f"profile domain [{lo:.12g}, {hi:.12g}] overflows a "
                                  "float: its width hi - lo is not finite")
            pad = 1e-3 * (hi - lo)
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
    return translation_residual_sum(*ts.columns.derivatives(u), ts.p.m)


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
        if not (all(map(math.isfinite, (self.c0, self.y0, self.u0)))
                and 0 < self.step < math.inf):
            raise DomainError("c0, y0 and u0 must be finite, step positive and finite")
        if self.max_steps < 1:
            raise DomainError("max_steps must be at least 1")
        if self.y0 == 0.0:
            raise DomainError("initial slope y0 must be nonzero")
        if self.k < 1 or self.m < 1:
            raise DomainError("k and m must be positive integers")

    def rhs_constants(self):
        """(a, e, k) with rhs(y) = a * (|y|**e + k * y * y), where a = c0/2m and
        e = (2m-2)/(2m-1): rhs and the RK4 loop of integrate_profile read them here."""
        m = self.m
        return self.c0 / (2 * m), (2 * m - 2) / (2 * m - 1), self.k

    def rhs(self, y):
        """(c0/2m)(|y|^((2m-2)/(2m-1)) + k y^2) of a float or, elementwise, an array.

        The power's numerator is even, so |y| needs no sign; one np.float_power
        (the C library's pow) serves a float and every element of an array, so
        both give the same bits.  At m = 1 the exponent is 0.0, and the power,
        1.0 for every y, is not taken.
        """
        a, e, k = self.rhs_constants()
        if e == 0.0:  # |y| ** 0.0 is 1.0 for every y, NaN and infinities too
            return a * (1.0 + k * y * y)
        return a * (np.float_power(np.abs(y), e) + k * y * y)


@dataclass
class ProfileCurve:
    """Sampled solution of the profile ODE on the covered interval.

    Samples are (u, f, f', f'') with f'' evaluated through the generating ODE;
    ode_residual_max is a 5-point finite-difference audit of f' against the
    right-hand side, relative to 1 + |rhs|, and NaN on a curve of fewer than 5
    samples, where the stencil fits nowhere and no audit ran.  origin is the
    index of the sample at u0, and stop_reasons maps "backward" and "forward"
    to the STOP_REASONS entry that ended integration that way.
    """

    u: np.ndarray
    f: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    params: ProfileODEParams
    origin: int
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
            return math.nan
        d = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * h)
        rhs = self.d2[2:-2]
        return float(np.max(np.abs(d - rhs) / (1.0 + np.abs(rhs))))

    def write_csv(self, path):
        write_points_csv(path, ["u", "f", "f_prime", "f_double_prime"],
                         [self.u, self.f, self.d1, self.d2])


def _integrate_direction(params: ProfileODEParams, direction: float):
    """Accepted f and y, as two arrays, one way from u0, the reason it stopped,
    and the number of rhs evaluations a step-by-step loop makes.

    Each checked step is one classical RK4 step of (f, y)' = (y, rhs(y)) and,
    for the step-doubling gate, two RK4 half steps of y alone (the ODE is
    autonomous and the gate reads only y).  The full steps run a block of up
    to GATE_BLOCK at a time, on Python floats, with no test inside; then one
    array pass (_first_stop) takes every step's half steps and runs the stop
    tests in STOP_REASONS order, and the steps the block took past the first
    failing one are discarded, so at most one block is spent past a stop.
    rhs is written out on its constants, with the operand order of
    ProfileODEParams.rhs, so every stage keeps the bits of a call to it: at
    m = 1 without the power |y| ** 0.0, which is 1.0 for every y, and else
    with |y| taken as y or -y, which is abs(y) for every y but NaN, whose
    step the stop tests discard.  The stage arithmetic is on floats only: an
    int factor (k, the RK4 weight 2) is converted to the same double on every
    multiply, so taking it as a float once changes no bit; a numpy c0 is
    taken as a float too, so the steps past a stop overflow without a
    warning.  The count is of checked steps: 11 each (4 for the full step, 3
    for the first half step, which shares its first stage, and 4 for the
    second), 4 for a step that is not finite.
    """
    a, e, k = params.rhs_constants()
    a, k = float(a), float(k)
    h = direction * float(params.step)
    # the stage factors 0.5*h and h/6 of the full step
    h2, h6 = 0.5 * h, h / 6.0
    f, y = 0.0, float(params.y0)
    fs, ys = [], []
    left = params.max_steps
    while left:
        # the block's f and y after each step; y also holds its start slope
        bf, by = [], [y]
        put_f, put_y = bf.append, by.append
        if e == 0.0:
            for _ in range(min(left, GATE_BLOCK)):
                k1 = a * (1.0 + k * y * y)
                y2 = y + h2 * k1
                k2 = a * (1.0 + k * y2 * y2)
                y3 = y + h2 * k2
                k3 = a * (1.0 + k * y3 * y3)
                y4 = y + h * k3
                k4 = a * (1.0 + k * y4 * y4)
                f = f + h6 * (y + 2.0 * y2 + 2.0 * y3 + y4)
                y = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                put_f(f)
                put_y(y)
        else:
            for _ in range(min(left, GATE_BLOCK)):
                k1 = a * ((y if y >= 0.0 else -y) ** e + k * y * y)
                y2 = y + h2 * k1
                k2 = a * ((y2 if y2 >= 0.0 else -y2) ** e + k * y2 * y2)
                y3 = y + h2 * k2
                k3 = a * ((y3 if y3 >= 0.0 else -y3) ** e + k * y3 * y3)
                y4 = y + h * k3
                k4 = a * ((y4 if y4 >= 0.0 else -y4) ** e + k * y4 * y4)
                f = f + h6 * (y + 2.0 * y2 + 2.0 * y3 + y4)
                y = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                put_f(f)
                put_y(y)
        stop, reason, block_f, block_y = _first_stop(params, h, bf, by)
        fs.append(block_f[:stop])
        ys.append(block_y[1:stop + 1])
        if reason:
            break
        left -= len(bf)
    fs, ys = np.concatenate(fs), np.concatenate(ys)
    if not reason:
        return fs, ys, "max_steps", 11 * len(ys)
    return fs, ys, reason, 11 * len(ys) + (4 if reason == "non_finite" else 11)


def _first_stop(params: ProfileODEParams, h: float, bf, by):
    """(i, reason, f, y) of a block of full steps of size h: i is the first
    step that fails a stop test, the tests taken in STOP_REASONS order, or
    len(bf) with reason None, and f and y are the arrays of bf and by.

    bf and by[1:] are the f and y after each step, by[:-1] the slope it
    started from.  The step-doubling gate takes two RK4 half steps of y from
    every start at once, with the stage arithmetic of the full step and
    ProfileODEParams.rhs for each stage; np.float_power is the C library's pow
    on every element, as a float's ** is, so each lane has the bits of a
    step-by-step loop.  Steps past a stop may overflow: no warning is raised.
    """
    rhs, half = params.rhs, h / 2
    q2, q6 = 0.5 * half, half / 6.0
    values, slopes = np.array(bf), np.array(by)
    y, y1 = slopes[:-1], slopes[1:]
    with np.errstate(all="ignore"):
        for _ in range(2):
            k1 = rhs(y)
            k2 = rhs(y + q2 * k1)
            k3 = rhs(y + q2 * k2)
            k4 = rhs(y + half * k3)
            y = y + q6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        size = np.abs(y1)
        # y1 > 0 is a change of sign where y0 < 0, and its negation where y0 > 0
        crossed = y1 > 0
        if params.y0 > 0:
            crossed = ~crossed
        tests = (~(np.isfinite(values) & np.isfinite(y1)),
                 np.abs(y1 - y) > STEP_RESIDUAL_CAP * (1.0 + size),
                 size > SLOPE_CAP,
                 size < SLOPE_FLOOR,
                 crossed)
    failed = (tests[0] | tests[1] | tests[2] | tests[3] | tests[4]).nonzero()[0]
    if not failed.size:
        return len(bf), None, values, slopes
    i = int(failed[0])
    reason = next(reason for reason, test in zip(STOP_REASONS, tests) if test[i])
    return i, reason, values, slopes


def integrate_profile(params: ProfileODEParams, stats=None) -> ProfileCurve:
    """Integrate the profile ODE both ways from u0 with fixed-step classical RK4.

    The state is (f, y = f'); f(u0) = 0.  Each direction advances it on Python
    floats a block of GATE_BLOCK full steps at a time; after each block the
    step-doubling half steps of y and the stop tests run as arrays over the
    block, in STOP_REASONS order, and the steps past the first failing one are
    discarded; the arrays of that pass hold the steps kept, and the curve's f
    and f' join them.  Each direction halts when a step is not finite, the
    step-doubling check disagrees beyond the cap, |y| exceeds the blow-up cap,
    y reaches zero or changes sign, or max_steps is exhausted; the curve
    records which (stop_reasons).  stats (a reporting.RunStats), if given,
    counts the accepted steps and the rhs evaluations of the checked steps
    (11 per checked step, as a step-by-step loop makes them; MINMIN_LOG=debug
    prints both).
    """
    f_bwd, y_bwd, stop_bwd, calls_bwd = _integrate_direction(params, -1.0)
    f_fwd, y_fwd, stop_fwd, calls_fwd = _integrate_direction(params, +1.0)
    if stats is not None:
        stats.count("accepted RK4 steps", len(y_bwd) + len(y_fwd))
        stats.count("RK4 rhs evaluations", calls_bwd + calls_fwd)
    if not y_fwd.size and not y_bwd.size:
        raise IntegrationError(
            "no admissible step: immediate blow-up or step too large "
            f"(backward: {stop_bwd}, forward: {stop_fwd})"
        )
    return _profile_curve(params, len(y_bwd),
                          np.concatenate([f_bwd[::-1], [0.0], f_fwd]),
                          np.concatenate([y_bwd[::-1], [float(params.y0)], y_fwd]),
                          {"backward": stop_bwd, "forward": stop_fwd})


def _profile_curve(params: ProfileODEParams, origin: int, f, d1,
                   stop_reasons) -> ProfileCurve:
    """The ProfileCurve of the samples f, f' at u0 + i h for
    i = -origin, ..., len(f) - 1 - origin, with f'' from the ODE.  Raises
    IntegrationError where an end of that u grid, and so the grid, overflows
    a float."""
    h, u0 = params.step, params.u0
    # the grid's ends, with the operations and so the bits numpy takes for them
    lo, hi = u0 - origin * h, u0 + (len(f) - 1 - origin) * h
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise IntegrationError(f"the sample grid overflows a float: u runs from "
                               f"{lo:.12g} to {hi:.12g}")
    u = np.concatenate([
        u0 - np.arange(origin, 0, -1) * h,
        [u0],
        u0 + np.arange(1, len(f) - origin) * h,
    ])
    return ProfileCurve(u=u, f=f, d1=d1, d2=params.rhs(d1), params=params,
                        origin=origin, stop_reasons=stop_reasons)


def _mirrored_profile(curve: ProfileCurve, params: ProfileODEParams) -> ProfileCurve:
    """The curve integrate_profile(params) gives when params is curve.params
    with c0 negated, read off curve with no step taken.

    Negating a = c0/2m and the step h together negates every RK4 stage k and
    leaves every product h k as it is, so every slope keeps its bits:
    integrating -c0 forward repeats +c0's backward slopes, and f, a sum of
    h y terms, changes sign.  So y_-(i) = y_+(-i), f_- is -f_+ reversed,
    f''_- = -f''_+, and the backward and forward stop reasons swap.
    """
    way = curve.stop_reasons
    # 0.0 - f, not -f, keeps f(u0) = +0.0
    return _profile_curve(params, len(curve.u) - 1 - curve.origin, 0.0 - curve.f[::-1],
                          curve.d1[::-1].copy(),
                          {"backward": way["forward"], "forward": way["backward"]})


class SampledProfile(C3Function):
    """C3 view of a ProfileCurve: f, f' and f'' are those of the one-column
    SampledColumns of the curve, built when first evaluated."""

    def __init__(self, curve: ProfileCurve):
        self.curve = curve
        super().__init__(self._eval, self._d1_eval, self._d2_eval, curve.domain)

    @functools.cached_property
    def _table(self) -> "SampledColumns":
        return SampledColumns((self.curve,))

    def _eval(self, x):
        return on_column(self._table, x)

    def _d1_eval(self, x):
        return on_column(self._table.d1, x)

    def _d2_eval(self, x):
        return on_column(self._table.d2, x)


def _hermite(t, v, s, i, h):
    """Cubic Hermite of values v and slopes s (scaled by the step h) on interval i at
    t in [0, 1]; the square is the C library's pow, as a float's ** 2 takes it."""
    sq = np.float_power(1 - t, 2)
    h00 = (1 + 2 * t) * sq
    h10 = t * sq
    h01 = t * t * (3 - 2 * t)
    h11 = t * t * (t - 1)
    return h00 * v[i] + h10 * h * s[i] + h01 * v[i + 1] + h11 * h * s[i + 1]


class SampledColumns(ProfileColumns):
    """The table of ProfileCurves, column i SampledProfile(curves[i]): every
    curve's u, f, f' and f'' concatenated, with each column's offset, u[0],
    last interval, step and rhs constants.  f and f' are cubic Hermites over
    (f, f') and (f', f'') (_hermite), f'' is the rhs of f' (ProfileODEParams.rhs),
    and each element has the bits of its column alone; an argument outside its
    column's domain raises the DomainError of the first such column alone.
    """

    def __init__(self, curves):
        self.curves = curves = tuple(curves)
        sizes = np.array([len(c.u) for c in curves])
        self._start = np.cumsum(sizes) - sizes
        self._last = sizes - 2  # the last node an interval starts at
        self._u, self._f, self._d1, self._d2 = map(
            np.concatenate, zip(*((c.u, c.f, c.d1, c.d2) for c in curves)))
        self._lo = self._u[self._start]
        self._hi = self._u[self._start + sizes - 1]
        self._h = np.array([c.params.step for c in curves])
        a, e, k = zip(*(c.params.rhs_constants() for c in curves))
        self._a, self._e, self._k = np.array(a), np.array(e), np.array(k, dtype=float)

    def __len__(self) -> int:
        return len(self.curves)

    @functools.cached_property
    def profiles(self) -> tuple:
        return tuple(SampledProfile(c) for c in self.curves)

    def _locate(self, x):
        """Node index i (into the concatenated arrays) and offset t of x (..., dim)."""
        x = np.asarray(x, dtype=float)
        inside = (x >= self._lo - 1e-12) & (x <= self._hi + 1e-12)
        if not inside.all():
            j = int(np.argmin(inside.reshape(-1, len(self)).all(axis=0)))
            raise DomainError(
                f"u = {x[..., j][~inside[..., j]][0]} outside covered profile domain "
                f"[{self._lo[j]}, {self._hi[j]}]"
            )
        h = self._h
        i = np.clip(np.floor((x - self._lo) / h), 0, self._last).astype(int) + self._start
        return i, (x - self._u[i]) / h

    def __call__(self, x):
        i, t = self._locate(x)
        return _hermite(t, self._f, self._d1, i, self._h)

    def d1(self, x):
        i, t = self._locate(x)
        return _hermite(t, self._d1, self._d2, i, self._h)

    def d2(self, x):
        return self.derivatives(x)[1]

    def derivatives(self, x):
        y = self.d1(x)
        if not self._e.any():  # every column at m = 1, as in ProfileODEParams.rhs
            return y, self._a * (1.0 + self._k * y * y)
        return y, self._a * (np.float_power(np.abs(y), self._e) + self._k * y * y)


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
    Profiles with equal ODE parameters are integrated once and shared, and a
    profile whose parameters differ from an integrated one's only in the sign
    of c0 is that one's mirror image (_mirrored_profile), integrated not at
    all; stats is passed on to integrate_profile.
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
            mirror = replace(params, c0=-params.c0)
            integrated[params] = SampledProfile(
                _mirrored_profile(integrated[mirror].curve, params)
                if mirror in integrated else integrate_profile(params, stats))
        profiles.append(integrated[params])
    return TranslationSurface(profiles=tuple(profiles), p=NormParams(m=m, dim=n + 1))


def cylinder_over(
    ts2: TranslationSurface, total_n: int, slopes=None
) -> TranslationSurface:
    """Extend a minimal two-profile surface to n = total_n by linear profiles.

    Appending linear profiles f_j = a_j u_j (slopes a_j != 0, 0.5 by default)
    changes the constant term of the residual through T = sum_j a_j^(2m/(2m-1));
    rescaling the base profiles by lambda = (1 + T)^((2m-1)/(2m)) restores
    minimality identically, which is the homothetical change the construction needs.
    """
    if ts2.n != 2:
        raise DimensionMismatchError("base surface must have two profiles")
    if total_n < 3:
        raise DomainError("total_n must be at least 3")
    m = ts2.p.m
    extra = total_n - 2
    if slopes is None:
        slopes = [0.5] * extra
    if len(slopes) != extra:
        raise DimensionMismatchError(f"need {extra} slopes")
    if any(a == 0.0 for a in slopes):
        raise DomainError("linear profile slopes must be nonzero (chart hypothesis)")
    T = sum(signed_pow(a, 2 * m, 2 * m - 1) for a in slopes)
    lam = (1.0 + T) ** ((2 * m - 1) / (2 * m))
    profiles = [f.scaled(lam) for f in ts2.profiles]
    profiles += [C3Function.linear(a) for a in slopes]
    return TranslationSurface(
        profiles=tuple(profiles), p=NormParams(m=m, dim=total_n + 1)
    )
