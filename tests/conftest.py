import numpy as np

import minmin as mm
from minmin.functions import C3Function

_EPS = np.finfo(float).eps

# one case per stop reason: (ODE parameters, stop reasons (backward, forward))
STOP_CASES = {
    # y' = 1 + y^2 from tan(0.1005): y crosses 0 at u = 0, half a step past
    # the last node going back; the blow-up at pi/2 going forward trips the
    # step-doubling gate first
    "sign_change": (dict(c0=2.0, k=1, m=1, y0=float(np.tan(0.1005)), u0=0.1005),
                    ("sign_change", "step_doubling")),
    # a slope that moves by 5e-4 per step crosses the 1e-6 cap going forward
    "blowup": (dict(c0=1e-12, k=1, m=1, y0=999999.5, max_steps=3000),
               ("max_steps", "blowup")),
    # the first step back takes the slope from 2e-12 to 5e-13, below the floor
    "slope_floor": (dict(c0=3e-9, k=1, m=1, y0=2e-12, max_steps=50),
                    ("slope_floor", "max_steps")),
    # f = y0 u overflows on the 18th step of 1e307 either way
    "non_finite": (dict(c0=0.0, k=1, m=1, y0=1.0, step=1e307, max_steps=100),
                   ("non_finite", "non_finite")),
}


def fd_derivative_error(f, points) -> float:
    """Largest deviation of f.d1 and f.d2 from 5-point central differences of
    f (steps eps^(1/5) and eps^(1/6), times 1 + |x|) over the points, each
    relative to 1 + |difference|."""
    worst = 0.0
    for x in points:
        h = _EPS ** 0.2 * (1 + abs(x))
        fd1 = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
        h = _EPS ** (1 / 6.0) * (1 + abs(x))
        fd2 = (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h)
               - f(x - 2 * h)) / (12 * h * h)
        for val, fd in ((f.d1(x), fd1), (f.d2(x), fd2)):
            worst = max(worst, abs(val - fd) / (1.0 + abs(fd)))
    return worst


def classical_graph_mean_curvature(grad, hess_diag):
    """Euclidean graph mean curvature tr(E^-1 L)/n with upward normal.

    E = I + g g^T, L = Hess / sqrt(1 + |g|^2); the independent m = 1 oracle.
    """
    g = np.asarray(grad, dtype=float)
    n = g.size
    E = np.eye(n) + np.outer(g, g)
    L = np.diag(np.asarray(hess_diag, dtype=float)) / np.sqrt(1.0 + g @ g)
    return float(np.trace(np.linalg.solve(E, L))) / n


def fd_weingarten(chart, p, h=1e-5):
    """Rows of the Weingarten matrix at the base point of a chart of one point,
    a stack of one, by central differences of the normal along the tangents
    e_j - (nu_j/nu_{n+1}) e_{n+1} of the last-coordinate chart, the basis the
    closed-form matrix is in."""
    (x0,) = chart.x0
    n = p.n

    def nu(x):
        return np.array([f.d1(t) for f, t in zip(chart.fs, x)])

    nu0 = nu(x0)
    T = np.vstack([np.eye(n), -nu0[:n] / nu0[n]])
    basis = np.column_stack([T, nu0 / np.linalg.norm(nu0)])
    W = np.empty((n, n))
    defect = 0.0
    for j in range(n):
        deta = mm.birkhoff_normal_implicit(nu(x0 + h * T[:, j]), p).eta \
            - mm.birkhoff_normal_implicit(nu(x0 - h * T[:, j]), p).eta
        coef = np.linalg.solve(basis, deta / (2 * h))
        W[j, :] = coef[:n]
        defect = max(defect, abs(coef[n]))
    return W, defect


def translation_chart(fs, p, u):
    """The graph x_{n+1} = sum f_i(u_i) as the separable surface
    -f_1 - ... - f_n + x_{n+1} = 0, whose gradient points upward, charted
    through the point over u, a stack of one."""
    u = np.asarray(u, dtype=float)
    fs_up = tuple(f.scaled(-1.0) for f in fs) + (C3Function.linear(1.0),)
    x = np.append(u, sum(f(t) for f, t in zip(fs, u)))
    return mm.SeparableChart(fs_up, p, x[None])
