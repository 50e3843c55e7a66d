import numpy as np

import minmin as mm
from minmin.functions import C3Function


def classical_graph_mean_curvature(grad, hess_diag):
    """Euclidean graph mean curvature tr(E^-1 L)/n with upward normal.

    E = I + g g^T, L = Hess / sqrt(1 + |g|^2); the independent m = 1 oracle.
    """
    g = np.asarray(grad, dtype=float)
    n = g.size
    E = np.eye(n) + np.outer(g, g)
    L = np.diag(np.asarray(hess_diag, dtype=float)) / np.sqrt(1.0 + g @ g)
    return float(np.trace(np.linalg.solve(E, L))) / n


def fd_weingarten(chart, t0, p, h=1e-5):
    """Rows of the Weingarten matrix by central differences of the normal."""
    t0 = np.asarray(t0, dtype=float)
    n = p.n
    basis = np.column_stack([chart.tangents(t0), chart.nu(t0) / np.linalg.norm(chart.nu(t0))])
    W = np.empty((n, n))
    defect = 0.0
    for j in range(n):
        tp = t0.copy()
        tp[j] += h
        tm = t0.copy()
        tm[j] -= h
        deta = mm.birkhoff_normal_implicit(chart.nu(tp), p).eta \
            - mm.birkhoff_normal_implicit(chart.nu(tm), p).eta
        coef = np.linalg.solve(basis, deta / (2 * h))
        W[j, :] = coef[:n]
        defect = max(defect, abs(coef[n]))
    return W, defect


def translation_chart(fs, p, u):
    """The graph x_{n+1} = sum f_i(u_i) as the separable surface
    -f_1 - ... - f_n + x_{n+1} = 0, whose gradient points upward, charted
    through the point over u."""
    u = np.asarray(u, dtype=float)
    fs_up = tuple(f.scaled(-1.0) for f in fs) + (C3Function.linear(1.0),)
    return mm.SeparableChart(fs_up, p, np.append(u, sum(f(t) for f, t in zip(fs, u))))
