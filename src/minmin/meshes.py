"""CSV point clouds and OBJ triangle meshes for surface grids and patches."""

import numpy as np

from .errors import DimensionMismatchError, DomainError


def write_obj(path, vertices: np.ndarray):
    """ASCII OBJ from a (G1, G2, 3) vertex grid, quads split into triangles."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 3 or vertices.shape[-1] != 3:
        raise DimensionMismatchError("OBJ export needs a (G1, G2, 3) vertex grid")
    g1, g2, _ = vertices.shape
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(g1):
            for j in range(g2):
                x, y, z = vertices[i, j]
                fh.write(f"v {x:.17g} {y:.17g} {z:.17g}\n")
        for i in range(g1 - 1):
            for j in range(g2 - 1):
                a = i * g2 + j + 1
                b = a + 1
                c = a + g2
                d = c + 1
                fh.write(f"f {a} {b} {d}\n")
                fh.write(f"f {a} {d} {c}\n")


def write_points_csv(path, header, rows):
    """CSV of a header line and the rows (N, k), every value in .17g format;
    each column is formatted in one pass."""
    cols = [map("{:.17g}".format, c) for c in np.asarray(rows, dtype=float).T.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cols))


def translation_vertices(ts, axes) -> np.ndarray:
    """(G1, G2, 3) vertex grid (u1, u2, f) of a two-profile translation graph."""
    if ts.n != 2:
        raise DomainError("OBJ export of a translation graph needs n = 2")
    grid = np.stack(np.meshgrid(axes[0], axes[1], indexing="ij"), axis=-1)
    return np.concatenate([grid, ts.value(grid)[..., None]], axis=-1)


def patch_vertices(patch, slice_axes=None, project=(0, 1, 2)) -> np.ndarray:
    """(G1, G2, 3) vertex grid from a separable patch.

    For patches with more than two parameters, slice_axes picks the two varying
    parameter axes, and every other axis is fixed at its middle grid index.
    project selects the three distinct ambient coordinates, each in 0..dim-1,
    written to the OBJ.
    """
    pts = patch.points
    n = pts.ndim - 1
    if n < 2:
        raise DomainError("patch must have at least two parameters")
    if slice_axes is None:
        slice_axes = (0, 1)
    a, b = slice_axes
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise DomainError(f"invalid slice axes {slice_axes} for {n} parameters")
    index = tuple(slice(None) if i in (a, b) else pts.shape[i] // 2 for i in range(n))
    sliced = pts[index]
    if a > b:
        sliced = np.swapaxes(sliced, 0, 1)
    project = tuple(project)
    dim = pts.shape[-1]
    if len(project) != 3 or len(set(project) & set(range(dim))) != 3:
        raise DomainError(f"projection {project} invalid for dim {dim}")
    return sliced[..., project]
