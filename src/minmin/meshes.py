"""CSV point clouds and OBJ triangle meshes for surface grids and patches, and
the block formatter (format_rows) that every text writer uses."""

import numpy as np

from .errors import DimensionMismatchError, DomainError


# Rows per block of format_rows: a writer holds one block's text at a time,
# so its memory does not grow with the row count.
BLOCK_ROWS = 65536


def format_rows(row: str, columns):
    """The text of the rows of columns (equal-length 1-D arrays), each row the
    %-template row over one value of every column, as one string per block of
    up to BLOCK_ROWS rows.  A block's values are taken to Python objects
    (tolist), so they format as a float, an int or a str does."""
    width = len(columns)
    total = len(columns[0]) if width else 0
    for start in range(0, total, BLOCK_ROWS):
        count = min(BLOCK_ROWS, total - start)
        flat = [None] * (count * width)
        for j, c in enumerate(columns):
            flat[j::width] = c[start:start + count].tolist()
        yield (row * count) % tuple(flat)


def write_obj(path, vertices: np.ndarray):
    """ASCII OBJ from a (G1, G2, 3) vertex grid, quads split into triangles."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 3 or vertices.shape[-1] != 3:
        raise DimensionMismatchError("OBJ export needs a (G1, G2, 3) vertex grid")
    g1, g2, _ = vertices.shape
    # 1-based vertex indices of each quad's corners, (i, j) a, (i, j+1) b,
    # (i+1, j) c and (i+1, j+1) d: one row per quad, two triangles per row;
    # a is made whole, and b, c and d one block of quads at a time
    a_all = (np.arange(g1 - 1)[:, None] * g2 + np.arange(1, g2)).ravel()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(format_rows("v %.17g %.17g %.17g\n",
                                  list(vertices.reshape(-1, 3).T)))
        for start in range(0, a_all.size, BLOCK_ROWS):
            a = a_all[start:start + BLOCK_ROWS]
            b, c, d = a + 1, a + g2, a + g2 + 1
            fh.writelines(format_rows("f %d %d %d\nf %d %d %d\n", [a, b, d, a, d, c]))


def write_points_csv(path, header, rows):
    """CSV of a header line and the rows (N, k), every value in .17g format,
    written one block of format_rows at a time."""
    columns = list(np.asarray(rows, dtype=float).T)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(format_rows(",".join(["%.17g"] * len(columns)) + "\n", columns))


def translation_vertices(ts, axes) -> np.ndarray:
    """(G1, G2, 3) vertex grid (u1, u2, f) of a two-profile translation graph.

    The graph is separable, so each profile evaluates once on its own axis,
    and a height adds up as Python's sum(f(u) for f in profiles) does."""
    if ts.n != 2:
        raise DomainError("OBJ export of a translation graph needs n = 2")
    u1, u2 = (np.asarray(a, dtype=float) for a in axes)
    f1, f2 = (f(u) for f, u in zip(ts.profiles, (u1, u2)))
    return np.stack([*np.meshgrid(u1, u2, indexing="ij", copy=False),
                     (0.0 + f1[:, None]) + f2], axis=-1)


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
