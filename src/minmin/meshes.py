"""CSV point clouds and OBJ triangle meshes for surface grids and patches, and
the block formatter (format_rows) that every text writer uses.

Every float of a CSV and every OBJ vertex coordinate is %.17g text.  For a
row template of %.17g conversions only, format_rows makes that text with
numpy arrays, a block at a time (_G17Rows); the bytes are those Python's %
gives one value at a time.
"""

import functools

import numpy as np

from .errors import DimensionMismatchError, DomainError


# Rows per block of format_rows: a writer holds one block's text at a time,
# so its memory does not grow with the row count.
BLOCK_ROWS = 65536
# Values (rows x columns) a block needs for the array path: its fixed cost,
# about 80 us, equals what it saves on some 200 values; a smaller block
# formats faster with % one value at a time.
ARRAY_MIN_VALUES = 200
# Values per pass of the array path within a block (whole rows, at least
# one), which bounds its scratch arrays at about 300 bytes a value.
ARRAY_PASS_VALUES = 6144


def format_rows(row: str, columns):
    """The text of the rows of columns (equal-length 1-D arrays), each row the
    %-template row over one value of every column, as one string per block of
    up to BLOCK_ROWS rows.  A block's values are taken to Python objects
    (tolist), so they format as a float, an int or a str does.  A block of at
    least ARRAY_MIN_VALUES values whose template is %.17g conversions only,
    over float64 columns, is formatted as numpy arrays instead (_G17Rows), in
    passes of ARRAY_PASS_VALUES values, to the same bytes."""
    width = len(columns)
    total = len(columns[0]) if width else 0
    g17 = _G17Rows.of(row, columns)
    for start in range(0, total, BLOCK_ROWS):
        count = min(BLOCK_ROWS, total - start)
        if g17 is not None and count * width >= ARRAY_MIN_VALUES:
            step = max(1, ARRAY_PASS_VALUES // width)
            yield "".join(g17.text(np.stack([c[s:min(s + step, start + count)]
                                             for c in columns], axis=1))
                          for s in range(start, start + count, step))
            continue
        flat = [None] * (count * width)
        for j, c in enumerate(columns):
            flat[j::width] = c[start:start + count].tolist()
        yield (row * count) % tuple(flat)


# The array path writes each value into a canvas of 12 four-byte words:
#   word 0       sign, "0", ".", "0"    (the "-0.0" of -0.0x, or of a zero)
#   words 1-5    the 17 digits, then 3 free bytes (".", or the "00" of 0.000x)
#   words 6-10   the 17 digits again, then 3 free bytes (the "e-0" of e-05)
#   word 11      the exponent's last digit, then the template's text after
#                the value (up to 3 bytes)
# A layout row, picked by (exponent, digits kept, sign), holds each byte to
# keep: a constant, or 0xFF where a digit goes; ANDed with the digits, it
# leaves 0 in every other byte, and bytes.translate deletes those.
_CANVAS_WORDS = 12
_EXPONENTS = range(-6, 16)           # decimal exponents of 1e-6 < |x| < 1e16
_ZERO_LAYOUT = len(_EXPONENTS) * 17 * 2


def _layout(e, k):
    """The canvas bytes of a positive value with decimal exponent e and k
    significant digits (e None: a zero), as %.17g lays it out: fixed point
    from 1e-4 on, d.ddde-0X below, no trailing zeros and no bare point."""
    keep = bytearray(4 * _CANVAS_WORDS)
    keep[45:48] = b"\xff" * 3
    if e is None:
        keep[1] = ord("0")
    elif e < -4:
        keep[4] = 0xFF
        if k > 1:
            keep[21] = ord(".")
            keep[25:24 + k] = b"\xff" * (k - 1)
        keep[41:45] = b"e-0%d" % -e
    elif e < 0:
        keep[1:3] = b"0."
        for pos in (3, 21, 22)[:-e - 1]:
            keep[pos] = ord("0")
        keep[24:24 + k] = b"\xff" * k
    else:
        keep[4:5 + e] = b"\xff" * (e + 1)
        if k > e + 1:
            keep[21] = ord(".")
            keep[25 + e:24 + k] = b"\xff" * (k - e - 1)
    return keep


@functools.cache
def _g17_tables():
    """The array path's tables, built on first use: the layouts (a canvas
    of words for each key (exponent, digits kept, sign), then a zero's two),
    their kept-byte counts, the ASCII words of 0000..9999 and of a last digit,
    where in the 17 digits a chunk's last significant digit sits (0 for none;
    a row for each of the four 4-digit chunks and one for the last digit),
    and 10^q for each exponent's q = 16 - e, with its 26-bit split hi + lo."""
    rows = [_layout(e, k) for e in _EXPONENTS for k in range(1, 18)]
    rows += [_layout(None, 0)]
    raw = np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), -1)
    raw = np.repeat(raw, 2, axis=0)
    raw[1::2, 0] = ord("-")
    # small integer types keep the temporaries, and so the peak RSS, small
    chunk = np.arange(10000, dtype=np.uint16)
    ascii4 = (chunk[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
              + 48).astype(np.uint8)
    last = np.full((10, 4), 0xFF, np.uint8)
    last[:, 0] = np.arange(48, 58)
    words = np.concatenate([ascii4.view(np.uint32).ravel(), last.view(np.uint32).ravel()])
    places = (4 - (chunk % 10 == 0) - (chunk % 100 == 0)
              - (chunk % 1000 == 0)).astype(np.uint8)
    ends = np.empty((5, 10000), np.uint8)
    ends[:4] = (places + np.arange(0, 16, 4, dtype=np.uint8)[:, None]) * (chunk != 0)
    ends[4] = 17 * (chunk % 10 != 0)      # the last digit's row: only 0-9 index it
    pow10 = [float(10 ** (16 - e)) for e in _EXPONENTS]
    split = [134217729.0 * p - (134217729.0 * p - p) for p in pow10]
    return (np.ascontiguousarray(raw.view(np.uint32).T),
            np.count_nonzero(raw[:, :45], axis=1), words, ends, np.array(pow10),
            np.array(split), np.array([p - s for p, s in zip(pow10, split)]))


def _times_pow10(a, i, pow10, split, low):
    """a * 10^q(i) exactly, as hi + lo: Dekker's product of a and 10^q, with
    a split in halves of 26 bits (Veltkamp) and 10^q's halves from the table."""
    p, ph, pl = pow10.take(i), split.take(i), low.take(i)
    hi = a * p
    t = a * 134217729.0
    ah = t - (t - a)
    al = a - ah
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


class _G17Rows:
    """%.17g rows of a template's block made with numpy arrays.

    A value 1e-6 < |x| < 1e16 has a decimal exponent e in [-6, 15], so its 17
    digits are the integer N nearest x * 10^(16 - e), ties to even, as
    Python's % rounds: the product is exact as a Dekker pair hi + lo (10^q is
    exact for q <= 22), and hi is an even integer >= 1e16, so N = hi +
    rint(lo).  The log10 estimate of e is fixed where the exact product falls
    outside [1e16, 1e17).  N never rounds up to 10^17: the largest double
    below each 10^(e+1) is more than 5e-18 of it below.  A zero
    has its own layout; a row that holds any other value (non-finite, or |x|
    outside those bounds) is formatted with % and spliced in.

    The template's rows are formatted rotated, with its leading text moved to
    the end of the row's last value, so every piece of text follows a value.
    """

    def __init__(self, row, lead, after):
        self.lead, self.cut = lead, -len(lead) or None
        self.rotated = row[len(lead):] + lead
        self.literals = np.frombuffer(
            b"".join(b"\xff" + s.encode("ascii").ljust(3, b"\0") for s in after),
            np.uint32)
        self.literal_bytes = sum(map(len, after))

    @classmethod
    def of(cls, row, columns):
        """The formatter of row, or None unless row is %.17g conversions, one a
        column of float64, and ASCII text of at most 3 bytes after each value
        (after the last, together with the text before the first)."""
        pieces = row.split("%.17g")
        after = pieces[1:-1] + [pieces[-1] + pieces[0]]
        if (len(pieces) != len(columns) + 1 or not columns
                or any(c.dtype != np.float64 for c in columns)
                or any(len(s) > 3 or not s.isascii() or "%" in s or "\0" in s
                       for s in after)):
            return None
        return cls(row, pieces[0], after)

    def text(self, block):
        """The text of the rows of block, an (R, C) float64 array."""
        layouts, lengths, words, ends, pow10, split, low = _g17_tables()
        rows, width = block.shape
        x = block.ravel()
        a = np.abs(x)
        regular = (a > 1e-6) & (a < 1e16)
        zero = a == 0.0
        a = np.where(regular, a, 1.0)
        i = np.clip(np.floor(np.log10(a)), -6.0, 15.0).astype(np.intp) + 6
        hi, lo = _times_pow10(a, i, pow10, split, low)
        # exact tests of hi + lo against the bounds: near them hi - 1e16 and
        # hi - 1e17 are exact, and |lo| is at most half an ulp of hi
        under = (hi - 1e16) + lo < 0.0
        miss = under | ((hi - 1e17) + lo >= 0.0)
        if miss.any():
            m = np.flatnonzero(miss)
            i[m] += np.where(under[m], -1, 1)
            hi[m], lo[m] = _times_pow10(a[m], i[m], pow10, split, low)
        n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        # the digits as four 4-digit chunks and a last digit, and the place
        # of the last significant one
        head = n // 10
        upper = head // 10 ** 8
        lower = head - upper * 10 ** 8
        chunks = np.empty((5, x.size), np.intp)
        c0 = chunks[0] = upper // 10 ** 4
        chunks[1] = upper - c0 * 10 ** 4
        c2 = chunks[2] = lower // 10 ** 4
        chunks[3] = lower - c2 * 10 ** 4
        chunks[4] = n - head * 10
        kept = ends[0].take(c0)
        for place, c in zip(ends[1:], chunks[1:]):
            np.maximum(kept, place.take(c), out=kept)
        chunks[4] += 10000
        sign = np.signbit(x)
        key = np.where(zero, _ZERO_LAYOUT + sign, (i * 17 + kept - 1) * 2 + sign)
        canvas = layouts.take(key, axis=1)
        digits = words[chunks]
        canvas[1:6] &= digits
        canvas[6:11] &= digits
        canvas[11].reshape(rows, width)[...] &= self.literals
        bad = ~(regular | zero)
        if not bad.any():
            text = canvas.T.tobytes().translate(None, b"\0").decode("ascii")
            return self.lead + text[:self.cut]
        bad = bad.reshape(rows, width).any(axis=1)
        canvas.reshape(_CANVAS_WORDS, rows, width)[:, bad] = 0
        text = canvas.T.tobytes().translate(None, b"\0").decode("ascii")
        length = lengths.take(key).reshape(rows, width).sum(axis=1) + self.literal_bytes
        length[bad] = 0
        end = np.cumsum(length).tolist()
        pieces, at = [self.lead], 0
        for r in np.flatnonzero(bad).tolist():
            pieces += [text[at:end[r]], self.rotated % tuple(block[r].tolist())]
            at = end[r]
        pieces.append(text[at:])
        return "".join(pieces)[:self.cut]


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


def write_points_csv(path, header, columns):
    """CSV of a header line and one row per index of columns (k equal-length
    1-D arrays), every value in %.17g format, written one block of format_rows
    at a time."""
    columns = [np.asarray(c, dtype=float) for c in columns]
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


def patch_view(grid, dim: int, slice_axes=None, project=None):
    """(index, swap, project) of the OBJ view of a patch grid of shape grid
    in dim coordinates, or DomainError: index keeps every node of the two
    distinct varying axes a, b = slice_axes (None: 0, 1) and the middle node
    of any other axis, swap is a > b, and project holds three distinct
    coordinates (None: 0, 1, 2)."""
    n = len(grid)
    slice_axes = (0, 1) if slice_axes is None else tuple(slice_axes)
    if len(slice_axes) != 2 or len(set(slice_axes) & set(range(n))) != 2:
        raise DomainError(f"invalid slice axes {slice_axes} for {n} parameters")
    project = (0, 1, 2) if project is None else tuple(project)
    if len(project) != 3 or len(set(project) & set(range(dim))) != 3:
        raise DomainError(f"projection {project} invalid for dim {dim}")
    index = tuple(slice(None) if i in slice_axes else g // 2 for i, g in enumerate(grid))
    return index, slice_axes[0] > slice_axes[1], project


def patch_vertices(patch, slice_axes=None, project=None) -> np.ndarray:
    """(G1, G2, 3) vertex grid of the view (patch_view) of a whole patch."""
    pts = patch.points
    index, swap, project = patch_view(pts.shape[:-1], pts.shape[-1], slice_axes, project)
    sliced = pts[index][..., project]
    return np.swapaxes(sliced, 0, 1) if swap else sliced
