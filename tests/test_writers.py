"""The block writers against frozen copies of the writers they replaced.

The references below are write_points_csv, write_obj, VerificationReport.render
and VerificationReport.write_points_csv as they were when they formatted one
row at a time with str.format and f-strings, and format_rows as it was when
it formatted every block with % (_ref_format_rows).  They are kept here,
unchanged, as the reference the block writers (meshes.format_rows, and its
%.17g array path) must reproduce byte for byte: the values are the same
Python objects, only the formatting call changed.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

import minmin as mm
from minmin import cli, meshes, reporting
from minmin.curvature import CurvatureReport, failed_checks
from minmin.errors import DomainError
from minmin.reporting import VerificationReport
from minmin.separable import xprofiles_of

# ---------------------------------------------------------------------------
# frozen reference
# ---------------------------------------------------------------------------


def _ref_write_points_csv(path, header, rows):
    cols = [map("{:.17g}".format, c) for c in np.asarray(rows, dtype=float).T.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cols))


def _ref_write_obj(path, vertices):
    vertices = np.asarray(vertices, dtype=float)
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


def _ref_rows(report):
    r = report.reports
    reasons = failed_checks(r, r.tol, report.h_tol).tolist()
    return zip(range(len(r)), r.h_analytic.tolist(), r.h_oracle.tolist(),
               r.tangency_defect.tolist(), reasons)


def _ref_report_row(i, h, h_oracle, defect, reason):
    ok = "yes" if reason == "-" else "NO"
    return f"{i:<6d} {h:+.12e} {h_oracle:+.12e} {defect:.6e} {ok}"


def _ref_csv_row(i, h, h_oracle, defect, reason):
    return (f"{i},{h:.17g},{h_oracle:.17g},{defect:.17g},"
            f"{int(reason == '-')},{reason}\n")


def _ref_render(report):
    lines = [f"minmin {report.command} report", "=" * (len(report.command) + 14), ""]
    for key in sorted(report.config):
        lines.append(f"{key}: {reporting._fmt(report.config[key])}")
    lines.append("")
    lines.append("index  h_analytic          h_oracle            defect        pass")
    for row in _ref_rows(report):
        lines.append(_ref_report_row(*row))
    lines.append("")
    lines.append("aggregate")
    lines.append("---------")
    for key in ("points", "pass", "fail", "max_abs_h", "max_oracle_dev",
                "max_defect"):
        lines.append(f"{key}: {reporting._fmt(report.aggregate[key])}")
    lines.append(f"status: {'PASS' if report.passed else 'FAIL'}")
    lines.append("")
    return "\n".join(lines)


def _ref_report_csv(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        cols = ["index", "h_analytic", "h_oracle", "tangency_defect", "passed",
                "reason"]
        fh.write(",".join(cols) + "\n")
        for row in _ref_rows(report):
            fh.write(_ref_csv_row(*row))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

# values whose text is easy to get wrong: signed zero, infinities, NaN, the
# smallest subnormal, and doubles that need all 17 digits
SPECIAL = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 0.1, 1 / 3,
           -2.2250738585072014e-308, 1.7976931348623157e308, 1e16, -123456789.125]


def _values(count, seed, special=True):
    """count doubles: SPECIAL first (when asked), then random magnitudes over
    many binades with random signs."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
    if special:
        head = min(count, len(SPECIAL))
        v[:head] = SPECIAL[:head]
    return v


def _report(count, seed=1, h_tol=1e-6):
    """A VerificationReport of count rows whose columns hold the SPECIAL values
    and points that pass and fail each check."""
    h = _values(count, seed)
    # the oracle column has SPECIAL reversed, so no infinity meets its own
    # (inf - inf would be invalid), and every third finite h agrees with it
    h_oracle = _values(count, seed + 1, special=False)
    h_oracle[:len(SPECIAL)] = SPECIAL[::-1][:count]
    agree = (np.arange(count) % 3 == 0) & np.isfinite(h)
    h_oracle[agree] = h[agree]
    defect = np.abs(_values(count, seed + 2, special=False))
    defect[::4] = 0.0
    if count > 4:
        defect[4] = np.nan
    rep = CurvatureReport(h * 1e-9, h_oracle * 1e-9, defect, 1e-6)
    return VerificationReport(command="verify", config={"points": count, "tol": 1e-6},
                              reports=rep, h_tol=h_tol)


@pytest.fixture
def small_block(monkeypatch):
    """meshes.BLOCK_ROWS made 8, so block edges are crossed with few rows."""
    monkeypatch.setattr(meshes, "BLOCK_ROWS", 8)
    return 8


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [0, 1, len(SPECIAL), 7, 8, 9, 17])
def test_points_csv_matches_the_per_row_writer(tmp_path, small_block, count):
    rows = np.column_stack([_values(count, s) for s in range(4)]).reshape(count, 4)
    header = ["u", "f", "f_prime", "f_double_prime"]
    meshes.write_points_csv(tmp_path / "new.csv", header, list(rows.T))
    _ref_write_points_csv(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (2, 4), (3, 3), (2, 8), (3, 5),
                                   (4, 4), (5, 6)])
def test_obj_matches_the_per_vertex_writer(tmp_path, small_block, shape):
    # (1, 7), (2, 4) and (3, 3) have 7, 8 and 9 vertices; (2, 8), (3, 5) and
    # (4, 4) have 7, 8 and 9 quads, each two f records
    vertices = np.stack([_values(shape[0] * shape[1], s) for s in range(3)], axis=-1)
    vertices = vertices.reshape(shape + (3,))
    meshes.write_obj(tmp_path / "new.obj", vertices)
    _ref_write_obj(tmp_path / "ref.obj", vertices)
    assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


@pytest.mark.parametrize("count", [0, 1, 5, len(SPECIAL), 7, 8, 9, 17])
def test_report_and_csv_match_the_per_row_writers(tmp_path, small_block, count):
    report = _report(count)
    assert report.render() == _ref_render(report)
    report.write_points_csv(tmp_path / "new.csv")
    _ref_report_csv(report, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_report_rows_past_the_index_width(small_block):
    # the index column is 6 wide: from 10^6 on it pushes the row right, as
    # the f-string's {i:<6d} did
    index = np.arange(999_995, 1_000_012)
    report = _report(len(index))
    r = report.reports
    reasons = failed_checks(r, r.tol, report.h_tol)
    ok = np.where(reasons == "-", "yes", "NO")
    columns = [index, r.h_analytic, r.h_oracle, r.tangency_defect, ok]
    ref = [_ref_report_row(*row) + "\n"
           for row in zip(index.tolist(), r.h_analytic.tolist(), r.h_oracle.tolist(),
                          r.tangency_defect.tolist(), reasons.tolist())]
    blocks = list(meshes.format_rows(reporting.REPORT_ROW, columns))
    assert len(blocks) == 3
    assert "".join(blocks) == "".join(ref)
    passed = (reasons == "-").astype(int)
    blocks = meshes.format_rows(reporting.CSV_ROW, columns[:4] + [passed, reasons])
    assert "".join(blocks) == "".join(
        _ref_csv_row(*row) for row in zip(index.tolist(), r.h_analytic.tolist(),
                                          r.h_oracle.tolist(), r.tangency_defect.tolist(),
                                          reasons.tolist()))


@pytest.mark.parametrize("count,blocks", [(0, 0), (1, 1), (7, 1), (8, 1), (9, 2),
                                          (16, 2), (17, 3)])
def test_format_rows_yields_one_string_per_block(small_block, count, blocks):
    col = np.arange(count)
    out = list(meshes.format_rows("%d\n", [col]))
    assert len(out) == blocks
    assert [s.count("\n") for s in out] == [min(small_block, count - i)
                                            for i in range(0, count, small_block)]
    assert "".join(out) == "".join(f"{i}\n" for i in range(count))


# ---------------------------------------------------------------------------
# the %.17g array path
# ---------------------------------------------------------------------------


def _ref_format_rows(row, columns):
    """format_rows as it was when every block of 65,536 rows went through %:
    the frozen reference of the array path."""
    width = len(columns)
    total = len(columns[0]) if width else 0
    for start in range(0, total, 65536):
        count = min(65536, total - start)
        flat = [None] * (count * width)
        for j, c in enumerate(columns):
            flat[j::width] = c[start:start + count].tolist()
        yield (row * count) % tuple(flat)


def _ref_csv(header, columns):
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return (",".join(header) + "\n" + "".join(_ref_format_rows(row, columns))).encode()


def _ref_obj_vertices(vertices):
    return "".join(_ref_format_rows("v %.17g %.17g %.17g\n",
                                    list(vertices.reshape(-1, 3).T))).encode()


def _in_array_range(values):
    a = np.abs(values)
    return (a == 0.0) | ((a > 1e-6) & (a < 1e16))


@pytest.fixture
def array_path(monkeypatch):
    """Every %.17g block takes the array path, in passes of at most 9 values
    (whole rows)."""
    monkeypatch.setattr(meshes, "ARRAY_MIN_VALUES", 1)
    monkeypatch.setattr(meshes, "ARRAY_PASS_VALUES", 9)


def _pin(values):
    """The array path gives each value the text % gives it."""
    values = np.asarray(values, dtype=float)
    text = meshes._G17Rows.of("%.17g\n", [values]).text(values[:, None])
    assert text.splitlines() == ["%.17g" % v for v in values.tolist()]


def test_array_path_pins_random_bit_patterns():
    rng = np.random.default_rng(28)
    bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64, endpoint=False)
    _pin(bits.view(np.float64))
    # the same mantissas and signs with exponents inside the array path's range
    exponent = rng.integers(1003, 1077, bits.size, dtype=np.uint64) << np.uint64(52)
    values = ((bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | exponent).view(np.float64)
    assert _in_array_range(values).mean() > 0.95
    _pin(values)


def test_array_path_pins_magnitudes_of_both_signs():
    rng = np.random.default_rng(29)
    values = 10.0 ** rng.uniform(-8.0, 18.0, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    assert _in_array_range(values).mean() > 0.8
    _pin(values)


@pytest.mark.parametrize("q", range(1, 23))
def test_array_path_rounds_exact_ties_to_even(q):
    # odd * 2^-(1+q) has 16 - q as its decimal exponent for these odd numbers,
    # and times 10^q it is an odd multiple of 1/2: the 17th digit is a tie
    rng = np.random.default_rng(q)
    low = 10.0 ** (16 - q) * 2.0 ** (1 + q)
    high = min(10 * low, 2.0 ** 53)
    odd = np.floor(rng.uniform(low, high, 3000) / 2) * 2 + 1
    values = odd * 2.0 ** (-1 - q)
    assert all(Fraction(v) * 10 ** q % 1 == Fraction(1, 2) for v in values[:20].tolist())
    _pin(np.concatenate([values, -values]))


def test_array_path_pins_powers_of_ten_and_their_neighbours():
    powers = 10.0 ** np.arange(-9, 20)
    values = np.concatenate([np.nextafter(powers, 0.0), powers,
                             np.nextafter(powers, np.inf)])
    _pin(np.concatenate([values, -values]))


@pytest.mark.parametrize("e", range(-6, 16))
def test_seventeen_digits_never_round_up_to_the_next_power_of_ten(e):
    # the array path has no carry from 99...9 to 10^17: the largest double
    # below 10^(e+1) times 10^(16-e) stays below 10^17 - 1/2
    power = Fraction(10) ** (e + 1)
    below = float(power)
    if Fraction(below) >= power:
        below = float(np.nextafter(below, 0.0))
    assert Fraction(below) * Fraction(10) ** (16 - e) < 10 ** 17 - Fraction(1, 2)


def test_array_path_pins_zeros_and_values_it_leaves_to_percent():
    _pin([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-6, -1e-6, 1e16,
          -1e16, 1e300, 1.0, -0.0, 0.0])


def _profile_curve():
    return mm.integrate_profile(mm.ProfileODEParams(c0=0.35, k=1, m=2, y0=0.5,
                                                    u0=0.1, max_steps=300))


def test_ode_csv_matches_the_percent_formatter(tmp_path):
    curve = _profile_curve()
    curve.write_csv(tmp_path / "p.csv")
    want = _ref_csv(["u", "f", "f_prime", "f_double_prime"],
                    [curve.u, curve.f, curve.d1, curve.d2])
    assert (tmp_path / "p.csv").read_bytes() == want


def _patch(example, grid, span=1.0, xs=None, signs=None):
    if xs is None:
        xs, signs = mm.example_xprofiles(example)
    axes = mm.feasible_axes(xs, grid, span=span)
    return mm.patch_from_xprofiles(xs, signs, axes, mm.NormParams(m=2, dim=len(xs)))


def _patch_csv(patch):
    k = patch.us.shape[-1]
    header = ([f"u{i + 1}" for i in range(k)]
              + [f"x{i + 1}" for i in range(patch.points.shape[-1])])
    return _ref_csv(header, [*patch.us.reshape(-1, k).T, *patch.flat_points().T])


@pytest.mark.parametrize("example, grid", [("6.1", 5), ("6.3", 4), ("6.3", 6),
                                           ("6.5", 6), ("6.6", 6)])
def test_patch_csv_matches_the_percent_formatter(tmp_path, example, grid):
    patch = _patch(example, grid)
    patch.write_csv(tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == _patch_csv(patch)


def test_patch_csvs_hold_zeros_and_values_left_to_percent():
    # the cases above reach the zero layout and the rows spliced in from %
    values = np.concatenate([_patch("6.3", 4).us.ravel(), _patch("6.3", 6).us.ravel()])
    assert np.count_nonzero(values == 0.0) > 10
    assert not _in_array_range(_patch("6.3", 6).us.ravel()).all()


def test_csv_at_a_span_where_every_value_is_left_to_percent(tmp_path):
    xs = xprofiles_of("affine", [1] * 10, [1] * 9 + [-1])
    patch = _patch(None, 2, span=1e307, xs=xs, signs=(1,) * 10)
    values = np.concatenate([patch.us.ravel(), patch.points.ravel()])
    assert not _in_array_range(values).any()
    patch.write_csv(tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == _patch_csv(patch)


def _obj_vertex_lines(path):
    return b"".join(line for line in open(path, "rb") if line.startswith(b"v "))


@pytest.mark.parametrize("grid", [6, 12, 40])
def test_obj_vertex_rows_match_the_percent_formatter(tmp_path, grid):
    ts = mm.assemble_separated_surface(m=2, n=2, c0=1.0, inits=[(0.5, 0.1)] * 2,
                                       max_steps=200)
    vertices = meshes.translation_vertices(ts, ts.domain_axes(grid))
    meshes.write_obj(tmp_path / "t.obj", vertices)
    assert _obj_vertex_lines(tmp_path / "t.obj") == _ref_obj_vertices(vertices)
    vertices = meshes.patch_vertices(_patch("6.5", grid // 2))
    meshes.write_obj(tmp_path / "p.obj", vertices)
    assert _obj_vertex_lines(tmp_path / "p.obj") == _ref_obj_vertices(vertices)


@pytest.mark.parametrize("slice_axes", [(0, 1, 2), (0,), (), (1, 1), (0, 3), (-1, 0)])
def test_patch_vertices_refuse_slice_axes_that_are_not_two_of_the_parameters(
        slice_axes):
    with pytest.raises(DomainError, match="invalid slice axes"):
        meshes.patch_vertices(_patch("6.5", 3), slice_axes)


def test_patch_vertices_default_to_the_first_two_axes_and_coordinates():
    patch = _patch("6.5", 3)
    assert np.array_equal(meshes.patch_vertices(patch),
                          meshes.patch_vertices(patch, (0, 1), (0, 1, 2)))


def test_blocks_that_cross_65536_rows(tmp_path):
    rng = np.random.default_rng(65536)
    scale = 10.0 ** rng.integers(-8, 18, (3, 1))
    columns = list(rng.standard_normal((3, 65536 + 74)) * scale)
    columns[1][::1000] = 0.0
    columns[2][::999] = np.inf
    assert meshes.BLOCK_ROWS == 65536
    meshes.write_points_csv(tmp_path / "b.csv", ["a", "b", "c"], columns)
    assert (tmp_path / "b.csv").read_bytes() == _ref_csv(["a", "b", "c"], columns)
    vertices = np.stack(columns, axis=-1).reshape(-1, 5, 3)
    meshes.write_obj(tmp_path / "b.obj", vertices)
    assert _obj_vertex_lines(tmp_path / "b.obj") == _ref_obj_vertices(vertices)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_blocks_at_the_cutover(tmp_path, monkeypatch, offset):
    calls = []
    text = meshes._G17Rows.text
    monkeypatch.setattr(meshes._G17Rows, "text",
                        lambda self, block: calls.append(len(block)) or text(self, block))
    count = meshes.ARRAY_MIN_VALUES + offset
    column = np.linspace(-3.0, 7.0, count)
    meshes.write_points_csv(tmp_path / "c.csv", ["a"], [column])
    assert (tmp_path / "c.csv").read_bytes() == _ref_csv(["a"], [column])
    assert calls == ([] if offset < 0 else [count])


def test_format_rows_keeps_other_templates_on_percent(monkeypatch):
    # REPORT_ROW, CSV_ROW and the OBJ faces mix conversions: no array path
    monkeypatch.setattr(meshes._G17Rows, "text", None)
    column = np.linspace(1.0, 2.0, 1000)
    for row, width in (("%.17g,%d\n", 2), ("%.17g %.17e\n", 2), ("%.17g%%\n", 1)):
        columns = [column] * width
        assert meshes._G17Rows.of(row, columns) is None
        assert "".join(meshes.format_rows(row, columns)) == "".join(
            _ref_format_rows(row, columns))
    # a template whose text between values is longer than three bytes
    assert meshes._G17Rows.of("%.17g,   %.17g\n", [column, column]) is None
    assert meshes._G17Rows.of("%.17g,  %.17g\n", [column, column]) is not None
    assert meshes._G17Rows.of("%.17g\n", [np.arange(5)]) is None


@pytest.mark.parametrize("count", [0, 1, len(SPECIAL), 7, 8, 9, 17])
def test_points_csv_array_path_matches_the_per_row_writer(tmp_path, small_block,
                                                          array_path, count):
    rows = np.column_stack([_values(count, s) for s in range(4)]).reshape(count, 4)
    meshes.write_points_csv(tmp_path / "new.csv", ["a", "b", "c", "d"], list(rows.T))
    _ref_write_points_csv(tmp_path / "ref.csv", ["a", "b", "c", "d"], rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("shape", [(1, 1), (2, 4), (3, 3), (4, 4), (5, 6)])
def test_obj_array_path_matches_the_per_vertex_writer(tmp_path, small_block,
                                                      array_path, shape):
    vertices = np.stack([_values(shape[0] * shape[1], s) for s in range(3)], axis=-1)
    vertices = vertices.reshape(shape + (3,))
    meshes.write_obj(tmp_path / "new.obj", vertices)
    _ref_write_obj(tmp_path / "ref.obj", vertices)
    assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


def test_cli_outputs_match_the_percent_formatter(tmp_path, monkeypatch, capsys):
    # the CSV and OBJ files of ode and mesh, re-rendered from their values with %
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ten.json").write_text(json.dumps(
        {"kind": "affine", "p": [1] * 10, "q": [1] * 9 + [-1]}))
    for argv in (["ode", "--m", "2", "--out", "p.csv"],
                 ["mesh", "--example", "6.3", "--grid", "4", "--out", "p.csv"],
                 ["mesh", "--kind", "translation", "--grid", "12", "--out", "p.csv"],
                 ["mesh", "--params-file", "ten.json", "--grid", "2", "--span", "1e307",
                  "--out", "p.csv"]):
        assert cli.main(argv) == 0
        lines = (tmp_path / "p.csv").read_text().splitlines()
        columns = list(np.array([ln.split(",") for ln in lines[1:]], dtype=float).T)
        assert (tmp_path / "p.csv").read_bytes() == _ref_csv(lines[0].split(","), columns)
    assert cli.main(["mesh", "--kind", "translation", "--grid", "30", "--out", "t.obj"]) == 0
    vertex_lines = _obj_vertex_lines(tmp_path / "t.obj")
    vertices = np.array([ln.split()[1:] for ln in vertex_lines.decode().splitlines()],
                        dtype=float)
    assert vertex_lines == _ref_obj_vertices(vertices)
    capsys.readouterr()
