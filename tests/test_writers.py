"""The block writers against a frozen copy of the per-row writers they replaced.

The references below are write_points_csv, write_obj, VerificationReport.render
and VerificationReport.write_points_csv as they were when they formatted one
row at a time with str.format and f-strings.  They are kept here, unchanged,
as the reference the block writers (meshes.format_rows) must reproduce byte
for byte: the values are the same Python objects, only the formatting call
changed.
"""

import numpy as np
import pytest

from minmin import meshes, reporting
from minmin.curvature import CurvatureReport, failed_checks
from minmin.reporting import VerificationReport

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
    meshes.write_points_csv(tmp_path / "new.csv", header, rows)
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
